// Shared command-line plumbing for the cbip-verify and cbip-stats tools:
// one model loader and strict numeric option parsing, so both tools
// accept the same builtin model names and reject malformed numbers the
// same way (usage message, exit code 2).
#pragma once

#include <charconv>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>

#include "core/system.hpp"

namespace cbip::cli {

/// Parses all of `text` as a non-negative decimal integer into `out`.
/// Returns false — leaving `out` untouched — on a sign, a non-digit,
/// trailing characters, an empty string or a value out of T's range.
template <typename T>
bool parseCount(std::string_view text, T& out) {
  if (text.empty() || text.front() == '-') return false;
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return false;
  out = value;
  return true;
}

/// Loads the model named `model`: a builtin family sized by `n` —
/// philosophers (atomic-grab, deadlock-free), philosophers2 (two-step,
/// can deadlock), gas (gas station), prodcons (bounded buffer),
/// tokenring, skewed (n pairs, 1/8 hot, the rest dead after 4 steps
/// each) — or else a path to a .bip model file, parsed and validated.
/// On failure prints "<tool>: <reason>" to stderr and returns nullopt.
std::optional<System> loadModel(const char* tool, const std::string& model, int n);

}  // namespace cbip::cli
