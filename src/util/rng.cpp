#include "util/rng.hpp"

#include "util/require.hpp"

namespace cbip {

std::uint64_t Rng::next() {
  state_ += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state_;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t Rng::below(std::uint64_t bound) {
  requireEval(bound > 0, "Rng::below: bound must be positive");
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % bound);
  std::uint64_t v = next();
  while (v >= limit) v = next();
  return v % bound;
}

std::int64_t Rng::range(std::int64_t lo, std::int64_t hi) {
  requireEval(lo <= hi, "Rng::range: lo must be <= hi");
  // Unsigned arithmetic: hi - lo overflows int64 once the range is wider
  // than INT64_MAX (the full range's width wraps to 0).
  const std::uint64_t width = static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) +
                                   (width == 0 ? next() : below(width)));
}

bool Rng::chance(std::uint64_t numerator, std::uint64_t denominator) {
  requireEval(denominator > 0, "Rng::chance: denominator must be positive");
  if (numerator >= denominator) return true;
  return below(denominator) < numerator;
}

Rng Rng::split() { return Rng(next() ^ 0x6a09e667f3bcc909ULL); }

std::vector<std::size_t> Rng::permutation(std::size_t n) {
  std::vector<std::size_t> p(n);
  for (std::size_t i = 0; i < n; ++i) p[i] = i;
  for (std::size_t i = n; i > 1; --i) {
    const std::size_t j = index(i);
    std::swap(p[i - 1], p[j]);
  }
  return p;
}

}  // namespace cbip
