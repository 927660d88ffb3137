// Stable hash of an engine trace, for tests that pin golden schedules.
#pragma once

#include <cstdint>

#include "engine/trace.hpp"

namespace cbip {

/// FNV-1a over the (connector, mask) sequence of a trace and its length.
inline std::uint64_t traceHash(const Trace& trace) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  mix(trace.events.size());
  for (const TraceEvent& e : trace.events) {
    mix(static_cast<std::uint64_t>(e.connector));
    mix(e.mask);
  }
  return h;
}

}  // namespace cbip
