// Execution traces recorded by the engines.
//
// A trace is the sequence of executed interactions with enough structure
// for the equivalence checks used throughout the flow (observational
// equivalence of refinements, Fig 5.4; fusion bisimulation, E12).
//
// An event's label is `interactionLabel(system, connector, mask)`, a pure
// function of (connector, mask). Every engine renders each label once per
// (connector, mask) through its TraceLabels memo (engine/common.hpp) and
// copies it into later events; nothing is rendered when recordTrace is off.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace cbip {

struct TraceEvent {
  std::uint64_t step = 0;
  int connector = 0;
  std::uint64_t mask = 0;
  std::string label;
};

struct Trace {
  std::vector<TraceEvent> events;

  std::vector<std::string> labels() const {
    std::vector<std::string> out;
    out.reserve(events.size());
    for (const TraceEvent& e : events) out.push_back(e.label);
    return out;
  }
};

}  // namespace cbip
