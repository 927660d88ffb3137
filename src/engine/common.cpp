#include "engine/common.hpp"

#include <algorithm>
#include <ostream>

#include "obs/obs.hpp"

namespace cbip {

namespace {
// Telemetry (src/obs): labels rendered into TraceLabels; every other
// recorded event copies one of them.
const obs::Counter g_labelsRendered("trace.labels.rendered");
}  // namespace

std::pair<std::size_t, std::vector<int>> RandomPolicy::pick(
    const System&, const GlobalState&, const std::vector<EnabledInteraction>& enabled) {
  const std::size_t i = rng_.index(enabled.size());
  const EnabledInteraction& ei = enabled[i];
  std::vector<int> choice;
  choice.reserve(ei.choices.size());
  for (const std::vector<int>& options : ei.choices) {
    choice.push_back(static_cast<int>(rng_.index(options.size())));
  }
  return {i, std::move(choice)};
}

std::pair<std::size_t, std::vector<int>> FirstPolicy::pick(
    const System&, const GlobalState&, const std::vector<EnabledInteraction>& enabled) {
  return {0, std::vector<int>(enabled.front().choices.size(), 0)};
}

TraceEvent TraceLabels::event(const System& system, std::uint64_t step, int connector,
                              InteractionMask mask) {
  const auto c = static_cast<std::size_t>(connector);
  if (c >= byConnector_.size()) byConnector_.resize(system.connectorCount());
  std::vector<Rendered>& rendered = byConnector_[c];
  auto it = std::lower_bound(rendered.begin(), rendered.end(), mask,
                             [](const Rendered& r, InteractionMask m) { return r.mask < m; });
  if (it == rendered.end() || it->mask != mask) {
    it = rendered.insert(it, Rendered{mask, interactionLabel(system, connector, mask)});
    g_labelsRendered.add();
  }
  return TraceEvent{step, connector, mask, it->label};
}

const char* to_string(StopReason reason) {
  switch (reason) {
    case StopReason::kStepLimit: return "kStepLimit";
    case StopReason::kDeadlock: return "kDeadlock";
    case StopReason::kPredicate: return "kPredicate";
  }
  return "<invalid StopReason>";
}

std::ostream& operator<<(std::ostream& os, StopReason reason) {
  return os << to_string(reason);
}

}  // namespace cbip
