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

const System& validatedWarm(const System& system) {
  system.validate();
  system.warmIndices();
  return system;
}

std::pair<std::size_t, std::span<const int>> RandomPolicy::pick(
    const System&, const GlobalState&, std::span<const EnabledInteraction> enabled) {
  const std::size_t i = rng_.index(enabled.size());
  const EnabledInteraction& ei = enabled[i];
  choice_.clear();
  for (const std::vector<int>& options : ei.choices) {
    choice_.push_back(static_cast<int>(rng_.index(options.size())));
  }
  return {i, choice_};
}

std::pair<std::size_t, std::span<const int>> FirstPolicy::pick(
    const System&, const GlobalState&, std::span<const EnabledInteraction> enabled) {
  choice_.assign(enabled.front().choices.size(), 0);
  return {0, choice_};
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
