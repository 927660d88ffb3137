#include "engine/engine.hpp"

#include <chrono>

#include "obs/obs.hpp"
#include "util/require.hpp"

namespace cbip {

namespace {
// Telemetry (src/obs): counts only, never steers — traces are
// bit-identical with observability on, off, or compiled out.
const obs::Counter g_seqSteps("engine.seq.steps");
const obs::Counter g_seqRuns("engine.seq.runs");
}  // namespace

SequentialEngine::SequentialEngine(const System& system, SchedulingPolicy& policy)
    : system_(&system), policy_(&policy) {
  system.validate();
  // Warm every lazy index and lower every program now so the run loop
  // never pays the (one-time) build cost mid-measurement. The compiled
  // programs are skipped when the interpreter escape hatch is active:
  // that path must not depend on the compiler even building.
  system.warmIndices();
}

RunResult SequentialEngine::run(const RunOptions& options) {
  return run(initialState(*system_), options);
}

RunResult SequentialEngine::run(const EngineOptions& options) {
  RunOptions full = defaults_;
  static_cast<EngineOptions&>(full) = options;
  return run(full);
}

RunResult SequentialEngine::run(GlobalState start, const RunOptions& options) {
  g_seqRuns.add();
  // RunStats (functional result, unlike the obs counters): one scheduling
  // round per step here, plus wall time bracketing the whole run.
  stats_ = RunStats{};
  const auto wall0 = std::chrono::steady_clock::now();
  const auto finishStats = [&](const RunResult& r) {
    stats_.steps = r.steps;
    stats_.scanRounds = r.steps;
    stats_.wallNs = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - wall0)
            .count());
  };
  RunResult result;
  result.finalState = std::move(start);
  // Settle initial tau steps so offers reflect stable states.
  for (std::size_t i = 0; i < system_->instanceCount(); ++i) {
    runInternal(*system_->instance(i).type, result.finalState.components[i]);
  }
  EnabledInteractionCache cache(*system_);
  cache.reset(result.finalState);
  const bool mustFilter = system_->maximalProgress() || !system_->priorities().empty();
  for (std::uint64_t step = 0; step < options.maxSteps; ++step) {
    // Without priority filtering the cached set is used in place; only the
    // filtering path needs a mutable copy.
    std::vector<EnabledInteraction> scratch;
    const std::vector<EnabledInteraction>* enabled = &cache.enabled();
    if (enabled->empty()) {
      result.reason = StopReason::kDeadlock;
      finishStats(result);
      return result;
    }
    if (mustFilter) {
      scratch = applyPriorities(*system_, result.finalState, *enabled);
      enabled = &scratch;
    }
    const auto [idx, choice] = policy_->pick(*system_, result.finalState, *enabled);
    require(idx < enabled->size(), "SchedulingPolicy returned out-of-range interaction");
    // `ei` may point into the cache, so the cache update comes last.
    const EnabledInteraction& ei = (*enabled)[idx];
    execute(*system_, result.finalState, ei, choice);
    ++result.steps;
    g_seqSteps.add();
    if (options.recordTrace) {
      result.trace.events.push_back(labels_.event(*system_, step, ei.connector, ei.mask));
    }
    cache.updateAfterExecute(result.finalState, ei);
    if (options.stopWhen && options.stopWhen(result.finalState)) {
      result.reason = StopReason::kPredicate;
      finishStats(result);
      return result;
    }
  }
  result.reason = StopReason::kStepLimit;
  finishStats(result);
  return result;
}

}  // namespace cbip
