// Execution engines for composite BIP systems.
//
// The engine implements the monograph's run-time (Section 5.6): it
// repeatedly computes the enabled interactions from component offers,
// applies priorities, resolves the remaining nondeterminism with a
// scheduling policy, and executes the chosen interaction.
//
// Three engines are provided, mirroring and extending the BIP toolset:
//   * SequentialEngine — single-threaded reference implementation;
//   * MultiThreadEngine (engine_mt.hpp) — one worker thread per component,
//     communicating exclusively with the engine thread (components never
//     talk to each other directly);
//   * ShardedEngine (shard/engine_sharded.hpp) — one worker per shard of a
//     partitioned component graph, coordinating only on cross-shard
//     interactions.
// Scheduling policies, StopReason and RunResult are shared by all three
// and live in engine/common.hpp.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "core/semantics.hpp"
#include "core/system.hpp"
#include "engine/common.hpp"

namespace cbip {

/// SequentialEngine options: the portable EngineOptions core (maxSteps,
/// recordTrace) plus the engine-specific knobs below.
struct RunOptions : EngineOptions {
  /// Optional stop predicate checked after every step.
  std::function<bool(const GlobalState&)> stopWhen;
};

/// Single-threaded reference engine.
class SequentialEngine final : public Engine {
 public:
  /// The system must outlive the engine.
  SequentialEngine(const System& system, SchedulingPolicy& policy);

  /// Runs from the system's initial state.
  RunResult run(const RunOptions& options);
  /// Runs from a caller-provided state (consumed).
  RunResult run(GlobalState start, const RunOptions& options);

  /// Engine interface: merges the portable core into defaultOptions().
  RunResult run(const EngineOptions& options) override;
  const char* name() const override { return "seq"; }
  const RunStats& lastRunStats() const override { return stats_; }

  /// Template for type-erased runs: preset engine-specific knobs here
  /// before driving the engine through the Engine interface.
  RunOptions& defaultOptions() { return defaults_; }

 private:
  const System* system_;
  SchedulingPolicy* policy_;
  RunOptions defaults_;
  RunStats stats_;
  TraceLabels labels_;
};

}  // namespace cbip
