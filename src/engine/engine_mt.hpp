// Multi-threaded BIP engine.
//
// Mirrors the BIP toolset's multithread backend (monograph Section 5.6):
// "each atomic component is assigned to a thread, with the engine itself
// being a thread. Communication occurs only between atomic components and
// the engine — never directly between different atomic components."
//
// Protocol per cycle:
//   1. the engine assembles the last reported component states (offers),
//      computes the enabled interactions and applies priorities;
//   2. it selects a batch of pairwise-independent interactions
//      (non-overlapping connector footprints). When the system declares
//      priority rules or maximal progress the batch size is capped at 1,
//      because executing one interaction may change which others are
//      maximal — the sequential semantics is then preserved exactly;
//   3. for each selected interaction it performs the connector data
//      transfer (up/down) centrally, then dispatches Execute commands to
//      the participating component threads, which fire their transitions
//      (actions + tau steps + configurable computation grain) in parallel
//      and report their new states.
//
// Independent interactions commute, so every multithreaded run is
// label-equivalent to a sequential run (tested in test_engine.cpp).
#pragma once

#include <cstdint>

#include "engine/engine.hpp"

namespace cbip {

/// MultiThreadEngine options: the portable EngineOptions core (maxSteps
/// counts interactions, not cycles) plus the engine-specific knobs below.
struct MtOptions : EngineOptions {
  /// Artificial computation per fired transition (spin iterations) —
  /// models the work a real component would do in its action code.
  std::uint64_t workGrain = 0;
  /// Upper bound on interactions dispatched concurrently per cycle
  /// (0 = unlimited; forced to 1 when priorities are present).
  std::size_t maxBatch = 0;
};

class MultiThreadEngine final : public Engine {
 public:
  /// The system must outlive the engine.
  MultiThreadEngine(const System& system, SchedulingPolicy& policy);

  RunResult run(const MtOptions& options);

  /// Engine interface: merges the portable core into defaultOptions().
  RunResult run(const EngineOptions& options) override;
  const char* name() const override { return "mt"; }
  const RunStats& lastRunStats() const override { return stats_; }

  /// Template for type-erased runs: preset engine-specific knobs here
  /// before driving the engine through the Engine interface.
  MtOptions& defaultOptions() { return defaults_; }

 private:
  const System* system_;
  SchedulingPolicy* policy_;
  MtOptions defaults_;
  RunStats stats_;
  TraceLabels labels_;
};

}  // namespace cbip
