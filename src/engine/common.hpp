// Plumbing shared by every execution engine (sequential, multi-threaded,
// sharded): scheduling policies, stop reasons, the run-result record, the
// common run-option core, the common run-statistics record, and the
// abstract Engine interface every engine implements.
//
// Extracted from engine.hpp so that new engines (engine_mt.hpp,
// shard/engine_sharded.hpp) reuse one definition of the policy interface
// and result types instead of growing per-engine copies.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/semantics.hpp"
#include "core/system.hpp"
#include "engine/trace.hpp"
#include "util/rng.hpp"

namespace cbip {

/// Resolves scheduler nondeterminism: picks one enabled interaction and
/// one transition per participant.
class SchedulingPolicy {
 public:
  virtual ~SchedulingPolicy() = default;
  /// `enabled` is non-empty. Returns the picked interaction's index and
  /// its per-participant transition choice: a view into a buffer the
  /// policy owns, valid until the next pick.
  virtual std::pair<std::size_t, std::span<const int>> pick(
      const System& system, const GlobalState& state,
      std::span<const EnabledInteraction> enabled) = 0;
};

/// Uniformly random choice among interactions and transition options.
class RandomPolicy final : public SchedulingPolicy {
 public:
  explicit RandomPolicy(std::uint64_t seed) : rng_(seed) {}
  std::pair<std::size_t, std::span<const int>> pick(
      const System& system, const GlobalState& state,
      std::span<const EnabledInteraction> enabled) override;

 private:
  Rng rng_;
  std::vector<int> choice_;
};

/// Deterministic: first interaction, first transitions.
class FirstPolicy final : public SchedulingPolicy {
 public:
  std::pair<std::size_t, std::span<const int>> pick(
      const System& system, const GlobalState& state,
      std::span<const EnabledInteraction> enabled) override;

 private:
  std::vector<int> choice_;
};

/// Why a run stopped.
enum class StopReason { kStepLimit, kDeadlock, kPredicate };

/// Enumerator name ("kStepLimit", ...) for diagnostics and test output.
const char* to_string(StopReason reason);
std::ostream& operator<<(std::ostream& os, StopReason reason);

/// The label of every (connector, mask) pair an engine has recorded. A
/// label is a pure function of the pair, so an engine renders it once, at
/// the pair's first recorded fire, and copies it into later events. Sized
/// lazily: nothing is rendered or allocated until a trace is recorded.
class TraceLabels {
 public:
  /// The trace event of `connector` firing under `mask` at `step`.
  TraceEvent event(const System& system, std::uint64_t step, int connector,
                   InteractionMask mask);

 private:
  struct Rendered {
    InteractionMask mask;
    std::string label;
  };
  std::vector<std::vector<Rendered>> byConnector_;  // each sorted by mask
};

struct RunResult {
  StopReason reason = StopReason::kStepLimit;
  std::uint64_t steps = 0;
  Trace trace;
  GlobalState finalState;
};

/// Run-option core shared by every engine. The per-engine option structs
/// (RunOptions, MtOptions, ShardedOptions) derive from this, so a caller
/// holding only an `Engine&` can configure the portable knobs and run any
/// engine through the uniform interface; engine-specific knobs keep the
/// derived structs.
struct EngineOptions {
  /// Step budget. Counts *interactions* on every engine (the MT and
  /// sharded engines may execute several per scheduling round).
  std::uint64_t maxSteps = 1000;
  bool recordTrace = true;
};

/// Minimal run statistics every engine reports through
/// Engine::lastRunStats(). ShardedStats extends this with epoch/migration
/// detail. Like ShardedStats these are part of the functional result —
/// always collected, cheap enough to never need a toggle (two clock reads
/// per run) — and never steer execution.
struct RunStats {
  std::uint64_t steps = 0;  ///< interactions executed
  /// Scheduling rounds: steps for SequentialEngine, cycles (batches) for
  /// MultiThreadEngine, epochs for ShardedEngine.
  std::uint64_t scanRounds = 0;
  std::uint64_t wallNs = 0;  ///< wall-clock duration of run()
};

/// Abstract engine interface: drive any of the three engines (sequential,
/// multi-threaded, sharded) without knowing which one it is. The concrete
/// engines keep their richer run(DerivedOptions) overloads; this
/// type-erased run() merges the portable core into the engine's default
/// options (see defaultOptions() on each engine for presetting the
/// engine-specific knobs, e.g. the sharded seed, before a uniform run).
class Engine {
 public:
  virtual ~Engine() = default;
  /// Runs from the engine's initial state with the given portable options.
  virtual RunResult run(const EngineOptions& options) = 0;
  /// Stable short name: "seq", "mt", "sharded".
  virtual const char* name() const = 0;
  /// Statistics of the most recent run(); zeroed before the first run.
  /// ShardedEngine covariantly returns its ShardedStats extension.
  virtual const RunStats& lastRunStats() const = 0;
};

}  // namespace cbip
