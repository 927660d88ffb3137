// Sharded BIP engine: one worker per shard of a partitioned component
// graph, shard 0 on the calling thread.
//
// Where the multithreaded engine (engine/engine_mt.hpp) pays a
// message-round handshake per *interaction*, the sharded engine pays one
// barrier per *epoch* of up to shardCount * epochBatch interactions.
// Shard-local interactions (the overwhelming majority under a good
// partition, see shard/partition.hpp) execute in parallel, each entirely
// inside its shard — enabled-set maintenance, policy choice, data transfer
// and transition firing all touch only the shard's own members. Everything
// else runs serially, in the barrier's completion, and no lock is taken.
//
// All shards share one GlobalState and the core semantics: each shard
// keeps two EnabledInteractionCaches, one over its local connectors and
// one over the cross connectors it owns (cross-shard connectors are owned
// by their lowest involved shard), and executes through `execute`.
//
// An epoch is the parallel local phase followed by the serial
// coordination of the next epoch:
//
//   local   Every worker drains its shard's cross-dirty queue into its
//           local cache, then runs up to its quota of shard-local
//           interactions: pick via its own seeded policy from the local
//           enabled set in place, execute, and update the cache.
//           [barrier; its completion runs, on one thread while every
//           worker waits, the four steps below.]
//
//   close   Count the epoch's executed interactions (0 executed means
//           global deadlock), stop on an error, the step limit or
//           deadlock, and run the online rebalancer.
//
//   plan    For every shard in shard order: refresh the enabled sets of
//           its owned cross connectors from every shard's dirty log of the
//           last epoch, and offer one cross candidate per enabled
//           connector (where a broadcast has several masks enabled, the
//           shard's policy picks one).
//
//   resolve Candidates sorted by connector are greedily accepted while
//           their instance footprints stay disjoint; per-shard step quotas
//           are dealt for the local phase, and idle shards are assigned
//           footprint-disjoint surplus local work of overloaded shards.
//
//   cross   For every shard in shard order: execute its accepted crosses
//           in accepted order, then the work it steals in assignment
//           order, each with its own policy's choice, and queue the
//           dirtied instances to their shards.
//
// Each policy thus sees its picks in the order a worker of its own would
// make them: plan, cross work, local steps. Because every interaction
// executed within one epoch has an instance footprint disjoint from the
// others that could run concurrently with it (accepted crosses by
// construction; locals by shard-locality), the epoch's interactions
// serialize: cross interactions in accepted order followed by each
// shard's local sequence is a valid sequential schedule with an identical
// final state. The differential suite (tests/test_sharded.cpp) replays
// exactly that schedule through SequentialEngine. With a single shard the
// engine degenerates to the sequential loop and its traces are
// bit-identical to SequentialEngine under the same seeded policy.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/semantics.hpp"
#include "engine/common.hpp"
#include "shard/sharded.hpp"

namespace cbip::shard {

/// Scheduler-behaviour statistics for the last run(). Extends the common
/// RunStats core (steps, scanRounds = epochs, wallNs) with epoch-grained
/// scheduler and migration detail (all writes happen in the barrier's
/// completion or after the join, never on the per-interaction hot path)
/// and is always collected — unlike the src/obs counters these are part of
/// the engine's functional result, so tests can assert scheduler behaviour
/// (idle shards, stalled epochs, quota waste, migration counts) without
/// going through the telemetry registry.
struct ShardedStats : RunStats {
  std::uint64_t epochs = 0;           ///< epochs closed (bootstrap excluded)
  std::uint64_t stalledEpochs = 0;    ///< epochs where >=1 shard sat idle
                                      ///< while the epoch still made progress
  std::uint64_t crossCandidates = 0;  ///< cross-shard candidates published
  std::uint64_t crossAccepted = 0;    ///< accepted by the conflict resolver
  std::uint64_t crossConflicts = 0;   ///< rejected: instance-footprint clash

  // Online-rebalancing outcome (zero when rebalancing is disabled).
  std::uint64_t rebalanceDecisions = 0;  ///< load-window checks that migrated
  std::uint64_t componentsMoved = 0;     ///< instances migrated across shards
  std::uint64_t stealEvents = 0;         ///< local interactions executed by a
                                         ///< thief shard in the cross work

  struct Shard {
    std::uint64_t steps = 0;        ///< localSteps + crossSteps + stolenSteps
    std::uint64_t localSteps = 0;   ///< shard-local interactions executed
    std::uint64_t crossSteps = 0;   ///< owned cross interactions executed
    std::uint64_t stolenSteps = 0;  ///< interactions this shard executed as
                                    ///< a thief (on some victim's members)
    std::uint64_t idleEpochs = 0;   ///< epochs this shard executed nothing
                                    ///< while the epoch overall progressed
    std::uint64_t quotaGranted = 0; ///< local-step quota dealt across epochs
    std::uint64_t quotaUnused = 0;  ///< granted quota left on the table
    std::uint64_t migratedIn = 0;   ///< instances migrated into this shard
    std::uint64_t migratedOut = 0;  ///< instances migrated out of this shard
    // Wall-clock phase breakdown in nanoseconds; zero unless timing was
    // active during the run (observability enabled or a trace sink
    // installed; always zero in CBIP_NO_OBS builds). The barrier's
    // completion times each shard's plan and cross work.
    std::uint64_t planNs = 0;
    std::uint64_t crossNs = 0;
    std::uint64_t localNs = 0;
    std::uint64_t idleNs = 0;  ///< barrier wait, less the completion this
                               ///< shard's thread ran
    /// Always 0: the engine takes no locks. Kept while the perfbench
    /// `shard.lock_wait_ns` row and the `cbip stats` JSON read it.
    std::uint64_t lockWaitNs = 0;
  };
  std::vector<Shard> shards;  ///< indexed by shard id
};

/// ShardedEngine options: the portable EngineOptions core (maxSteps counts
/// interactions, like MtOptions) plus the engine-specific knobs below.
struct ShardedOptions : EngineOptions {
  /// Seed for the default per-shard scheduling policies.
  std::uint64_t seed = 0;
  /// Upper bound on shard-local interactions one shard executes per
  /// epoch. Larger values amortize the epoch barrier and its serial
  /// coordination over more steps; 1 globally synchronizes every step.
  std::uint64_t epochBatch = 8;
  /// Online rebalancing: every rebalanceInterval epochs, migrate members
  /// of a persistently overloaded shard (load > rebalanceTolerance x the
  /// average over the window) to the least-loaded shards. Decisions read
  /// only executed-step counts — never wall clocks — so runs stay
  /// deterministic for a fixed seed. With this and `workStealing` off,
  /// the engine runs the static-partition scheduler.
  bool rebalance = true;
  std::uint64_t rebalanceInterval = 8;  ///< epochs per load window
  double rebalanceTolerance = 1.5;      ///< trigger: maxLoad > tol * avgLoad
  /// Work stealing for load bursts: shards with no enabled local work
  /// execute surplus local interactions of overloaded shards in the
  /// serial cross work, with the thief's policy. Plan-time assignment,
  /// footprint-disjoint against everything else in the epoch —
  /// deterministic and replay-safe.
  bool workStealing = true;
  /// Scheduling policy per shard. Default: RandomPolicy(seed) for shard 0
  /// — making a one-shard run bit-identical to SequentialEngine with
  /// RandomPolicy(seed) — and an independently seeded RandomPolicy per
  /// further shard. Policies are handed an empty placeholder GlobalState;
  /// state-inspecting policies are not supported here.
  std::function<std::unique_ptr<SchedulingPolicy>(std::size_t shard)> policyFactory;
};

class ShardedEngine final : public Engine {
 public:
  /// The system must outlive the engine.
  ShardedEngine(const System& system, Partition partition);
  /// Convenience: greedy-partitions the system into `shards` shards.
  ShardedEngine(const System& system, std::size_t shards);

  /// Runs from the system's initial state.
  RunResult run(const ShardedOptions& options);

  /// Engine interface: merges the portable core into defaultOptions().
  RunResult run(const EngineOptions& options) override;
  const char* name() const override { return "sharded"; }

  const ShardedSystem& sharded() const { return sharded_; }

  /// Statistics of the most recent run(); empty before the first run.
  const ShardedStats& lastRunStats() const override { return stats_; }

  /// Template for type-erased runs: preset engine-specific knobs (seed,
  /// epochBatch, rebalance, ...) here before driving the engine through
  /// the Engine interface.
  ShardedOptions& defaultOptions() { return defaults_; }

 private:
  ShardedSystem sharded_;
  /// Per shard: the enabled-set caches over its local and its owned cross
  /// connectors. Built with the engine and reused across runs; a run
  /// rebuilds one only when a migration changed its connector list.
  std::vector<EnabledInteractionCache> localCaches_;
  std::vector<EnabledInteractionCache> crossCaches_;
  ShardedOptions defaults_;
  ShardedStats stats_;
  TraceLabels labels_;
};

}  // namespace cbip::shard
