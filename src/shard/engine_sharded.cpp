#include "shard/engine_sharded.hpp"

#include <algorithm>
#include <barrier>
#include <chrono>
#include <exception>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "util/require.hpp"

namespace cbip::shard {

namespace {

// Telemetry (src/obs): counts only, never steers — traces stay
// bit-identical with observability on, off, or compiled out. Per-shard
// metrics ("shard.<s>.*") are registered lazily at run end because the
// shard count is per-engine; everything below is flushed after the join,
// never on the per-interaction hot path.
const obs::Counter g_runs("engine.sharded.runs");
const obs::Counter g_steps("engine.sharded.steps");
const obs::Counter g_epochs("engine.sharded.epochs");
const obs::Counter g_stalled("engine.sharded.epochs.stalled");
const obs::Counter g_crossCandidates("engine.sharded.cross.candidates");
const obs::Counter g_crossAccepted("engine.sharded.cross.accepted");
const obs::Counter g_crossConflicts("engine.sharded.cross.conflicts");
const obs::Counter g_rebalanceDecisions("engine.sharded.rebalance.decisions");
const obs::Counter g_rebalanceMoved("engine.sharded.rebalance.moved");
const obs::Counter g_stealEvents("engine.sharded.steal.events");

/// Independent deterministic policy seed per shard; shard 0 keeps the
/// user seed so a K=1 run consumes the identical RandomPolicy stream as
/// SequentialEngine with RandomPolicy(seed).
std::uint64_t shardSeed(std::uint64_t seed, std::size_t shard) {
  return seed + 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(shard);
}

/// One interaction executed during the run, with enough ordering
/// structure to rebuild the canonical serialization afterwards: epochs
/// ascending; within an epoch the cross phase (accepted order) precedes
/// the local phase (shard-ascending, then execution order).
struct Event {
  std::uint64_t epoch = 0;
  int phase = 0;  // 0 = cross, 1 = local
  int shard = 0;  // 0 for cross events (ordered by seq alone)
  std::uint64_t seq = 0;
  int connector = 0;
  InteractionMask mask = 0;
};

bool eventBefore(const Event& a, const Event& b) {
  return std::tie(a.epoch, a.phase, a.shard, a.seq) <
         std::tie(b.epoch, b.phase, b.shard, b.seq);
}

/// Wall time of the epoch barrier's last completion, when this thread ran
/// it: the thread's barrier wait includes it, and its idle time must not.
thread_local std::uint64_t t_coordinateNs = 0;

/// Per-shard worker bookkeeping. `local` and `cross` are the engine's
/// enabled-set caches over this shard's local connectors and owned cross
/// connectors: the local one is updated after every local step, so the
/// policy picks from it in place; the cross one is updated at plan time.
/// The worker thread writes only the local-phase fields; everything else
/// is written in the epoch barrier's completion, while every worker waits.
struct Worker {
  EnabledInteractionCache* local = nullptr;
  EnabledInteractionCache* cross = nullptr;
  std::unique_ptr<SchedulingPolicy> policy;

  // Instances this shard dirtied during the epoch (cross + local
  // executions), read by the next plan to refresh every shard's
  // cross-connector caches.
  std::vector<int> dirtyLog;

  // Instances of this shard dirtied by cross-shard and stolen executions
  // (whoever owned them); the local phase drains them into `local`.
  std::vector<int> crossDirty;

  // The plan's output for the conflict resolver: views into `cross`,
  // which only the next plan changes. One candidate per owned cross
  // connector with an enabled interaction.
  std::vector<const EnabledInteraction*> crossCandidates;
  std::size_t localEnabledCount = 0;

  // Set at plan time alongside the candidates when this shard has more
  // enabled local work than its quota can cover: the length of a bounded
  // prefix of `local` that idle shards may steal.
  std::size_t stealable = 0;

  std::uint64_t localExecuted = 0;   // this epoch
  std::uint64_t crossExecuted = 0;   // this epoch (owned crosses only)
  std::uint64_t stolenExecuted = 0;  // this epoch (as thief, on victims' members)
  std::vector<Event> events;

  // Instances whose shared activity cell this shard raised from zero in
  // the current load window (sparse reset: the rebalancer zeroes exactly
  // these at window close instead of sweeping all n counters).
  std::vector<int> activityTouched;

  // Wall-clock accumulators (nanoseconds), read after the join; populated
  // only while timing is active (see `timed` below).
  std::uint64_t planNs = 0;
  std::uint64_t crossNs = 0;
  std::uint64_t localNs = 0;
  std::uint64_t idleNs = 0;

  // The first error of this shard's bootstrap or local phase; the next
  // barrier completion stops the run.
  std::exception_ptr error;
};

/// A cross candidate accepted by the conflict resolver. `interaction`
/// points into its owner's `cross` set, which only the next plan changes.
struct AcceptedCross {
  const EnabledInteraction* interaction = nullptr;
  int crossIndex = 0;  // into ShardedSystem::crossConnectors()
};

/// A work-stealing assignment made by the conflict resolver: `thief`
/// executes one of `victim`'s enabled local interactions in the cross
/// work, with its own policy. `interaction` points into the victim's
/// `local` set, which only the victim's local phase changes.
struct StolenLocal {
  const EnabledInteraction* interaction = nullptr;
  int victim = 0;
  int thief = 0;
};

}  // namespace

ShardedEngine::ShardedEngine(const System& system, Partition partition)
    : sharded_(system, std::move(partition)) {
  for (std::size_t s = 0; s < sharded_.shardCount(); ++s) {
    localCaches_.emplace_back(system, sharded_.shard(s).localConnectors);
    crossCaches_.emplace_back(system, sharded_.shard(s).ownedCross);
  }
}

ShardedEngine::ShardedEngine(const System& system, std::size_t shards)
    : ShardedEngine(system, partitionSystem(system, PartitionOptions{shards, 1.125, {}})) {}

RunResult ShardedEngine::run(const EngineOptions& options) {
  ShardedOptions full = defaults_;
  static_cast<EngineOptions&>(full) = options;
  return run(full);
}

RunResult ShardedEngine::run(const ShardedOptions& options) {
  require(options.epochBatch >= 1, "ShardedEngine: epochBatch must be >= 1");
  require(options.rebalanceInterval >= 1, "ShardedEngine: rebalanceInterval must be >= 1");
  const auto wall0 = std::chrono::steady_clock::now();
  ShardedSystem& ss = sharded_;
  const System& system = ss.system();
  const std::size_t K = ss.shardCount();
  // Compilation may have been toggled on after construction; re-warm every
  // lazy index and program now, while still single-threaded (mirrors the
  // other engines), and assert the warm-up actually happened — under TSan
  // a missed build would otherwise surface only as a data race between
  // workers.
  system.warmIndices();
  require(system.indicesWarm(), "ShardedEngine: indices must be warm before workers start");

  // One state for every shard. The parallel local phases write disjoint
  // components, each shard its own members. Everything that reads or
  // writes another shard's members (plan, cross and stolen executions)
  // runs in the epoch barrier's completion, while every worker waits.
  GlobalState state = initialState(system);

  // Adaptive-scheduling switches. K=1 degenerates to the sequential loop,
  // and the bit-identity guarantee of that configuration must survive, so
  // the adaptive layer disarms itself entirely.
  const bool adaptive = K > 1;
  const bool rebalanceOn = adaptive && options.rebalance;
  const bool stealOn = adaptive && options.workStealing;

  stats_ = ShardedStats{};
  stats_.shards.resize(K);
  g_runs.add();
  // Wall-clock timing (phase spans, barrier wait) is read only when
  // someone can observe it: the obs runtime toggle is on or a trace sink
  // is installed. Sampled once per run; epoch-grained, so the cost when
  // active is a few clock reads per shard and epoch.
#if defined(CBIP_NO_OBS)
  obs::TraceLog* const sink = nullptr;
  const bool timed = false;
#else
  obs::TraceLog* const sink = obs::traceSink();
  const bool timed = obs::enabled() || sink != nullptr;
#endif

  std::vector<std::unique_ptr<Worker>> workers;
  workers.reserve(K);
  for (std::size_t s = 0; s < K; ++s) {
    auto w = std::make_unique<Worker>();
    w->local = &localCaches_[s];
    w->cross = &crossCaches_[s];
    w->policy = options.policyFactory ? options.policyFactory(s)
                                      : std::make_unique<RandomPolicy>(
                                            shardSeed(options.seed, s));
    workers.push_back(std::move(w));
  }

  // ---- shared epoch state (written in the barrier's completion) ----
  const GlobalState placeholder;  // handed to policies; see ShardedOptions
  std::uint64_t epoch = 0;
  std::uint64_t executedTotal = 0;
  bool bootstrap = true;
  bool stop = false;
  StopReason reason = StopReason::kStepLimit;
  std::vector<AcceptedCross> accepted;
  std::vector<StolenLocal> stolen;
  // Plan-resolution scratch, reused every epoch.
  std::vector<std::pair<const EnabledInteraction*, int>> candidates;
  std::vector<std::size_t> cursor;
  std::vector<std::uint64_t> localQuota(K, 0);
  std::vector<char> instanceUsed(system.instanceCount(), 0);
  // Rebalancer load window (epoch-grained, maintained in the barrier's
  // completion): per-shard executed steps and per-instance activity. The
  // activity vector is shared, but a local phase writes only its own
  // shard's cells, and the barrier orders it against the completion's
  // cross executions — no data race.
  std::vector<std::uint64_t> windowLoad(K, 0);
  std::vector<std::uint32_t> activity(rebalanceOn ? system.instanceCount() : 0, 0);
  std::uint64_t windowEpochs = 0;
  // Rebalancer scratch, reused every window: the flood-fill marks (reset
  // sparsely), the active groups of the overloaded shard (the first
  // `groupCount` entries; their member vectors keep their capacity), the
  // predicted loads and the moves.
  struct Group {
    std::uint64_t activity = 0;
    std::vector<int> members;
  };
  std::vector<char> seen(rebalanceOn ? system.instanceCount() : 0, 0);
  std::vector<Group> groups;
  std::vector<int> frontier;
  std::vector<double> predicted;
  std::vector<ShardedSystem::Move> moves;
  bool migrated = false;  // set after a migration; the next plan checks the caches
  // Scratch: every shard's dirty log of the last epoch, for the plan.
  std::vector<int> planDirty;
  std::exception_ptr coordinateError;  // raised in the barrier's completion

  // Load-window activity bump for one executed instance (rebalanceOn
  // only). The zero-crossing goes to the executing shard's sparse reset
  // list; see the race note at `activity`.
  const auto bumpActivity = [&](Worker& w, int inst) {
    std::uint32_t& cell = activity[static_cast<std::size_t>(inst)];
    if (cell == 0) w.activityTouched.push_back(inst);
    ++cell;
  };

  // Plan resolution, after every shard's plan.
  const auto resolvePlan = [&] {
    accepted.clear();
    stolen.clear();
    std::fill(localQuota.begin(), localQuota.end(), 0);
    const std::uint64_t remaining = options.maxSteps - executedTotal;
    // Deterministic conflict resolution over all published cross-shard
    // candidates: connector order, greedy instance-disjoint.
    candidates.clear();
    for (std::size_t s = 0; s < K; ++s) {
      for (const EnabledInteraction* ei : workers[s]->crossCandidates) {
        candidates.push_back({ei, ss.crossIndexOf(ei->connector)});
      }
    }
    std::sort(candidates.begin(), candidates.end(), [](const auto& a, const auto& b) {
      return a.first->connector < b.first->connector;
    });
    std::fill(instanceUsed.begin(), instanceUsed.end(), 0);
    stats_.crossCandidates += candidates.size();
    for (const auto& [ei, xi] : candidates) {
      if (accepted.size() >= remaining) break;
      const std::vector<int>& footprint = ss.connectorInstances(ei->connector);
      bool clash = false;
      for (int inst : footprint) {
        if (instanceUsed[static_cast<std::size_t>(inst)] != 0) {
          clash = true;
          break;
        }
      }
      if (clash) {
        ++stats_.crossConflicts;
        continue;
      }
      for (int inst : footprint) instanceUsed[static_cast<std::size_t>(inst)] = 1;
      accepted.push_back(AcceptedCross{ei, xi});
    }
    stats_.crossAccepted += accepted.size();
    // Local step quotas: rotate the deal across shards that reported
    // enabled local work so no shard starves under a tight budget.
    std::uint64_t budget = remaining - accepted.size();
    bool progress = true;
    while (budget > 0 && progress) {
      progress = false;
      for (std::size_t i = 0; i < K && budget > 0; ++i) {
        const std::size_t s = (epoch + i) % K;
        if (workers[s]->localEnabledCount == 0) continue;
        if (localQuota[s] >= options.epochBatch) continue;
        ++localQuota[s];
        --budget;
        progress = true;
      }
    }
    // Work stealing: hand shards with no enabled local work a segment of
    // an overloaded shard's published surplus, footprint-disjoint against
    // the accepted crosses and each other (instanceUsed covers both), to
    // execute in the cross work. Pure function of the plan data —
    // deterministic, and every stolen interaction commutes with the rest
    // of the epoch, so the serialized trace stays a valid sequential
    // schedule.
    if (stealOn && budget > 0) {
      cursor.assign(K, 0);
      for (std::size_t thief = 0; thief < K && budget > 0; ++thief) {
        if (workers[thief]->localEnabledCount != 0) continue;
        // Victim: the shard with the most enabled local work whose
        // published segment is not exhausted (lowest id on ties).
        std::size_t victim = K;
        for (std::size_t v = 0; v < K; ++v) {
          if (v == thief || cursor[v] >= workers[v]->stealable) continue;
          if (victim == K ||
              workers[v]->localEnabledCount > workers[victim]->localEnabledCount) {
            victim = v;
          }
        }
        if (victim == K) continue;
        std::uint64_t grabbed = 0;
        while (grabbed < options.epochBatch && budget > 0 &&
               cursor[victim] < workers[victim]->stealable) {
          const EnabledInteraction& ei = workers[victim]->local->enabled()[cursor[victim]++];
          const std::vector<int>& footprint = ss.connectorInstances(ei.connector);
          bool clash = false;
          for (int inst : footprint) {
            if (instanceUsed[static_cast<std::size_t>(inst)] != 0) {
              clash = true;
              break;
            }
          }
          if (clash) continue;
          for (int inst : footprint) instanceUsed[static_cast<std::size_t>(inst)] = 1;
          stolen.push_back(
              StolenLocal{&ei, static_cast<int>(victim), static_cast<int>(thief)});
          ++grabbed;
          --budget;
        }
      }
    }
  };

  // Epoch bookkeeping, first in the barrier's completion. The bootstrap
  // barrier closes no epoch; it only decides whether the first one runs.
  const auto closeEpoch = [&] {
    const bool failed = std::any_of(workers.begin(), workers.end(),
                                    [](const auto& w) { return w->error != nullptr; });
    if (bootstrap) {
      bootstrap = false;
      stop = failed || options.maxSteps == 0;
      return;
    }
    migrated = false;  // consumed by the plan phase that just ran
    std::uint64_t epochExec = accepted.size();
    for (const auto& w : workers) epochExec += w->localExecuted + w->stolenExecuted;
    executedTotal += epochExec;
    // Per-shard load accounting.
    ++stats_.epochs;
    bool anyIdle = false;
    for (std::size_t s = 0; s < K; ++s) {
      const Worker& w = *workers[s];
      ShardedStats::Shard& sh = stats_.shards[s];
      sh.localSteps += w.localExecuted;
      sh.crossSteps += w.crossExecuted;
      sh.stolenSteps += w.stolenExecuted;
      sh.steps += w.localExecuted + w.crossExecuted + w.stolenExecuted;
      sh.quotaGranted += localQuota[s];
      sh.quotaUnused += localQuota[s] - w.localExecuted;
      stats_.stealEvents += w.stolenExecuted;
      if (epochExec > 0 && w.localExecuted + w.crossExecuted + w.stolenExecuted == 0) {
        ++sh.idleEpochs;
        anyIdle = true;
      }
    }
    if (anyIdle) ++stats_.stalledEpochs;
    if (failed) {
      stop = true;
    } else if (executedTotal >= options.maxSteps) {
      reason = StopReason::kStepLimit;
      stop = true;
    } else if (epochExec == 0) {
      reason = StopReason::kDeadlock;
      stop = true;
    }
    ++epoch;
    if (!rebalanceOn || stop) return;
    // ---- online rebalancer ----
    // Window load: what each shard executed, with stolen work credited to
    // the *victim* — stealing moves the computation, migration should
    // still see where the demand lives.
    for (std::size_t s = 0; s < K; ++s) {
      windowLoad[s] += workers[s]->localExecuted + workers[s]->crossExecuted;
    }
    for (const StolenLocal& st : stolen) ++windowLoad[static_cast<std::size_t>(st.victim)];
    if (++windowEpochs < options.rebalanceInterval) return;
    windowEpochs = 0;
    std::uint64_t total = 0;
    std::size_t maxShard = 0;
    for (std::size_t s = 0; s < K; ++s) {
      total += windowLoad[s];
      if (windowLoad[s] > windowLoad[maxShard]) maxShard = s;
    }
    const double avg = static_cast<double>(total) / static_cast<double>(K);
    // Persistent-skew trigger. Inputs are executed-step counts only —
    // never wall clocks — so the decision (and hence the whole run) is
    // deterministic for a fixed seed.
    if (total > 0 && ss.shard(maxShard).members.size() > 1 &&
        static_cast<double>(windowLoad[maxShard]) > options.rebalanceTolerance * avg) {
      // Active connected groups within the overloaded shard (flood fill
      // over connector footprints restricted to its members). Whole
      // groups migrate together: splitting one would turn its connectors
      // cross-shard and serialize them on the epoch scheduler — worse
      // than the skew being fixed.
      std::size_t groupCount = 0;
      for (int start : ss.shard(maxShard).members) {
        if (seen[static_cast<std::size_t>(start)] != 0 ||
            activity[static_cast<std::size_t>(start)] == 0) {
          continue;
        }
        if (groupCount == groups.size()) groups.emplace_back();
        Group& g = groups[groupCount++];
        g.activity = 0;
        g.members.clear();
        frontier.assign(1, start);
        seen[static_cast<std::size_t>(start)] = 1;
        while (!frontier.empty()) {
          const int cur = frontier.back();
          frontier.pop_back();
          g.activity += activity[static_cast<std::size_t>(cur)];
          g.members.push_back(cur);
          for (int ci : system.connectorsOf(static_cast<std::size_t>(cur))) {
            for (int nb : ss.connectorInstances(ci)) {
              if (ss.shardOf(nb) != static_cast<int>(maxShard) ||
                  seen[static_cast<std::size_t>(nb)] != 0) {
                continue;
              }
              seen[static_cast<std::size_t>(nb)] = 1;
              frontier.push_back(nb);
            }
          }
        }
        std::sort(g.members.begin(), g.members.end());
      }
      const auto active = std::span(groups).first(groupCount);
      for (const Group& g : active) {
        for (int inst : g.members) seen[static_cast<std::size_t>(inst)] = 0;
      }
      std::sort(active.begin(), active.end(), [](const Group& a, const Group& b) {
        return std::tie(b.activity, a.members.front()) <
               std::tie(a.activity, b.members.front());
      });
      // Shed whole groups to the predicted-least-loaded shards until the
      // source drops to the average, capped so a single window cannot
      // evacuate the shard.
      predicted.assign(windowLoad.begin(), windowLoad.end());
      const std::size_t maxMoves =
          std::max<std::size_t>(1, ss.shard(maxShard).members.size() / 4);
      moves.clear();
      for (const Group& g : active) {
        if (predicted[maxShard] <= avg) break;
        if (!moves.empty() && moves.size() + g.members.size() > maxMoves) break;
        // A group spanning most of the shard cannot be rebalanced by
        // moving (relabeling the hotspot helps nobody).
        if (g.members.size() * 2 > ss.shard(maxShard).members.size()) continue;
        std::size_t dest = maxShard;
        for (std::size_t s = 0; s < K; ++s) {
          if (s != maxShard && (dest == maxShard || predicted[s] < predicted[dest])) dest = s;
        }
        if (dest == maxShard ||
            predicted[dest] + static_cast<double>(g.activity) >= predicted[maxShard]) {
          break;
        }
        for (int inst : g.members) {
          moves.push_back(ShardedSystem::Move{inst, static_cast<int>(dest)});
        }
        predicted[dest] += static_cast<double>(g.activity);
        predicted[maxShard] -= static_cast<double>(g.activity);
      }
      if (!moves.empty()) {
        ss.migrate(moves);
        ++stats_.rebalanceDecisions;
        stats_.componentsMoved += moves.size();
        stats_.shards[maxShard].migratedOut += moves.size();
        for (const ShardedSystem::Move& mv : moves) {
          ++stats_.shards[static_cast<std::size_t>(mv.toShard)].migratedIn;
        }
        // The connector lists changed: the next plan phase rebuilds the
        // caches whose list differs.
        migrated = true;
      }
    }
    // Close the window (sparse activity reset; see activityTouched).
    std::fill(windowLoad.begin(), windowLoad.end(), 0);
    for (const auto& w : workers) {
      for (int inst : w->activityTouched) activity[static_cast<std::size_t>(inst)] = 0;
      w->activityTouched.clear();
    }
  };

  const auto planPhase = [&](std::size_t s) {
    Worker& w = *workers[s];
    const ShardedSystem::Shard& shard = ss.shard(s);
    EnabledInteractionCache& local = *w.local;
    EnabledInteractionCache& cross = *w.cross;
    // A run starts from the initial state, so both caches are reset. Only
    // a migration changes a connector list; a cache whose list changed is
    // rebuilt over the new one, and one whose list did not is still exact.
    bool resetLocal = epoch == 0;
    bool resetCross = epoch == 0;
    if (epoch == 0 || migrated) {
      if (local.connectors() != shard.localConnectors) {
        local = EnabledInteractionCache(system, shard.localConnectors);
        resetLocal = true;
      }
      if (cross.connectors() != shard.ownedCross) {
        cross = EnabledInteractionCache(system, shard.ownedCross);
        resetCross = true;
      }
    }
    if (resetLocal) local.reset(state);
    if (resetCross) {
      cross.reset(state);
    } else {
      // Refresh the owned cross connectors from every shard's dirty log of
      // the last epoch; the cache drops the instances on none of them.
      // (The local cache never needs this pass: only cross executions and
      // this shard's own local executions can dirty it, and both update
      // it within the epoch.)
      cross.update(state, planDirty);
    }
    // One candidate per enabled cross connector. Its footprint is all its
    // instances whatever the mask, so at most one of its interactions can
    // be accepted: where several are enabled (a broadcast), the owner's
    // policy picks which, as the sequential engine's would.
    w.crossCandidates.clear();
    for (std::size_t i = 0; i < shard.ownedCross.size(); ++i) {
      const std::span<const EnabledInteraction> list = cross.span(i);
      if (list.empty()) continue;
      std::size_t pick = 0;
      if (list.size() > 1) {
        pick = w.policy->pick(system, placeholder, list).first;
        require(pick < list.size(), "SchedulingPolicy returned out-of-range interaction");
      }
      w.crossCandidates.push_back(&list[pick]);
    }
    w.localEnabledCount = local.enabled().size();
    // Offer a bounded surplus segment for work stealing when this shard
    // has more enabled local work than one epoch's quota can drain. The
    // segment is a deterministic prefix (connector-list order) of the
    // enabled set; the resolver hands footprint-disjoint entries to idle
    // shards.
    w.stealable = stealOn && w.localEnabledCount > options.epochBatch
                      ? std::min<std::size_t>(2 * options.epochBatch, w.localEnabledCount)
                      : 0;
  };

  // Executes one interaction of the cross work for shard `w`: the accepted
  // crosses it owns and the interactions it steals. The choice comes from
  // `w`'s policy; the instances go to `w`'s dirty log and to their own
  // shard's cross-dirty queue.
  const auto fireCross = [&](Worker& w, const EnabledInteraction& ei) {
    const auto [pick, choice] = w.policy->pick(system, placeholder, std::span(&ei, 1));
    require(pick == 0, "SchedulingPolicy returned out-of-range interaction");
    execute(system, state, ei, choice);
    for (int inst : ss.connectorInstances(ei.connector)) {
      w.dirtyLog.push_back(inst);
      workers[static_cast<std::size_t>(ss.shardOf(inst))]->crossDirty.push_back(inst);
      if (rebalanceOn) bumpActivity(w, inst);
    }
  };

  // Shard `s`'s cross work: its accepted crosses in accepted order, then
  // its stolen interactions in assignment order. Events serialize the
  // stolen ones after every accepted cross (seq offset).
  const auto crossPhase = [&](std::size_t s) {
    Worker& w = *workers[s];
    w.localExecuted = 0;
    w.crossExecuted = 0;
    w.stolenExecuted = 0;
    for (std::size_t idx = 0; idx < accepted.size(); ++idx) {
      const AcceptedCross& entry = accepted[idx];
      if (ss.crossConnectors()[static_cast<std::size_t>(entry.crossIndex)].owner !=
          static_cast<int>(s)) {
        continue;
      }
      const EnabledInteraction& ei = *entry.interaction;
      fireCross(w, ei);
      ++w.crossExecuted;
      if (options.recordTrace) {
        w.events.push_back(Event{epoch, 0, 0, idx, ei.connector, ei.mask});
      }
    }
    for (std::size_t j = 0; j < stolen.size(); ++j) {
      if (stolen[j].thief != static_cast<int>(s)) continue;
      const EnabledInteraction& ei = *stolen[j].interaction;
      fireCross(w, ei);
      ++w.stolenExecuted;
      if (options.recordTrace) {
        w.events.push_back(Event{epoch, 0, 0, accepted.size() + j, ei.connector, ei.mask});
      }
    }
  };

  const auto localPhase = [&](std::size_t s) {
    Worker& w = *workers[s];
    EnabledInteractionCache& local = *w.local;
    // Refresh local connectors dirtied by this epoch's cross work.
    if (!w.crossDirty.empty()) {
      local.update(state, w.crossDirty);
      w.crossDirty.clear();
    }
    // Shard-local run loop: the sequential engine's step loop confined to
    // this shard's members.
    const std::uint64_t quota = localQuota[s];
    while (w.localExecuted < quota) {
      const std::vector<EnabledInteraction>& enabled = local.enabled();
      if (enabled.empty()) break;
      const auto [idx, choice] = w.policy->pick(system, placeholder, enabled);
      require(idx < enabled.size(), "SchedulingPolicy returned out-of-range interaction");
      // `ei` points into the local set, so the cache update comes last.
      const EnabledInteraction& ei = enabled[idx];
      execute(system, state, ei, choice);
      if (options.recordTrace) {
        w.events.push_back(
            Event{epoch, 1, static_cast<int>(s), w.localExecuted, ei.connector, ei.mask});
      }
      ++w.localExecuted;
      // Cross connectors read foreign members, so they are refreshed only
      // in the next plan, through the dirty log.
      for (int inst : ss.connectorInstances(ei.connector)) {
        w.dirtyLog.push_back(inst);
        if (rebalanceOn) bumpActivity(w, inst);
      }
      local.updateAfterExecute(state, ei);
    }
  };

  // Phase bracket: accumulates the phase's wall time into shard `s`'s
  // `acc` and, with a sink installed, emits one complete-span on that
  // shard's track — the epoch timeline chrome://tracing renders.
  const auto bracket = [&](const char* name, std::size_t s, std::uint64_t Worker::* acc,
                           auto&& body) {
    if (!timed) {
      body();
      return;
    }
    const std::uint64_t t0 = obs::nowNanos();
    body();
    const std::uint64_t t1 = obs::nowNanos();
    workers[s].get()->*acc += t1 - t0;
    if (sink != nullptr) sink->complete(name, "epoch", static_cast<int>(s), t0, t1);
  };

  // The epoch barrier's completion: the serial part of every epoch, on
  // one thread while every worker waits. It closes the epoch that ended,
  // then plans every shard in shard order, resolves the plan and runs
  // every shard's cross work in shard order. Each policy sees its picks
  // in the order a worker of its own would make them: plan, cross work,
  // then (after the barrier) local steps.
  const auto coordinate = [&]() noexcept {
    const std::uint64_t t0 = timed ? obs::nowNanos() : 0;
    try {
      closeEpoch();
      if (!stop) {
        planDirty.clear();
        for (const auto& w : workers) {
          planDirty.insert(planDirty.end(), w->dirtyLog.begin(), w->dirtyLog.end());
          w->dirtyLog.clear();
        }
        for (std::size_t s = 0; s < K; ++s) {
          bracket("plan", s, &Worker::planNs, [&] { planPhase(s); });
        }
        resolvePlan();
        for (std::size_t s = 0; s < K; ++s) {
          bracket("cross", s, &Worker::crossNs, [&] { crossPhase(s); });
        }
      }
    } catch (...) {
      coordinateError = std::current_exception();
      stop = true;
    }
    if (timed) t_coordinateNs = obs::nowNanos() - t0;
  };
  std::barrier epochBarrier(static_cast<std::ptrdiff_t>(K), coordinate);

  // One worker: bootstrap, then the local phase of every epoch. Errors
  // stay with the worker; the next completion stops the run.
  const auto work = [&](std::size_t s) {
    Worker& w = *workers[s];
    if (sink != nullptr) sink->setThreadName(static_cast<int>(s), "shard " + std::to_string(s));
    const auto guarded = [&](auto&& phase) {
      try {
        phase();
      } catch (...) {
        w.error = std::current_exception();
      }
    };
    const auto wait = [&] {
      const std::uint64_t t0 = timed ? obs::nowNanos() : 0;
      epochBarrier.arrive_and_wait();
      if (timed) w.idleNs += obs::nowNanos() - t0 - std::exchange(t_coordinateNs, 0);
    };
    // Bootstrap: settle initial tau steps of this shard's members so
    // offers reflect stable states (mirrors SequentialEngine).
    guarded([&] {
      for (int inst : ss.shard(s).members) {
        const auto i = static_cast<std::size_t>(inst);
        runInternal(*system.instance(i).type, state.components[i]);
      }
    });
    wait();
    while (!stop) {
      bracket("local", s, &Worker::localNs, [&] { guarded([&] { localPhase(s); }); });
      wait();
    }
  };

  {
    // Shard 0 works on the calling thread.
    std::vector<std::jthread> threads;
    threads.reserve(K - 1);
    for (std::size_t s = 1; s < K; ++s) threads.emplace_back(work, s);
    work(0);
  }  // join

  if (coordinateError) std::rethrow_exception(coordinateError);
  for (const auto& w : workers) {
    if (w->error) std::rethrow_exception(w->error);
  }

  // Fold the timing accumulators into the run stats, then flush
  // everything to the telemetry registry (no-op when disabled).
  for (std::size_t s = 0; s < K; ++s) {
    ShardedStats::Shard& sh = stats_.shards[s];
    sh.planNs = workers[s]->planNs;
    sh.crossNs = workers[s]->crossNs;
    sh.localNs = workers[s]->localNs;
    sh.idleNs = workers[s]->idleNs;
  }
  stats_.steps = executedTotal;
  stats_.scanRounds = stats_.epochs;
  stats_.wallNs = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                           wall0)
          .count());
  g_steps.add(executedTotal);
  g_epochs.add(stats_.epochs);
  g_stalled.add(stats_.stalledEpochs);
  g_crossCandidates.add(stats_.crossCandidates);
  g_crossAccepted.add(stats_.crossAccepted);
  g_crossConflicts.add(stats_.crossConflicts);
  g_rebalanceDecisions.add(stats_.rebalanceDecisions);
  g_rebalanceMoved.add(stats_.componentsMoved);
  g_stealEvents.add(stats_.stealEvents);
  if (obs::enabled()) {
    for (std::size_t s = 0; s < K; ++s) {
      const ShardedStats::Shard& sh = stats_.shards[s];
      const std::string p = "shard." + std::to_string(s) + ".";
      obs::Counter(p + "steps").add(sh.steps);
      obs::Counter(p + "local_steps").add(sh.localSteps);
      obs::Counter(p + "cross_steps").add(sh.crossSteps);
      obs::Counter(p + "stolen_steps").add(sh.stolenSteps);
      obs::Counter(p + "migrated_in").add(sh.migratedIn);
      obs::Counter(p + "migrated_out").add(sh.migratedOut);
      obs::Counter(p + "idle_epochs").add(sh.idleEpochs);
      obs::Counter(p + "quota_unused").add(sh.quotaUnused);
      obs::Counter(p + "plan_ns").add(sh.planNs);
      obs::Counter(p + "cross_ns").add(sh.crossNs);
      obs::Counter(p + "local_ns").add(sh.localNs);
      obs::Counter(p + "idle_ns").add(sh.idleNs);
      obs::Counter(p + "lock_wait_ns").add(sh.lockWaitNs);
    }
  }

  RunResult result;
  result.reason = options.maxSteps == 0 ? StopReason::kStepLimit : reason;
  result.steps = executedTotal;
  result.finalState = std::move(state);
  if (options.recordTrace) {
    std::vector<Event> all;
    for (const auto& w : workers) {
      all.insert(all.end(), w->events.begin(), w->events.end());
    }
    std::sort(all.begin(), all.end(), eventBefore);
    result.trace.events.reserve(all.size());
    for (std::size_t i = 0; i < all.size(); ++i) {
      result.trace.events.push_back(labels_.event(system, i, all[i].connector, all[i].mask));
    }
  }
  return result;
}

}  // namespace cbip::shard
