// Tests for the sharded execution subsystem: partitioner quality, and the
// differential discipline of shard/engine_sharded.hpp — every sharded
// trace is a schedule SequentialEngine itself can reproduce, and a
// one-shard run is bit-identical to SequentialEngine.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "compile_switch.hpp"
#include "engine/engine.hpp"
#include "engine/engine_mt.hpp"
#include "models/models.hpp"
#include "shard/engine_sharded.hpp"
#include "trace_hash.hpp"
#include "util/require.hpp"
#include "verify/dfinder.hpp"

namespace cbip {
namespace {

using shard::Partition;
using shard::PartitionOptions;
using shard::PartitionQuality;
using shard::ShardedEngine;
using shard::ShardedOptions;

/// Drives SequentialEngine along a recorded trace: at every step it picks
/// the enabled interaction matching the next recorded (connector, mask).
/// The models used here resolve to exactly one enabled transition per
/// participant, so the choice vector is canonical.
class ReplayPolicy final : public SchedulingPolicy {
 public:
  explicit ReplayPolicy(const Trace& trace) : trace_(&trace) {}

  std::pair<std::size_t, std::span<const int>> pick(
      const System&, const GlobalState&, std::span<const EnabledInteraction> enabled) override {
    const TraceEvent& e = trace_->events.at(next_);
    ++next_;
    for (std::size_t i = 0; i < enabled.size(); ++i) {
      if (enabled[i].connector == e.connector && enabled[i].mask == e.mask) {
        for (const std::vector<int>& options : enabled[i].choices) {
          EXPECT_EQ(options.size(), 1u)
              << "replay requires a unique transition choice per participant";
        }
        choice_.assign(enabled[i].choices.size(), 0);
        return {i, choice_};
      }
    }
    ADD_FAILURE() << "trace event #" << (next_ - 1) << " (" << e.label
                  << ") is not enabled at its replay point";
    throw std::runtime_error("trace replay failed");
  }

 private:
  const Trace* trace_;
  std::size_t next_ = 0;
  std::vector<int> choice_;
};

/// Asserts that `sharded` (trace + final state) is reproducible by
/// SequentialEngine scheduling the very same interactions in order.
void expectSequentiallyReplayable(const System& sys, const RunResult& sharded) {
  ReplayPolicy replay(sharded.trace);
  SequentialEngine seq(sys, replay);
  RunOptions opt;
  opt.maxSteps = sharded.trace.events.size();
  const RunResult r = seq.run(opt);
  EXPECT_EQ(r.trace.labels(), sharded.trace.labels());
  EXPECT_EQ(r.finalState, sharded.finalState);
  EXPECT_EQ(r.steps, sharded.steps);
}

/// Replays a trace on the bare reference semantics, optionally checking
/// an invariant after every step. Returns the reached state.
GlobalState replayOnReference(const System& sys, const Trace& trace,
                              const std::function<void(const GlobalState&)>& check = {}) {
  GlobalState g = initialState(sys);
  for (const TraceEvent& e : trace.events) {
    bool found = false;
    for (const EnabledInteraction& ei : enabledInteractions(sys, g)) {
      if (ei.connector == e.connector && ei.mask == e.mask) {
        executeDefault(sys, g, ei);
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << "event " << e.label << " not replayable";
    if (!found) break;
    if (check) check(g);
  }
  return g;
}

/// Token ring with real connector data machinery: the token's value rides
/// an up into a connector variable (incremented), then a down into the
/// receiver, behind a non-trivial connector guard. Exactly one
/// interaction is enabled at any time, so every engine must produce the
/// identical trace and token value — a sharp differential check on the
/// cross-shard gather/transfer path.
System transferRing(int n) {
  System sys;
  auto makeCell = [](const std::string& name, bool holder) {
    auto t = std::make_shared<AtomicType>("Cell" + name);
    const int idle = t->addLocation("idle");
    const int have = t->addLocation("have");
    const int v = t->addVariable("v", holder ? 1 : 0);
    t->addPort("recv", {v});
    t->addPort("send", {v});
    t->addTransition(idle, t->portIndex("recv"), have);
    t->addTransition(have, t->portIndex("send"), idle);
    t->setInitialLocation(holder ? have : idle);
    return t;
  };
  auto holder = makeCell("H", true);
  auto cell = makeCell("N", false);
  for (int i = 0; i < n; ++i) {
    sys.addInstance("c" + std::to_string(i), i == 0 ? holder : cell);
  }
  for (int i = 0; i < n; ++i) {
    Connector c("pass" + std::to_string(i));
    const int eS = c.addSynchron(PortRef{i, holder->portIndex("send")});
    const int eR = c.addSynchron(PortRef{(i + 1) % n, holder->portIndex("recv")});
    const int t = c.addVariable("t");
    c.setGuard(Expr::var(eS, 0) > Expr::lit(0));
    c.addUp(t, Expr::var(eS, 0) + Expr::lit(1));
    c.addDown(eR, 0, Expr::var(expr::kConnectorScope, t));
    sys.addConnector(std::move(c));
  }
  sys.validate();
  return sys;
}

// ---- partitioner ----

TEST(Partition, BalancedRingWithSmallCut) {
  const System sys = models::philosophersAtomic(16);  // 32 instances in a ring
  const Partition p = shard::partitionSystem(sys, PartitionOptions{4, 1.125, {}});
  ASSERT_EQ(p.shardCount(), 4u);
  const PartitionQuality q = shard::partitionQuality(sys, p);
  EXPECT_GE(q.minLoad, 4u);
  EXPECT_LE(q.maxLoad, 12u);
  EXPECT_GT(q.edgeCut, 0u);  // a ring always cuts somewhere
  // A contiguous 4-way split of the ring coordinates far fewer than half
  // of the connectors.
  EXPECT_LE(q.crossConnectors, sys.connectorCount() / 2);
  // Deterministic.
  const Partition p2 = shard::partitionSystem(sys, PartitionOptions{4, 1.125, {}});
  EXPECT_EQ(p.assignment(), p2.assignment());
}

TEST(Partition, PinningWins) {
  const System sys = models::tokenRing(8);
  PartitionOptions opt;
  opt.shards = 4;
  opt.pins = {{0, 3}, {1, 3}};
  const Partition p = shard::partitionSystem(sys, opt);
  EXPECT_EQ(p.shardOf(0), 3);
  EXPECT_EQ(p.shardOf(1), 3);
}

TEST(Partition, ShardCountClampedToInstances) {
  const System sys = models::producerConsumer(2);  // 3 instances
  const Partition p = shard::partitionSystem(sys, PartitionOptions{16, 1.125, {}});
  EXPECT_EQ(p.shardCount(), 3u);
  const PartitionQuality q = shard::partitionQuality(sys, p);
  EXPECT_EQ(q.minLoad, 1u);
  EXPECT_EQ(q.maxLoad, 1u);
}

TEST(Partition, SingleShardHasNoCut) {
  const System sys = models::philosophersAtomic(4);
  const Partition p = shard::partitionSystem(sys, PartitionOptions{1, 1.125, {}});
  const PartitionQuality q = shard::partitionQuality(sys, p);
  EXPECT_EQ(q.edgeCut, 0u);
  EXPECT_EQ(q.crossConnectors, 0u);
}

// ---- sharded engine: differential suite ----

TEST(ShardedEngine, OneShardBitIdenticalToSequential) {
  const System systems[] = {models::philosophersAtomic(6), models::tokenRing(6),
                            models::producerConsumer(3)};
  for (const System& sys : systems) {
    for (const std::uint64_t seed : {7ULL, 99ULL}) {
      RandomPolicy policy(seed);
      SequentialEngine seq(sys, policy);
      RunOptions so;
      so.maxSteps = 300;
      const RunResult rs = seq.run(so);

      ShardedEngine engine(sys, 1);
      ShardedOptions opt;
      opt.maxSteps = 300;
      opt.seed = seed;
      const RunResult rh = engine.run(opt);

      EXPECT_EQ(rh.trace.labels(), rs.trace.labels());
      EXPECT_EQ(rh.finalState, rs.finalState);
      EXPECT_EQ(rh.steps, rs.steps);
      EXPECT_EQ(rh.reason, rs.reason);
    }
  }
}

TEST(ShardedEngine, TracesAreSequentialSchedules) {
  const System systems[] = {models::philosophersAtomic(8), models::tokenRing(8),
                            models::producerConsumer(3)};
  for (const System& sys : systems) {
    for (const std::size_t k : {1u, 2u, 4u}) {
      ShardedEngine engine(sys, k);
      ShardedOptions opt;
      opt.maxSteps = 250;
      opt.seed = 42;
      const RunResult r = engine.run(opt);
      EXPECT_EQ(r.trace.events.size(), r.steps);
      expectSequentiallyReplayable(sys, r);
    }
  }
}

TEST(ShardedEngine, CrossShardDataTransfer) {
  // One token, so every engine is forced onto the same trace; the token's
  // value counts the hops through connector up/down transfers — any slip
  // in the foreign-frame slot maps shows up as a wrong value.
  const System sys = transferRing(8);
  for (const std::size_t k : {1u, 2u, 4u}) {
    ShardedEngine engine(sys, k);
    ShardedOptions opt;
    opt.maxSteps = 40;
    opt.seed = 5;
    const RunResult r = engine.run(opt);
    EXPECT_EQ(r.steps, 40u);
    expectSequentiallyReplayable(sys, r);
    // Token made 40 hops: value 1 + 40, sitting at instance 40 % 8 = 0.
    EXPECT_EQ(r.finalState.components[0].vars[0], 41);
  }
}

TEST(ShardedEngine, SeededRunsReproduce) {
  const System sys = models::philosophersAtomic(12);
  const auto runOnce = [&](std::uint64_t seed) {
    ShardedEngine engine(sys, 4);
    ShardedOptions opt;
    opt.maxSteps = 300;
    opt.seed = seed;
    return engine.run(opt);
  };
  const RunResult a = runOnce(11);
  const RunResult b = runOnce(11);
  const RunResult c = runOnce(12);
  EXPECT_EQ(a.trace.labels(), b.trace.labels());
  EXPECT_EQ(a.finalState, b.finalState);
  EXPECT_NE(a.trace.labels(), c.trace.labels());  // overwhelmingly
}

TEST(ShardedEngine, CompiledAndInterpretedTracesIdentical) {
  const System sys = models::producerConsumer(3);
  const auto runWith = [&](bool compiled) {
    const CompileSwitch path(compiled);
    ShardedEngine engine(sys, 2);
    ShardedOptions opt;
    opt.maxSteps = 200;
    opt.seed = 3;
    const RunResult r = engine.run(opt);
    return r;
  };
  const RunResult on = runWith(true);
  const RunResult off = runWith(false);
  EXPECT_EQ(on.trace.labels(), off.trace.labels());
  EXPECT_EQ(on.finalState, off.finalState);
}

TEST(ShardedEngine, FusedAndUnfusedTracesIdentical) {
  // The fused guard+action dispatch (tryFire / fire action blocks / fused
  // connector up blocks) must leave every schedule
  // bit-identical to the interpreter's guard-then-actions ("unfused")
  // evaluation, and each trace must stay replayable through the reference
  // engine. transferRing exercises the fused up blocks; producerConsumer
  // the transition action blocks.
  const System models[] = {transferRing(9), models::producerConsumer(3)};
  for (const System& sys : models) {
    const auto runWith = [&](bool fused) {
      const CompileSwitch path(fused);
      ShardedEngine engine(sys, 3);
      ShardedOptions opt;
      opt.maxSteps = 200;
      opt.seed = 5;
      const RunResult r = engine.run(opt);
      return r;
    };
    const RunResult on = runWith(true);
    const RunResult off = runWith(false);
    EXPECT_EQ(on.trace.labels(), off.trace.labels());
    EXPECT_EQ(on.finalState, off.finalState);
    EXPECT_EQ(on.steps, off.steps);
    expectSequentiallyReplayable(sys, on);
  }
}

TEST(ShardedEngine, BatchedAndScalarScanTracesIdentical) {
  // The compiled offer refresh of the shard workers' caches must leave
  // every schedule bit-identical to the interpreter's, and each trace must
  // stay replayable through the reference engine.
  const System models[] = {models::philosophersAtomic(12), models::producerConsumer(3)};
  for (const System& sys : models) {
    const auto runWith = [&](bool compiled) {
      const CompileSwitch path(compiled);
      ShardedEngine engine(sys, 3);
      ShardedOptions opt;
      opt.maxSteps = 200;
      opt.seed = 7;
      const RunResult r = engine.run(opt);
      return r;
    };
    const RunResult compiled = runWith(true);
    const RunResult interpreted = runWith(false);
    EXPECT_EQ(compiled.trace.labels(), interpreted.trace.labels());
    EXPECT_EQ(compiled.finalState, interpreted.finalState);
    EXPECT_EQ(compiled.steps, interpreted.steps);
    expectSequentiallyReplayable(sys, compiled);
  }
}

TEST(ShardedEngine, ThreadedAndSwitchVmCoresTracesIdentical) {
  // The build's VM core (computed-goto threaded, or the switch loop in a
  // CBIP_FORCE_SWITCH_DISPATCH build) is an execution-core change only:
  // every schedule must stay bit-identical to the interpreter oracle, and
  // each trace must stay replayable through the reference engine. CI runs
  // this on both builds.
  const System models[] = {models::philosophersAtomic(12), models::producerConsumer(3)};
  for (const System& sys : models) {
    const auto runWith = [&](bool compiled) {
      const CompileSwitch path(compiled);
      ShardedEngine engine(sys, 3);
      ShardedOptions opt;
      opt.maxSteps = 200;
      opt.seed = 11;
      const RunResult r = engine.run(opt);
      return r;
    };
    const RunResult on = runWith(true);
    const RunResult off = runWith(false);
    EXPECT_EQ(on.trace.labels(), off.trace.labels());
    EXPECT_EQ(on.finalState, off.finalState);
    EXPECT_EQ(on.steps, off.steps);
    expectSequentiallyReplayable(sys, on);
  }
}

TEST(ShardedEngine, DetectsDeadlock) {
  // Two one-shot components on separate shards: two steps, then nothing.
  System sys;
  auto once = std::make_shared<AtomicType>("Once");
  {
    const int s0 = once->addLocation("s0");
    const int s1 = once->addLocation("s1");
    const int go = once->addPort("go");
    once->addTransition(s0, go, s1);
    once->setInitialLocation(s0);
  }
  sys.addInstance("x", once);
  sys.addInstance("y", once);
  sys.addConnector(rendezvous("goX", {PortRef{0, 0}}));
  sys.addConnector(rendezvous("goY", {PortRef{1, 0}}));
  ShardedEngine engine(sys, 2);
  ShardedOptions opt;
  opt.maxSteps = 10;
  opt.seed = 1;
  const RunResult r = engine.run(opt);
  EXPECT_EQ(r.reason, StopReason::kDeadlock);
  EXPECT_EQ(r.steps, 2u);
}

// Satellite: same seeded RandomPolicy on the three engines over the
// dining-philosophers and mutual-exclusion models. Each engine schedules
// differently, but every trace must be a valid behaviour of the reference
// semantics, and the mutual-exclusion invariant must hold throughout.
TEST(ShardedEngine, SeededCrossEngineEquivalence) {
  const std::uint64_t seed = 42;
  {
    const System sys = models::philosophersAtomic(6);
    RandomPolicy pSeq(seed);
    SequentialEngine seq(sys, pSeq);
    RunOptions so;
    so.maxSteps = 150;
    const RunResult rs = seq.run(so);

    RandomPolicy pMt(seed);
    MultiThreadEngine mt(sys, pMt);
    MtOptions mo;
    mo.maxSteps = 150;
    const RunResult rm = mt.run(mo);

    ShardedEngine sh(sys, 3);
    ShardedOptions ho;
    ho.maxSteps = 150;
    ho.seed = seed;
    const RunResult rh = sh.run(ho);

    for (const RunResult* r : {&rs, &rm, &rh}) {
      EXPECT_EQ(r->steps, 150u);
      replayOnReference(sys, r->trace);
    }
  }
  {
    const System sys = models::tokenRing(6);
    RandomPolicy pSeq(seed);
    SequentialEngine seq(sys, pSeq);
    RunOptions so;
    so.maxSteps = 150;
    const RunResult rs = seq.run(so);

    RandomPolicy pMt(seed);
    MultiThreadEngine mt(sys, pMt);
    MtOptions mo;
    mo.maxSteps = 150;
    const RunResult rm = mt.run(mo);

    ShardedEngine sh(sys, 3);
    ShardedOptions ho;
    ho.maxSteps = 150;
    ho.seed = seed;
    const RunResult rh = sh.run(ho);

    const auto mutexHolds = [&](const GlobalState& g) {
      EXPECT_TRUE(models::tokenRingMutex(sys, g));
    };
    for (const RunResult* r : {&rs, &rm, &rh}) {
      EXPECT_EQ(r->steps, 150u);
      replayOnReference(sys, r->trace, mutexHolds);
    }
  }
}

TEST(ShardedEngine, RejectsPriorities) {
  System sys = models::philosophersAtomic(4);
  sys.addPriority(PriorityRule{"eat0", "eat1", std::nullopt});
  EXPECT_THROW(ShardedEngine(sys, 2), ModelError);
}

TEST(ShardedEngine, RejectsMalformedPartition) {
  const System sys = models::producerConsumer(2);  // 3 instances
  EXPECT_THROW(ShardedEngine(sys, Partition({0, 7, 0}, 2)), ModelError);
  EXPECT_THROW(ShardedEngine(sys, Partition({0, -1, 0}, 2)), ModelError);
}

/// `k` rendezvous pairs of countdown components; every firing computes
/// x := x + 100 / d, then d := d - 1, so a component's fourth firing
/// divides by zero in its action. With `inGuard`, the connector guard
/// 100 / d > 0 over the first end's exported d raises first, when the
/// plan after a pair's third firing refreshes the connector.
System countdownPairs(std::size_t k, bool inGuard) {
  auto t = std::make_shared<AtomicType>("Countdown");
  const int l = t->addLocation("l");
  const int x = t->addVariable("x", 0);
  const int d = t->addVariable("d", 3);
  const int p = t->addPort("p", {d});
  t->addTransition(l, p, Expr::top(),
                   {expr::Assign{expr::VarRef{0, x},
                                 Expr::local(x) + Expr::lit(100) / Expr::local(d)},
                    expr::Assign{expr::VarRef{0, d}, Expr::local(d) - Expr::lit(1)}},
                   l);
  t->setInitialLocation(l);
  System sys;
  for (std::size_t j = 0; j < k; ++j) {
    const int a = sys.addInstance("a" + std::to_string(j), t);
    const int b = sys.addInstance("b" + std::to_string(j), t);
    Connector c("sync" + std::to_string(j));
    c.addSynchron(PortRef{a, p});
    c.addSynchron(PortRef{b, p});
    if (inGuard) c.setGuard(Expr::lit(100) / Expr::var(0, 0) > Expr::lit(0));
    sys.addConnector(std::move(c));
  }
  sys.validate();
  return sys;
}

TEST(ShardedEngine, CoordinatorErrorsSurfaceFromRun) {
  // Pair j joins shard j to shard j+1 (mod k), so every connector is
  // cross-shard: its guard is evaluated in the plan and its action runs
  // in the cross work, both in the epoch barrier's completion. The error
  // must leave run() with its message and no worker left waiting, and the
  // engine must run again like a fresh one.
  for (const bool inGuard : {true, false}) {
    for (const std::size_t k : {2u, 4u}) {
      const System sys = countdownPairs(k, inGuard);
      std::vector<int> shardOf;
      for (std::size_t j = 0; j < k; ++j) {
        shardOf.push_back(static_cast<int>(j));
        shardOf.push_back(static_cast<int>((j + 1) % k));
      }
      for (const bool compiled : {true, false}) {
        SCOPED_TRACE(std::string(inGuard ? "plan" : "cross") + " k=" + std::to_string(k) +
                     (compiled ? " compiled" : " interpreted"));
        const CompileSwitch path(compiled);
        ShardedEngine engine(sys, Partition(shardOf, k));
        ShardedOptions opt;
        opt.maxSteps = 100;
        opt.seed = 5;
        opt.rebalance = false;  // keep every connector cross-shard
        try {
          engine.run(opt);
          ADD_FAILURE() << "expected EvalError from run()";
        } catch (const EvalError& e) {
          EXPECT_STREQ(e.what(), "division by zero");
        }
        // Each epoch fires every pair once; two epochs raise nowhere.
        opt.maxSteps = 2 * k;
        const RunResult again = engine.run(opt);
        ShardedEngine freshEngine(sys, Partition(shardOf, k));
        const RunResult fresh = freshEngine.run(opt);
        EXPECT_EQ(again.steps, 2 * k);
        EXPECT_EQ(again.steps, fresh.steps);
        EXPECT_EQ(traceHash(again.trace), traceHash(fresh.trace));
        EXPECT_EQ(hashState(again.finalState), hashState(fresh.finalState));
      }
    }
  }
}

// ---- online rebalancing + work stealing ----

TEST(Rebalancing, MigratePreservesStateAndEnabledSets) {
  // migrate() only reclassifies: the state is one GlobalState, so the
  // check is that the per-shard caches over the new connector lists
  // together hold exactly the full cache's enabled set, on a mid-run
  // state.
  const System sys = models::philosophersAtomic(8);
  for (const bool compiled : {true, false}) {
    SCOPED_TRACE(compiled ? "compiled" : "interpreted");
    const CompileSwitch path(compiled);
    shard::ShardedSystem ss(sys, shard::partitionSystem(sys, PartitionOptions{2, 1.125, {}}));
    GlobalState g = initialState(sys);
    for (int i = 0; i < 5; ++i) {
      const std::vector<EnabledInteraction> en = enabledInteractions(sys, g);
      ASSERT_FALSE(en.empty());
      executeDefault(sys, g, en.front());
    }

    // Moves chosen to force both reclassifications: the first cross
    // connector becomes fully local to shard 1, and one untouched shard-0
    // local connector gets an end moved away, becoming cross.
    ASSERT_FALSE(ss.crossConnectors().empty());
    const int xc = ss.crossConnectors().front().connector;
    std::vector<shard::ShardedSystem::Move> moves;
    for (int inst : ss.connectorInstances(xc)) {
      if (ss.shardOf(inst) != 1) moves.push_back({inst, 1});
    }
    ASSERT_FALSE(moves.empty());
    int splitCi = -1;
    for (int ci : ss.shard(0).localConnectors) {
      bool touched = false;
      for (int inst : ss.connectorInstances(ci)) {
        for (const auto& m : moves) touched = touched || m.instance == inst;
      }
      if (!touched) {
        splitCi = ci;
        break;
      }
    }
    ASSERT_GE(splitCi, 0);
    moves.push_back({ss.connectorInstances(splitCi).front(), 1});

    ss.migrate(moves);
    EXPECT_EQ(ss.crossIndexOf(xc), -1);      // cross -> local
    EXPECT_GE(ss.crossIndexOf(splitCi), 0);  // local -> cross
    for (const auto& m : moves) {
      EXPECT_EQ(ss.shardOf(m.instance), 1);
      const std::vector<int>& members = ss.shard(1).members;
      EXPECT_TRUE(std::binary_search(members.begin(), members.end(), m.instance));
    }
    // Every connector sits in exactly one list, and the lists' caches
    // together hold the whole enabled set, connector by connector.
    std::vector<int> listed(sys.connectorCount(), 0);
    std::vector<EnabledInteraction> joined;
    for (std::size_t s = 0; s < ss.shardCount(); ++s) {
      for (const std::vector<int>* list :
           {&ss.shard(s).localConnectors, &ss.shard(s).ownedCross}) {
        for (int ci : *list) ++listed[static_cast<std::size_t>(ci)];
        EnabledInteractionCache cache(sys, *list);
        cache.reset(g);
        joined.insert(joined.end(), cache.enabled().begin(), cache.enabled().end());
      }
    }
    EXPECT_EQ(listed, std::vector<int>(sys.connectorCount(), 1));
    std::stable_sort(joined.begin(), joined.end(),
                     [](const EnabledInteraction& a, const EnabledInteraction& b) {
                       return a.connector < b.connector;
                     });
    EXPECT_EQ(joined, enabledInteractions(sys, g));
  }
}

TEST(Rebalancing, RebalancedTracesSequentiallyReplayable) {
  // Skewed pairs: the cold pairs die after 4 steps each, the hot pairs
  // (clustered in shard 0 by the greedy partitioner) run forever — the
  // load window must notice and migrate them apart.
  const System sys = models::skewedPairs(32, 4, 4);
  ShardedEngine engine(sys, 4);
  ShardedOptions opt;
  opt.maxSteps = 600;
  opt.seed = 7;
  opt.rebalanceInterval = 2;
  const RunResult r = engine.run(opt);
  const shard::ShardedStats st = engine.lastRunStats();
  EXPECT_GT(st.rebalanceDecisions, 0u);
  EXPECT_GT(st.componentsMoved, 0u);
  EXPECT_EQ(r.trace.events.size(), r.steps);
  expectSequentiallyReplayable(sys, r);
}

TEST(Rebalancing, WorkStealingAloneIsExactAndReplayable) {
  // Rebalancing off isolates the steal path (this is also the TSan
  // coverage for thief-side execution): the skew persists, so idle shards
  // must keep stealing shard 0's surplus.
  const System sys = models::skewedPairs(24, 6, 2);
  ShardedEngine engine(sys, 3);
  ShardedOptions opt;
  opt.maxSteps = 400;
  opt.seed = 5;
  opt.rebalance = false;
  opt.epochBatch = 4;  // 6 hot pairs enabled > 4 => surplus gets published
  const RunResult r = engine.run(opt);
  const shard::ShardedStats st = engine.lastRunStats();
  EXPECT_EQ(st.rebalanceDecisions, 0u);
  EXPECT_GT(st.stealEvents, 0u);
  std::uint64_t stepSum = 0;
  std::uint64_t stolenSum = 0;
  for (const auto& sh : st.shards) {
    stepSum += sh.steps;
    stolenSum += sh.stolenSteps;
  }
  EXPECT_EQ(stepSum, r.steps);
  EXPECT_EQ(stolenSum, st.stealEvents);
  expectSequentiallyReplayable(sys, r);
}

TEST(Rebalancing, CountersAreExact) {
  const System sys = models::skewedPairs(48, 6, 4);
  ShardedEngine engine(sys, 4);
  ShardedOptions opt;
  opt.maxSteps = 800;
  opt.seed = 3;
  opt.rebalanceInterval = 2;
  const RunResult r = engine.run(opt);
  const shard::ShardedStats st = engine.lastRunStats();
  EXPECT_GT(st.componentsMoved, 0u);
  std::uint64_t in = 0;
  std::uint64_t out = 0;
  std::uint64_t stolen = 0;
  std::uint64_t stepSum = 0;
  for (const auto& sh : st.shards) {
    in += sh.migratedIn;
    out += sh.migratedOut;
    stolen += sh.stolenSteps;
    stepSum += sh.steps;
    EXPECT_EQ(sh.steps, sh.localSteps + sh.crossSteps + sh.stolenSteps);
  }
  EXPECT_EQ(st.componentsMoved, in);
  EXPECT_EQ(st.componentsMoved, out);
  EXPECT_EQ(st.stealEvents, stolen);
  EXPECT_EQ(stepSum, r.steps);
  EXPECT_EQ(st.steps, r.steps);
  EXPECT_EQ(st.scanRounds, st.epochs);
  EXPECT_GT(st.wallNs, 0u);
}

TEST(Rebalancing, EscapeHatchBitIdenticalToStaticScheduler) {
  // With `rebalance` and `workStealing` off the engine runs the static
  // scheduler: nothing migrates or is stolen, and the trace is still a
  // sequential schedule. The same run with both on does adapt.
  const System sys = models::skewedPairs(32, 4, 4);
  struct Outcome {
    RunResult result;
    shard::ShardedStats stats;
  };
  const auto runWith = [&](bool optionsOn) {
    ShardedEngine engine(sys, 4);
    ShardedOptions opt;
    opt.maxSteps = 500;
    opt.seed = 7;
    opt.rebalanceInterval = 2;
    opt.rebalance = optionsOn;
    opt.workStealing = optionsOn;
    Outcome o{engine.run(opt), {}};
    o.stats = engine.lastRunStats();
    return o;
  };
  const Outcome optionsOff = runWith(false);
  const Outcome adaptive = runWith(true);
  EXPECT_EQ(optionsOff.stats.rebalanceDecisions, 0u);
  EXPECT_EQ(optionsOff.stats.componentsMoved, 0u);
  EXPECT_EQ(optionsOff.stats.stealEvents, 0u);
  expectSequentiallyReplayable(sys, optionsOff.result);
  EXPECT_GT(adaptive.stats.rebalanceDecisions + adaptive.stats.stealEvents, 0u);
}

// ---- golden sharded schedules ----

TEST(ShardedEngine, GoldenTracesArePinned) {
  // K=2 over the greedy partition with the default adaptive layer. Every
  // shard's pick depends on the exact order of its published enabled set,
  // so drift in the set, its order, the plan or the steal assignment, on
  // either evaluation path, shows up as a different trace or final state.
  // Gas steals local work and the skewed pairs migrate components, so the
  // published steal prefix and the full rescan after a migration are
  // pinned too.
  struct Golden {
    const char* name;
    System system;
    std::uint64_t seed;
    std::uint64_t trace;
    std::uint64_t state;
  };
  const Golden runs[] = {
      {"gas16x16/1", models::gasStation(16, 16), 1, 0x2b479bf8bd7b32ebull,
       0xd087758fc7730934ull},
      {"gas16x16/2", models::gasStation(16, 16), 2, 0x535afaeeb05dffb9ull,
       0xbb888b4443eac403ull},
      {"philo128/1", models::philosophersAtomic(128), 1, 0x613921c1d04adf37ull,
       0x7d73b90ed41b6316ull},
      {"philo128/2", models::philosophersAtomic(128), 2, 0x31f372ee3ba453d8ull,
       0xfc985f0684327687ull},
      {"prodcons256/1", models::producerConsumer(256), 1, 0x103ed3483a6127faull,
       0xb61bac5bb347392dull},
      {"prodcons256/2", models::producerConsumer(256), 2, 0x103ed3483a6127faull,
       0xb61bac5bb347392dull},
      {"skewed32/1", models::skewedPairs(32, 4, 4), 1, 0xa9efced0677b37fbull,
       0x2ee56d4b60ef7d7bull},
      {"skewed32/2", models::skewedPairs(32, 4, 4), 2, 0x74e236e814fcb7fbull,
       0xbf8532c58d5063fbull},
  };
  for (const bool compiled : {true, false}) {
    SCOPED_TRACE(compiled ? "compiled" : "interpreted");
    const CompileSwitch path(compiled);
    for (const Golden& g : runs) {
      PartitionOptions po;
      po.shards = 2;
      ShardedEngine engine(g.system, shard::partitionSystem(g.system, po));
      ShardedOptions opt;
      opt.maxSteps = 2000;
      opt.seed = g.seed;
      const RunResult r = engine.run(opt);
      EXPECT_EQ(r.steps, 2000u) << g.name;
      EXPECT_EQ(traceHash(r.trace), g.trace) << g.name;
      EXPECT_EQ(hashState(r.finalState), g.state) << g.name;
    }
  }
}

TEST(ShardedEngine, CrossShardBroadcastFiresUnderSeveralMasks) {
  // `cast` broadcasts from s to three receivers that flip in and out of
  // reach, and spans both shards, so its owner publishes it as a cross
  // candidate. The owner's policy must pick among its enabled masks, as
  // the sequential engine does, not always fire the smallest one (the
  // trigger alone). Rebalancing stays off so `cast` stays cross-shard.
  auto sender = std::make_shared<AtomicType>("S");
  const int snd = sender->addPort("snd");
  sender->addTransition(sender->addLocation("l"), snd, 0);
  sender->setInitialLocation(0);
  auto receiver = std::make_shared<AtomicType>("R");
  const int in = receiver->addLocation("in");
  const int out = receiver->addLocation("out");
  const int rcv = receiver->addPort("rcv");
  const int flip = receiver->addPort("flip");
  receiver->addTransition(in, rcv, in);
  receiver->addTransition(in, flip, out);
  receiver->addTransition(out, flip, in);
  receiver->setInitialLocation(in);
  System sys;
  const int s = sys.addInstance("s", sender);
  std::vector<PortRef> receivers;
  for (int i = 0; i < 3; ++i) {
    const int r = sys.addInstance("r" + std::to_string(i), receiver);
    receivers.push_back(PortRef{r, rcv});
    sys.addConnector(rendezvous("flip" + std::to_string(i), {PortRef{r, flip}}));
  }
  const int cast = sys.addConnector(broadcast("cast", PortRef{s, snd}, receivers));
  sys.validate();
  for (const bool compiled : {true, false}) {
    SCOPED_TRACE(compiled ? "compiled" : "interpreted");
    const CompileSwitch path(compiled);
    for (const std::uint64_t seed : {1, 2, 3}) {
      SCOPED_TRACE(seed);
      ShardedEngine engine(sys, Partition({0, 1, 1, 0}, 2));
      ASSERT_GE(engine.sharded().crossIndexOf(cast), 0);
      ShardedOptions opt;
      opt.maxSteps = 2000;
      opt.seed = seed;
      opt.rebalance = false;
      const RunResult r = engine.run(opt);
      ASSERT_EQ(r.steps, 2000u);
      std::set<InteractionMask> masks;
      for (const TraceEvent& e : r.trace.events) {
        if (e.connector == cast) masks.insert(e.mask);
      }
      EXPECT_GT(masks.size(), 1u);
      expectSequentiallyReplayable(sys, r);
    }
  }
}

// ---- satellite: the unified Engine interface ----

TEST(EngineInterface, DrivesAllThreeEnginesUniformly) {
  const System sys = models::philosophersAtomic(8);
  RandomPolicy pSeq(9);
  RandomPolicy pMt(9);
  SequentialEngine seq(sys, pSeq);
  MultiThreadEngine mt(sys, pMt);
  ShardedEngine sh(sys, 2);
  sh.defaultOptions().seed = 9;
  const std::vector<std::pair<Engine*, const char*>> engines = {
      {&seq, "seq"}, {&mt, "mt"}, {&sh, "sharded"}};
  EngineOptions opt;
  opt.maxSteps = 120;
  for (const auto& [engine, name] : engines) {
    EXPECT_STREQ(engine->name(), name);
    const RunResult r = engine->run(opt);
    EXPECT_EQ(r.steps, 120u) << name;
    const RunStats& st = engine->lastRunStats();
    EXPECT_EQ(st.steps, 120u) << name;
    EXPECT_GT(st.scanRounds, 0u) << name;
    // Every trace is a valid behaviour of the reference semantics.
    replayOnReference(sys, r.trace);
  }
}

// ---- satellite: enum printing ----

TEST(EnumPrinting, StopReasonNames) {
  EXPECT_STREQ(to_string(StopReason::kStepLimit), "kStepLimit");
  EXPECT_STREQ(to_string(StopReason::kDeadlock), "kDeadlock");
  EXPECT_STREQ(to_string(StopReason::kPredicate), "kPredicate");
  std::ostringstream os;
  os << StopReason::kDeadlock;
  EXPECT_EQ(os.str(), "kDeadlock");
}

TEST(EnumPrinting, DFinderVerdictNames) {
  EXPECT_STREQ(verify::to_string(verify::DFinderVerdict::kDeadlockFree), "kDeadlockFree");
  std::ostringstream os;
  os << verify::DFinderVerdict::kPotentialDeadlock;
  EXPECT_EQ(os.str(), "kPotentialDeadlock");
}

}  // namespace
}  // namespace cbip
