// Tests for the sequential and multi-threaded engines, plus error
// propagation out of every engine's run() (sequential, sharded, MT).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <string>

#include "compile_switch.hpp"
#include "engine/engine.hpp"
#include "engine/engine_mt.hpp"
#include "expr/compile.hpp"
#include "models/models.hpp"
#include "shard/engine_sharded.hpp"
#include "trace_hash.hpp"
#include "util/require.hpp"

namespace cbip {
namespace {

TEST(SequentialEngine, PhilosophersRunWithoutDeadlock) {
  System sys = models::philosophersAtomic(4);
  RandomPolicy policy(42);
  SequentialEngine engine(sys, policy);
  RunOptions opt;
  opt.maxSteps = 500;
  const RunResult r = engine.run(opt);
  EXPECT_EQ(r.reason, StopReason::kStepLimit);
  EXPECT_EQ(r.steps, 500u);
  EXPECT_EQ(r.trace.events.size(), 500u);
}

TEST(SequentialEngine, TwoStepPhilosophersCanDeadlock) {
  System sys = models::philosophersTwoStep(3);
  // Drive into the classic deadlock deterministically: everyone takes
  // their left fork.
  GlobalState g = initialState(sys);
  for (int i = 0; i < 3; ++i) {
    bool fired = false;
    for (const EnabledInteraction& ei : enabledInteractions(sys, g)) {
      const std::string name =
          sys.connector(static_cast<std::size_t>(ei.connector)).name();
      if (name == "takeL" + std::to_string(i)) {
        executeDefault(sys, g, ei);
        fired = true;
        break;
      }
    }
    ASSERT_TRUE(fired);
  }
  EXPECT_TRUE(isDeadlocked(sys, g));
}

TEST(SequentialEngine, StopPredicate) {
  System sys = models::philosophersAtomic(2);
  RandomPolicy policy(7);
  SequentialEngine engine(sys, policy);
  RunOptions opt;
  opt.maxSteps = 10'000;
  const int p0 = sys.instanceIndex("p0");
  opt.stopWhen = [p0](const GlobalState& g) {
    return g.components[static_cast<std::size_t>(p0)].vars[0] >= 5;  // p0 ate 5 times
  };
  const RunResult r = engine.run(opt);
  EXPECT_EQ(r.reason, StopReason::kPredicate);
  EXPECT_GE(r.finalState.components[static_cast<std::size_t>(p0)].vars[0], 5);
}

TEST(SequentialEngine, DeterministicWithFirstPolicy) {
  System sys = models::producerConsumer(3);
  FirstPolicy policy;
  SequentialEngine e1(sys, policy), e2(sys, policy);
  RunOptions opt;
  opt.maxSteps = 100;
  const auto t1 = e1.run(opt).trace.labels();
  const auto t2 = e2.run(opt).trace.labels();
  EXPECT_EQ(t1, t2);
}

TEST(SequentialEngine, SeededRunsReproduce) {
  System sys = models::philosophersAtomic(5);
  RunOptions opt;
  opt.maxSteps = 300;
  RandomPolicy p1(99), p2(99), p3(100);
  SequentialEngine e1(sys, p1), e2(sys, p2), e3(sys, p3);
  const auto t1 = e1.run(opt).trace.labels();
  const auto t2 = e2.run(opt).trace.labels();
  const auto t3 = e3.run(opt).trace.labels();
  EXPECT_EQ(t1, t2);
  EXPECT_NE(t1, t3);  // different seed, different schedule (overwhelmingly)
}

TEST(SequentialEngine, GcdComputesThroughTauSteps) {
  System sys = models::gcdSystem(36, 24);
  RandomPolicy policy(1);
  SequentialEngine engine(sys, policy);
  RunOptions opt;
  opt.maxSteps = 1;
  const RunResult r = engine.run(opt);
  // After settling, x == y == gcd(36, 24) == 12 and `done` fired once.
  EXPECT_EQ(r.finalState.components[0].vars[0], 12);
  EXPECT_EQ(r.finalState.components[0].vars[1], 12);
  EXPECT_EQ(r.trace.events.at(0).label, "done{gcd.done}");
}

TEST(SequentialEngine, MealsBalanceForkUsage) {
  // Safety: total meals == total eat interactions; forks always return.
  System sys = models::philosophersAtomic(3);
  RandomPolicy policy(5);
  SequentialEngine engine(sys, policy);
  RunOptions opt;
  opt.maxSteps = 400;
  const RunResult r = engine.run(opt);
  Value meals = 0;
  for (int i = 0; i < 3; ++i) {
    meals += r.finalState.components[static_cast<std::size_t>(i)].vars[0];
  }
  std::uint64_t eats = 0;
  for (const TraceEvent& e : r.trace.events) {
    if (e.label.rfind("eat", 0) == 0) ++eats;
  }
  EXPECT_EQ(static_cast<std::uint64_t>(meals), eats);
}

// ---- multithreaded engine ----

TEST(MultiThreadEngine, ProducesOnlyValidInteractions) {
  System sys = models::philosophersAtomic(4);
  RandomPolicy policy(11);
  MultiThreadEngine engine(sys, policy);
  MtOptions opt;
  opt.maxSteps = 200;
  const RunResult r = engine.run(opt);
  EXPECT_EQ(r.steps, 200u);
  // Validate the trace by replaying it on the reference semantics.
  GlobalState g = initialState(sys);
  for (const TraceEvent& e : r.trace.events) {
    bool found = false;
    for (const EnabledInteraction& ei : enabledInteractions(sys, g)) {
      if (interactionLabel(sys, ei) == e.label) {
        executeDefault(sys, g, ei);
        found = true;
        break;
      }
    }
    ASSERT_TRUE(found) << "multithread trace not replayable at " << e.label;
  }
}

TEST(MultiThreadEngine, RespectsPrioritiesWithBatchCap) {
  System sys;
  auto counter = std::make_shared<AtomicType>("C");
  {
    const int run = counter->addLocation("run");
    const int n = counter->addVariable("n", 0);
    const int tick = counter->addPort("tick");
    counter->addTransition(run, tick, Expr::top(),
                           {expr::Assign{expr::VarRef{0, n}, Expr::local(n) + Expr::lit(1)}},
                           run);
    counter->setInitialLocation(run);
  }
  const int a = sys.addInstance("a", counter);
  const int b = sys.addInstance("b", counter);
  sys.addConnector(rendezvous("low", {PortRef{a, 0}}));
  sys.addConnector(rendezvous("high", {PortRef{b, 0}}));
  sys.addPriority(PriorityRule{"low", "high", std::nullopt});
  RandomPolicy policy(3);
  MultiThreadEngine engine(sys, policy);
  MtOptions opt;
  opt.maxSteps = 50;
  const RunResult r = engine.run(opt);
  // `high` is always enabled, so `low` must never fire.
  for (const TraceEvent& e : r.trace.events) {
    EXPECT_EQ(e.label.rfind("high", 0), 0u) << e.label;
  }
}

TEST(MultiThreadEngine, DetectsDeadlock) {
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
  sys.addConnector(rendezvous("go", {PortRef{0, 0}}));
  RandomPolicy policy(1);
  MultiThreadEngine engine(sys, policy);
  MtOptions opt;
  opt.maxSteps = 10;
  const RunResult r = engine.run(opt);
  EXPECT_EQ(r.reason, StopReason::kDeadlock);
  EXPECT_EQ(r.steps, 1u);
}

TEST(MultiThreadEngine, BatchesIndependentInteractions) {
  // n independent self-loop counters: every cycle can fire all of them.
  System sys;
  auto counter = std::make_shared<AtomicType>("C");
  {
    const int run = counter->addLocation("run");
    const int n = counter->addVariable("n", 0);
    const int tick = counter->addPort("tick");
    counter->addTransition(run, tick, Expr::top(),
                           {expr::Assign{expr::VarRef{0, n}, Expr::local(n) + Expr::lit(1)}},
                           run);
    counter->setInitialLocation(run);
  }
  for (int i = 0; i < 4; ++i) {
    sys.addInstance("c" + std::to_string(i), counter);
    sys.addConnector(rendezvous("tick" + std::to_string(i), {PortRef{i, 0}}));
  }
  RandomPolicy policy(17);
  MultiThreadEngine engine(sys, policy);
  MtOptions opt;
  opt.maxSteps = 400;
  const RunResult r = engine.run(opt);
  EXPECT_EQ(r.steps, 400u);
  Value total = 0;
  for (const AtomicState& c : r.finalState.components) total += c.vars[0];
  EXPECT_EQ(total, 400);
}

TEST(MultiThreadEngine, DataTransferMatchesSequential) {
  System sys = models::producerConsumer(2);
  FirstPolicy policy;
  MultiThreadEngine mt(sys, policy);
  MtOptions mo;
  mo.maxSteps = 60;
  mo.maxBatch = 1;  // fully serialized: must equal the sequential run
  const RunResult rm = mt.run(mo);

  FirstPolicy policy2;
  SequentialEngine seq(sys, policy2);
  RunOptions so;
  so.maxSteps = 60;
  const RunResult rs = seq.run(so);
  EXPECT_EQ(rm.trace.labels(), rs.trace.labels());
  EXPECT_EQ(rm.finalState, rs.finalState);
}

// ---- errors surface from run() -------------------------------------------

/// Two rendezvous pairs whose shared action divides by a countdown: every
/// firing computes x := x + 100 / d, then d := d - 1, so the fourth
/// firing of a component divides by zero — inside a worker thread on the
/// MT and sharded engines.
System countdownPairs() {
  using expr::Assign;
  using expr::Expr;
  using expr::VarRef;
  auto t = std::make_shared<AtomicType>("Countdown");
  const int l = t->addLocation("l");
  const int x = t->addVariable("x", 0);
  const int d = t->addVariable("d", 3);
  const int p = t->addPort("p");
  t->addTransition(l, p, Expr::top(),
                   {Assign{VarRef{0, x}, Expr::local(x) + Expr::lit(100) / Expr::local(d)},
                    Assign{VarRef{0, d}, Expr::local(d) - Expr::lit(1)}},
                   l);
  t->setInitialLocation(l);
  System sys;
  for (int k = 0; k < 2; ++k) {
    const int a = sys.addInstance("a" + std::to_string(k), t);
    const int b = sys.addInstance("b" + std::to_string(k), t);
    Connector c("sync" + std::to_string(k));
    c.addSynchron(PortRef{a, p});
    c.addSynchron(PortRef{b, p});
    sys.addConnector(std::move(c));
  }
  sys.validate();
  return sys;
}

/// Two rendezvous pairs into a location whose only transition is a tau
/// self-loop: the first firing leaves both components unable to settle,
/// so tau settling must give up with "internal transitions diverge" — on
/// a worker thread on the MT and sharded engines.
System divergingPairs() {
  auto t = std::make_shared<AtomicType>("Spin");
  const int idle = t->addLocation("idle");
  const int spin = t->addLocation("spin");
  const int p = t->addPort("p");
  t->addTransition(idle, p, spin);
  t->addTransition(spin, kInternalPort, spin);
  t->setInitialLocation(idle);
  System sys;
  for (int k = 0; k < 2; ++k) {
    const int a = sys.addInstance("a" + std::to_string(k), t);
    const int b = sys.addInstance("b" + std::to_string(k), t);
    Connector c("sync" + std::to_string(k));
    c.addSynchron(PortRef{a, p});
    c.addSynchron(PortRef{b, p});
    sys.addConnector(std::move(c));
  }
  sys.validate();
  return sys;
}

constexpr const char* kDivisionByZero = "division by zero";
constexpr const char* kSpinDiverges = "Spin: internal transitions diverge (> 10000 tau steps)";

/// Runs `run` on the compiled path and on the interpreter oracle; both
/// must raise EvalError(`expected`) out of run().
void expectEvalErrorFromRun(const char* expected, const std::function<void()>& run) {
  for (const bool compiled : {true, false}) {
    SCOPED_TRACE(compiled ? "compiled" : "interpreted");
    const CompileSwitch path(compiled);
    try {
      run();
      ADD_FAILURE() << "expected EvalError from run()";
    } catch (const EvalError& e) {
      EXPECT_STREQ(e.what(), expected);
    }
  }
}

TEST(SequentialEngine, ActionEvalErrorSurfacesFromRun) {
  const System sys = countdownPairs();
  expectEvalErrorFromRun(kDivisionByZero, [&] {
    RandomPolicy policy(5);
    SequentialEngine engine(sys, policy);
    RunOptions opt;
    opt.maxSteps = 100;
    engine.run(opt);
  });
}

TEST(ShardedEngine, ActionEvalErrorSurfacesFromRun) {
  const System sys = countdownPairs();
  expectEvalErrorFromRun(kDivisionByZero, [&] {
    shard::ShardedEngine engine(sys, 2);
    shard::ShardedOptions opt;
    opt.maxSteps = 100;
    opt.seed = 5;
    engine.run(opt);
  });
}

TEST(MultiThreadEngine, ActionEvalErrorSurfacesFromRun) {
  // The failing action runs on a component worker thread: the error must
  // be carried back to the engine thread and rethrown from run(), and
  // every worker must still shut down cleanly.
  const System sys = countdownPairs();
  expectEvalErrorFromRun(kDivisionByZero, [&] {
    RandomPolicy policy(5);
    MultiThreadEngine engine(sys, policy);
    MtOptions opt;
    opt.maxSteps = 100;
    engine.run(opt);
  });
}

TEST(SequentialEngine, TauDivergenceSurfacesFromRun) {
  const System sys = divergingPairs();
  expectEvalErrorFromRun(kSpinDiverges, [&] {
    RandomPolicy policy(5);
    SequentialEngine engine(sys, policy);
    RunOptions opt;
    opt.maxSteps = 100;
    engine.run(opt);
  });
}

TEST(ShardedEngine, TauDivergenceSurfacesFromRun) {
  const System sys = divergingPairs();
  expectEvalErrorFromRun(kSpinDiverges, [&] {
    shard::ShardedEngine engine(sys, 2);
    shard::ShardedOptions opt;
    opt.maxSteps = 100;
    opt.seed = 5;
    engine.run(opt);
  });
}

TEST(MultiThreadEngine, TauDivergenceSurfacesFromRun) {
  // Tau settling runs on the component worker threads: the divergence
  // must be carried back and rethrown from run(), and every worker must
  // still shut down cleanly (the engine's destructor joins them).
  const System sys = divergingPairs();
  expectEvalErrorFromRun(kSpinDiverges, [&] {
    RandomPolicy policy(5);
    MultiThreadEngine engine(sys, policy);
    MtOptions opt;
    opt.maxSteps = 100;
    engine.run(opt);
  });
}

// ---- Golden sequential traces ----------------------------------------------

TEST(SequentialEngine, GoldenTracesArePinned) {
  // The engine's pick depends on the exact enabled set and its order, so
  // any drift in either, on either evaluation path, shows up here as a
  // different hash.
  struct Golden {
    const char* name;
    System system;
    std::uint64_t seed;
    std::uint64_t hash;
  };
  const Golden runs[] = {
      {"gas16x16/1", models::gasStation(16, 16), 1, 0x8366f0f78aea9589ull},
      {"gas16x16/2", models::gasStation(16, 16), 2, 0x005b1573d5b6666dull},
      {"philo128/1", models::philosophersAtomic(128), 1, 0xd0f853cfd4bfa245ull},
      {"philo128/2", models::philosophersAtomic(128), 2, 0xb1c8613bf030cbcdull},
      {"prodcons256/1", models::producerConsumer(256), 1, 0x0759501f9c8723fbull},
      {"prodcons256/2", models::producerConsumer(256), 2, 0xe1475c0b9d990bfbull},
  };
  for (const bool compiled : {true, false}) {
    SCOPED_TRACE(compiled ? "compiled" : "interpreted");
    const CompileSwitch path(compiled);
    for (const Golden& g : runs) {
      RandomPolicy policy(g.seed);
      SequentialEngine engine(g.system, policy);
      RunOptions opt;
      opt.maxSteps = 2000;
      const RunResult r = engine.run(opt);
      EXPECT_EQ(r.steps, 2000u) << g.name;
      EXPECT_EQ(traceHash(r.trace), g.hash) << g.name;
    }
  }
}

// ---- Golden multi-threaded traces ------------------------------------------

TEST(MultiThreadEngine, GoldenTracesArePinned) {
  // A cycle's batch is picked from the enabled set in its cached order,
  // dropping the candidates that overlap an earlier pick, so a change in
  // that order or in the pick sequence shows up here as a different hash.
  struct Golden {
    const char* name;
    System system;
    std::uint64_t seed;
    std::uint64_t hash;
  };
  const Golden runs[] = {
      {"gas4x4/1", models::gasStation(4, 4), 1, 0x9e5084700875c2faull},
      {"gas4x4/2", models::gasStation(4, 4), 2, 0xa0b202581bca5d0dull},
      {"philo16/1", models::philosophersAtomic(16), 1, 0xf2c44072705202acull},
      {"philo16/2", models::philosophersAtomic(16), 2, 0x1dc6199f8664b0b7ull},
      {"prodcons16/1", models::producerConsumer(16), 1, 0xcd3b538cab0440a6ull},
      {"prodcons16/2", models::producerConsumer(16), 2, 0x6c3faa3bed2a78a7ull},
  };
  for (const bool compiled : {true, false}) {
    SCOPED_TRACE(compiled ? "compiled" : "interpreted");
    const CompileSwitch path(compiled);
    for (const Golden& g : runs) {
      RandomPolicy policy(g.seed);
      MultiThreadEngine engine(g.system, policy);
      MtOptions opt;
      opt.maxSteps = 1000;
      const RunResult r = engine.run(opt);
      EXPECT_EQ(r.steps, 1000u) << g.name;
      EXPECT_EQ(traceHash(r.trace), g.hash) << g.name;
    }
  }
}

}  // namespace
}  // namespace cbip
