// Tests for the incremental enabled-interaction cache: the dirty-set
// maintenance must agree exactly with a from-scratch rescan at every step
// of randomized runs, and the engines must produce identical traces with
// the cache on or off.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/semantics.hpp"
#include "engine/engine.hpp"
#include "engine/engine_mt.hpp"
#include "models/models.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace cbip {
namespace {

/// Settles initial tau steps the way the engines do before offering.
void settle(const System& sys, GlobalState& g) {
  for (std::size_t i = 0; i < sys.instanceCount(); ++i) {
    runInternal(*sys.instance(i).type, g.components[i]);
  }
}

/// Drives `steps` random interactions, cross-checking the cache against a
/// from-scratch `enabledInteractions()` scan after every execution.
void crossCheck(const System& sys, std::uint64_t seed, int steps) {
  GlobalState g = initialState(sys);
  settle(sys, g);
  EnabledInteractionCache cache(sys);
  cache.reset(g);
  Rng rng(seed);
  for (int step = 0; step < steps; ++step) {
    const std::vector<EnabledInteraction> fresh = enabledInteractions(sys, g);
    ASSERT_EQ(cache.enabled(), fresh) << "divergence at step " << step;
    ASSERT_EQ(cache.empty(), fresh.empty());
    if (fresh.empty()) return;  // deadlock: nothing more to drive
    const EnabledInteraction& ei = fresh[rng.index(fresh.size())];
    std::vector<int> choice;
    choice.reserve(ei.choices.size());
    for (const std::vector<int>& options : ei.choices) {
      choice.push_back(static_cast<int>(rng.index(options.size())));
    }
    execute(sys, g, ei, choice);
    cache.updateAfterExecute(g, ei);
  }
}

TEST(EnabledInteractionCache, AgreesOnPhilosophersAtomic) {
  crossCheck(models::philosophersAtomic(5), 11, 300);
}

TEST(EnabledInteractionCache, AgreesOnEveryScanPath) {
  // The incremental maintenance must stay exact on both scan paths: the
  // batched compiled scan (default) and the tree-walking interpreter's
  // scalar scan (CBIP_NO_COMPILE).
  for (const bool compiled : {true, false}) {
    SCOPED_TRACE(compiled ? "batched" : "interpreted");
    const bool saved = expr::compilationEnabled();
    expr::setCompilationEnabled(compiled);
    crossCheck(models::philosophersAtomic(5), 11, 200);
    crossCheck(models::gasStation(2, 3), 5, 200);
    expr::setCompilationEnabled(saved);
  }
}

TEST(SequentialEngine, BatchScanOnAndOffProduceIdenticalRuns) {
  // Batch scan on = the compiled engine; off = the interpreter oracle and
  // its scalar scan.
  for (const char* model : {"phil", "ring", "gas"}) {
    const System sys = std::string(model) == "phil"   ? models::philosophersAtomic(6)
                       : std::string(model) == "ring" ? models::tokenRing(8)
                                                      : models::gasStation(2, 4);
    RunResult runs[2];
    for (int batch = 0; batch < 2; ++batch) {
      const bool saved = expr::compilationEnabled();
      expr::setCompilationEnabled(batch == 1);
      RandomPolicy policy(99);
      SequentialEngine engine(sys, policy);
      RunOptions opt;
      opt.maxSteps = 400;
      runs[batch] = engine.run(opt);
      expr::setCompilationEnabled(saved);
    }
    EXPECT_EQ(runs[0].reason, runs[1].reason) << model;
    EXPECT_EQ(runs[0].steps, runs[1].steps) << model;
    EXPECT_EQ(runs[0].finalState, runs[1].finalState) << model;
    ASSERT_EQ(runs[0].trace.events.size(), runs[1].trace.events.size()) << model;
    for (std::size_t i = 0; i < runs[0].trace.events.size(); ++i) {
      EXPECT_EQ(runs[0].trace.events[i].label, runs[1].trace.events[i].label) << model;
    }
  }
}

TEST(EnabledInteractionCache, AgreesOnPhilosophersTwoStep) {
  // Runs into the circular-wait deadlock on some seeds; the cache must
  // agree on the empty set there too.
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL}) {
    crossCheck(models::philosophersTwoStep(4), seed, 200);
  }
}

TEST(EnabledInteractionCache, AgreesOnGasStation) {
  crossCheck(models::gasStation(2, 3), 5, 300);
}

TEST(EnabledInteractionCache, AgreesOnProducerConsumer) {
  crossCheck(models::producerConsumer(3), 17, 300);
}

TEST(EnabledInteractionCache, AgreesOnTokenRing) {
  crossCheck(models::tokenRing(6), 23, 300);
}

TEST(EnabledInteractionCache, AgreesUnderDirtySupersets) {
  // update() with more instances dirty than necessary must stay exact.
  const System sys = models::philosophersAtomic(4);
  GlobalState g = initialState(sys);
  settle(sys, g);
  EnabledInteractionCache cache(sys);
  cache.reset(g);
  std::vector<int> all;
  for (std::size_t i = 0; i < sys.instanceCount(); ++i) all.push_back(static_cast<int>(i));
  Rng rng(29);
  for (int step = 0; step < 100; ++step) {
    const std::vector<EnabledInteraction> fresh = enabledInteractions(sys, g);
    ASSERT_EQ(cache.enabled(), fresh);
    ASSERT_FALSE(fresh.empty());
    executeDefault(sys, g, fresh[rng.index(fresh.size())]);
    cache.update(g, all);
  }
}

TEST(SequentialEngine, CacheOnAndOffProduceIdenticalRuns) {
  for (const char* model : {"phil", "ring", "gas"}) {
    const System sys = std::string(model) == "phil"   ? models::philosophersAtomic(6)
                       : std::string(model) == "ring" ? models::tokenRing(8)
                                                      : models::gasStation(2, 4);
    RunResult runs[2];
    for (int cached = 0; cached < 2; ++cached) {
      RandomPolicy policy(99);
      SequentialEngine engine(sys, policy);
      RunOptions opt;
      opt.maxSteps = 400;
      opt.incrementalCache = (cached == 1);
      runs[cached] = engine.run(opt);
    }
    EXPECT_EQ(runs[0].reason, runs[1].reason) << model;
    EXPECT_EQ(runs[0].steps, runs[1].steps) << model;
    EXPECT_EQ(runs[0].finalState, runs[1].finalState) << model;
    ASSERT_EQ(runs[0].trace.events.size(), runs[1].trace.events.size()) << model;
    for (std::size_t i = 0; i < runs[0].trace.events.size(); ++i) {
      EXPECT_EQ(runs[0].trace.events[i].label, runs[1].trace.events[i].label) << model;
    }
  }
}

TEST(MultiThreadEngine, CacheOnAndOffProduceIdenticalRuns) {
  const System sys = models::philosophersAtomic(5);
  RunResult runs[2];
  for (int cached = 0; cached < 2; ++cached) {
    RandomPolicy policy(7);
    MultiThreadEngine engine(sys, policy);
    MtOptions opt;
    opt.maxSteps = 200;
    opt.incrementalCache = (cached == 1);
    runs[cached] = engine.run(opt);
  }
  EXPECT_EQ(runs[0].steps, runs[1].steps);
  EXPECT_EQ(runs[0].finalState, runs[1].finalState);
  ASSERT_EQ(runs[0].trace.events.size(), runs[1].trace.events.size());
  for (std::size_t i = 0; i < runs[0].trace.events.size(); ++i) {
    EXPECT_EQ(runs[0].trace.events[i].label, runs[1].trace.events[i].label);
  }
}

TEST(System, ConnectorsOfReverseIndex) {
  const System sys = models::philosophersAtomic(3);
  std::vector<std::vector<int>> expected(sys.instanceCount());
  for (std::size_t ci = 0; ci < sys.connectorCount(); ++ci) {
    for (const ConnectorEnd& e : sys.connector(ci).ends()) {
      std::vector<int>& list = expected[static_cast<std::size_t>(e.port.instance)];
      if (list.empty() || list.back() != static_cast<int>(ci)) {
        list.push_back(static_cast<int>(ci));
      }
    }
  }
  for (std::size_t i = 0; i < sys.instanceCount(); ++i) {
    EXPECT_EQ(sys.connectorsOf(i), expected[i]) << "instance " << i;
  }
}

TEST(System, ConnectorsOfInvalidatedByMutation) {
  System sys = models::philosophersAtomic(2);
  const std::size_t before = sys.connectorsOf(0).size();
  // Adding a connector on instance 0 must show up in the reverse index.
  Connector extra("extra");
  extra.addSynchron(PortRef{0, 0});
  sys.addConnector(std::move(extra));
  EXPECT_EQ(sys.connectorsOf(0).size(), before + 1);
  EXPECT_THROW(static_cast<void>(sys.connectorsOf(sys.instanceCount())), ModelError);
}

}  // namespace
}  // namespace cbip
