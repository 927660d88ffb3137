// Tests for the observability layer (src/obs): registry exactness under
// concurrency, snapshot consistency, the runtime/buildtime escape
// hatches, the Chrome trace-event log, and the differential discipline —
// engine traces must be bit-identical with telemetry on, off, or
// compiled out, because telemetry only counts, it never steers.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "compile_switch.hpp"
#include "engine/engine.hpp"
#include "engine/engine_mt.hpp"
#include "expr/compile.hpp"
#include "core/compiled.hpp"
#include "models/models.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "shard/engine_sharded.hpp"

namespace cbip {
namespace {

using shard::ShardedEngine;
using shard::ShardedOptions;
using shard::ShardedStats;

#if !defined(CBIP_NO_OBS)

// The registry unit tests assert exact counts, so they pin recording on
// regardless of the ambient CBIP_NO_OBS environment (the compiled-out
// build exercises its own no-op test below instead).
void resetRecordingOn() {
  obs::setEnabled(true);
  obs::resetAll();
}

TEST(ObsRegistry, CounterExactAcrossThreads) {
  resetRecordingOn();
  const obs::Counter counter("test.obs.concurrent");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kAdds = 20000;
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        for (std::uint64_t i = 0; i < kAdds; ++i) counter.add();
      });
    }
  }
  // All recording threads joined (and their cells folded into the retired
  // totals): the snapshot is exact.
  EXPECT_EQ(obs::snapshot().counter("test.obs.concurrent"), kThreads * kAdds);
}

TEST(ObsRegistry, SnapshotWhileRecordingIsMonotone) {
  resetRecordingOn();
  const obs::Counter counter("test.obs.racing");
  std::uint64_t last = 0;
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&] {
        for (int i = 0; i < 50000; ++i) counter.add();
      });
    }
    // Concurrent snapshots: writers never block; successive reads of a
    // monotone counter must be monotone (TSan validates the lock-free
    // cell protocol here).
    for (int i = 0; i < 50; ++i) {
      const std::uint64_t now = obs::snapshot().counter("test.obs.racing");
      EXPECT_GE(now, last);
      last = now;
    }
  }
  EXPECT_EQ(obs::snapshot().counter("test.obs.racing"), 4u * 50000u);
}

TEST(ObsRegistry, RuntimeToggleStopsRecording) {
  resetRecordingOn();
  const obs::Counter counter("test.obs.toggle");
  counter.add(3);
  obs::setEnabled(false);
  counter.add(1000);
  obs::setEnabled(true);
  counter.add(2);
  EXPECT_EQ(obs::snapshot().counter("test.obs.toggle"), 5u);
}

TEST(ObsRegistry, ResetAllZeroes) {
  obs::setEnabled(true);
  const obs::Counter counter("test.obs.reset");
  counter.add(7);
  obs::resetAll();
  EXPECT_EQ(obs::snapshot().counter("test.obs.reset"), 0u);
}

TEST(ObsRegistry, ReregisteringANameSharesTheCell) {
  resetRecordingOn();
  const obs::Counter a("test.obs.shared");
  const obs::Counter b("test.obs.shared");
  a.add(2);
  b.add(3);
  EXPECT_EQ(obs::snapshot().counter("test.obs.shared"), 5u);
}

TEST(ObsHistogram, PowerOfTwoBuckets) {
  resetRecordingOn();
  const obs::Histogram h("test.obs.hist");
  h.observe(0);    // bucket 0 (<= 0)
  h.observe(-5);   // bucket 0, clamped out of the sum
  h.observe(1);    // bit_width 1
  h.observe(5);    // bit_width 3
  h.observe(7);    // bit_width 3
  const obs::Snapshot snap = obs::snapshot();
  const obs::Snapshot::Histogram* hist = snap.histogram("test.obs.hist");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count(), 5u);
  EXPECT_EQ(hist->sum, 13u);
  EXPECT_EQ(hist->buckets.at(0), 2u);
  EXPECT_EQ(hist->buckets.at(1), 1u);
  EXPECT_EQ(hist->buckets.at(3), 2u);
}

TEST(ObsTimer, RecordsNanosAndCalls) {
  resetRecordingOn();
  const obs::Timer timer("test.obs.timer");
  timer.record(100);
  timer.record(50);
  { const obs::Timer::Scope scope(timer); }
  const obs::Snapshot snap = obs::snapshot();
  EXPECT_GE(snap.counter("test.obs.timer.ns"), 150u);
  EXPECT_EQ(snap.counter("test.obs.timer.calls"), 3u);
}

TEST(ObsJson, DeterministicAndWellFormed) {
  resetRecordingOn();
  obs::Counter("test.obs.json.b").add(2);
  obs::Counter("test.obs.json.a").add(1);
  obs::Histogram("test.obs.json.h").observe(4);
  const std::string json = obs::toJson(obs::snapshot());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"test.obs.json.a\":1"), std::string::npos);
  EXPECT_NE(json.find("\"test.obs.json.b\":2"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  // Sorted keys: "a" before "b".
  EXPECT_LT(json.find("test.obs.json.a"), json.find("test.obs.json.b"));
  EXPECT_EQ(json, obs::toJson(obs::snapshot()));
}

TEST(ObsTraceLog, ChromeTraceStructure) {
  obs::TraceLog log;
  log.setThreadName(0, "shard 0");
  log.complete("plan", "epoch", 0, 1000, 2500);
  log.instant("mark", "epoch", 0, 3000);
  EXPECT_EQ(log.eventCount(), 2u);
  std::ostringstream os;
  log.write(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"plan\""), std::string::npos);
  // 1500 ns span = 1.500 us.
  EXPECT_NE(json.find("\"dur\":1.500"), std::string::npos);
}

TEST(ObsTraceLog, ShardedEngineEmitsEpochSpans) {
  obs::TraceLog log;
  obs::setTraceSink(&log);
  const System sys = models::philosophersAtomic(8);
  ShardedEngine engine(sys, 2);
  ShardedOptions opt;
  opt.maxSteps = 100;
  opt.recordTrace = false;
  engine.run(opt);
  obs::setTraceSink(nullptr);
  EXPECT_GT(log.eventCount(), 0u);
  std::ostringstream os;
  log.write(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"name\":\"plan\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"cross\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"local\""), std::string::npos);
  EXPECT_NE(json.find("\"shard 1\""), std::string::npos);
}

#else  // CBIP_NO_OBS

TEST(ObsNoOpBuild, RecordingVanishes) {
  const obs::Counter counter("test.obs.noop");
  counter.add(100);
  obs::Histogram("test.obs.noop.h").observe(5);
  obs::Timer("test.obs.noop.t").record(7);
  EXPECT_FALSE(obs::enabled());
  const obs::Snapshot snap = obs::snapshot();
  EXPECT_TRUE(snap.counters.empty());
  EXPECT_TRUE(snap.gauges.empty());
  EXPECT_TRUE(snap.histograms.empty());
  EXPECT_EQ(snap.counter("test.obs.noop"), 0u);
  // The export API stays callable and deterministic.
  EXPECT_EQ(obs::toJson(snap), obs::toJson(obs::snapshot()));
}

#endif  // CBIP_NO_OBS

// ---- differential discipline -------------------------------------------

/// Runs one engine on `sys` and returns (labels, final state, steps).
struct Outcome {
  std::vector<std::string> labels;
  GlobalState finalState;
  std::uint64_t steps = 0;
};

Outcome runSeq(const System& sys, std::uint64_t seed) {
  RandomPolicy policy(seed);
  SequentialEngine engine(sys, policy);
  RunOptions opt;
  opt.maxSteps = 200;
  const RunResult r = engine.run(opt);
  return {r.trace.labels(), r.finalState, r.steps};
}

Outcome runMt(const System& sys, std::uint64_t seed) {
  RandomPolicy policy(seed);
  MultiThreadEngine engine(sys, policy);
  MtOptions opt;
  opt.maxSteps = 200;
  const RunResult r = engine.run(opt);
  return {r.trace.labels(), r.finalState, r.steps};
}

Outcome runSharded(const System& sys, std::uint64_t seed) {
  ShardedEngine engine(sys, 2);
  ShardedOptions opt;
  opt.maxSteps = 200;
  opt.seed = seed;
  const RunResult r = engine.run(opt);
  return {r.trace.labels(), r.finalState, r.steps};
}

void expectSameOutcome(const Outcome& a, const Outcome& b) {
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_EQ(a.finalState, b.finalState);
  EXPECT_EQ(a.steps, b.steps);
}

TEST(ObsDifferential, TracesBitIdenticalWithObsOnAndOff) {
  // Every engine, crossed with the execution-layer escape hatch (the
  // interpreter oracle): toggling telemetry must never change a single
  // scheduling decision.
  const System systems[] = {models::philosophersAtomic(6), models::tokenRing(6)};
  Outcome (*const engines[])(const System&, std::uint64_t) = {runSeq, runMt, runSharded};
  for (const System& sys : systems) {
    for (const auto& runEngine : engines) {
      for (const bool compiled : {true, false}) {
        SCOPED_TRACE(compiled ? "compiled" : "interpreted");
        const CompileSwitch path(compiled);
        obs::setEnabled(true);
        const Outcome on = runEngine(sys, 42);
        obs::setEnabled(false);
        const Outcome off = runEngine(sys, 42);
        obs::setEnabled(true);
        expectSameOutcome(on, off);
      }
    }
  }
}

// ---- sharded scheduler statistics --------------------------------------

TEST(ShardedStatsTest, StepAccountingIsExact) {
  const System sys = models::philosophersAtomic(8);
  ShardedEngine engine(sys, 2);
  ShardedOptions opt;
  opt.maxSteps = 300;
  const RunResult r = engine.run(opt);
  const ShardedStats& st = engine.lastRunStats();
  ASSERT_EQ(st.shards.size(), 2u);
  std::uint64_t total = 0;
  for (const ShardedStats::Shard& sh : st.shards) {
    EXPECT_EQ(sh.steps, sh.localSteps + sh.crossSteps);
    EXPECT_LE(sh.localSteps, sh.quotaGranted);
    EXPECT_EQ(sh.quotaUnused, sh.quotaGranted - sh.localSteps);
    total += sh.steps;
  }
  EXPECT_EQ(total, r.steps);
  EXPECT_GT(st.epochs, 0u);
  EXPECT_EQ(st.crossAccepted + st.crossConflicts, st.crossCandidates);
}

TEST(ShardedStatsTest, TokenRingShowsIdleShardsAndStalledEpochs) {
  // A token ring serializes: whichever shard does not hold the token has
  // nothing to do that epoch, so the load metrics must expose the
  // imbalance — idle epochs on both shards, stalled epochs globally.
  const System sys = models::tokenRing(8);
  ShardedEngine engine(sys, 2);
  ShardedOptions opt;
  opt.maxSteps = 400;
  const RunResult r = engine.run(opt);
  EXPECT_GT(r.steps, 0u);
  const ShardedStats& st = engine.lastRunStats();
  ASSERT_EQ(st.shards.size(), 2u);
  EXPECT_GT(st.epochs, 1u);
  EXPECT_GT(st.stalledEpochs, 0u);
  std::uint64_t idleEpochs = 0;
  for (const ShardedStats::Shard& sh : st.shards) idleEpochs += sh.idleEpochs;
  EXPECT_GT(idleEpochs, 0u);
  // Stalls are epochs where at least one shard idled; the per-shard idle
  // count can exceed the stall count only if both idle at once, which
  // progress forbids with two shards.
  EXPECT_LE(idleEpochs, st.stalledEpochs * (st.shards.size() - 1));
}

TEST(ShardedStatsTest, StatsResetBetweenRuns) {
  const System sys = models::philosophersAtomic(6);
  ShardedEngine engine(sys, 2);
  ShardedOptions opt;
  opt.maxSteps = 50;
  engine.run(opt);
  const std::uint64_t firstEpochs = engine.lastRunStats().epochs;
  EXPECT_GT(firstEpochs, 0u);
  opt.maxSteps = 0;
  engine.run(opt);
  EXPECT_EQ(engine.lastRunStats().epochs, 0u);
}

}  // namespace
}  // namespace cbip
