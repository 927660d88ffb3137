// Steady-state allocation check for the engines. With trace recording
// off, a sequential or sharded run of 2N steps must allocate exactly as
// often as a run of N steps: once the enabled sets, their recycled
// elements, the policies' choice buffers and every scratch buffer have
// reached their largest sizes, a step allocates nothing. The same holds
// for a multi-threaded run, whose workers copy variables into reused
// buffers. Global
// operator new is replaced here to count allocations, which is why this
// is its own test executable.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "engine/engine.hpp"
#include "engine/engine_mt.hpp"
#include "expr/compile.hpp"
#include "models/models.hpp"
#include "shard/engine_sharded.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace cbip {
namespace {

/// Allocations made by one untraced SequentialEngine run of `steps` steps
/// from the initial state, on a fresh engine and policy.
std::uint64_t allocationsOfRun(const System& sys, std::uint64_t steps) {
  RandomPolicy policy(7);
  SequentialEngine engine(sys, policy);
  RunOptions options;
  options.maxSteps = steps;
  options.recordTrace = false;
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  const RunResult result = engine.run(options);
  const std::uint64_t made = g_allocations.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(result.reason, StopReason::kStepLimit);
  EXPECT_EQ(result.steps, steps);
  return made;
}

/// Allocations made by one untraced K=2 ShardedEngine run of `steps`
/// steps with default options, on a fresh engine (built outside the count).
std::uint64_t allocationsOfShardedRun(const System& sys, std::uint64_t steps) {
  shard::ShardedEngine engine(sys, 2);
  shard::ShardedOptions options;
  options.maxSteps = steps;
  options.recordTrace = false;
  options.seed = 7;
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  const RunResult result = engine.run(options);
  const std::uint64_t made = g_allocations.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(result.reason, StopReason::kStepLimit);
  EXPECT_EQ(result.steps, steps);
  return made;
}

/// Allocations made by one untraced MultiThreadEngine run of `steps`
/// steps with batches of at most `maxBatch` interactions (0: unbounded),
/// on a fresh engine and policy (built outside the count).
std::uint64_t allocationsOfMtRun(const System& sys, std::uint64_t steps, std::size_t maxBatch) {
  RandomPolicy policy(7);
  MultiThreadEngine engine(sys, policy);
  MtOptions options;
  options.maxSteps = steps;
  options.maxBatch = maxBatch;
  options.recordTrace = false;
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  const RunResult result = engine.run(options);
  const std::uint64_t made = g_allocations.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(result.reason, StopReason::kStepLimit);
  EXPECT_EQ(result.steps, steps);
  return made;
}

struct Case {
  const char* name;
  System system;
};

std::vector<Case> cases() {
  std::vector<Case> out;
  out.push_back({"philosophersAtomic(16)", models::philosophersAtomic(16)});
  out.push_back({"gasStation(4,4)", models::gasStation(4, 4)});
  out.push_back({"producerConsumer(8)", models::producerConsumer(8)});
  return out;
}

/// Long enough that each run meets its largest enabled set and update
/// (philosophersAtomic(16) reaches them between 2000 and 4000 steps under
/// this seed); from there on the allocation count stays flat.
constexpr std::uint64_t kSteps = 4000;

/// Allocations the cache update after a multi-threaded run's cut last
/// batch may add (gasStation(4,4) shows up to 10 across step limits).
constexpr std::uint64_t kCutBatchAllocations = 32;

TEST(SteadyStateAllocations, SequentialStepsAllocateNothing) {
  if (!expr::compilationEnabled()) {
    GTEST_SKIP() << "the interpreter allocates per evaluation; the compiled path is checked";
  }
  for (const Case& c : cases()) {
    SCOPED_TRACE(c.name);
    // Warm-up: the process-wide buffers (thread-local VM frames, telemetry
    // registrations) reach their sizes here, not inside a measured run.
    allocationsOfRun(c.system, kSteps);
    const std::uint64_t single = allocationsOfRun(c.system, kSteps);
    const std::uint64_t twice = allocationsOfRun(c.system, 2 * kSteps);
    EXPECT_EQ(twice, single);
  }
}

TEST(SteadyStateAllocations, ShardedStepsAllocateNothing) {
  if (!expr::compilationEnabled()) {
    GTEST_SKIP() << "the interpreter allocates per evaluation; the compiled path is checked";
  }
  for (const Case& c : cases()) {
    SCOPED_TRACE(c.name);
    allocationsOfShardedRun(c.system, kSteps);
    const std::uint64_t single = allocationsOfShardedRun(c.system, kSteps);
    const std::uint64_t twice = allocationsOfShardedRun(c.system, 2 * kSteps);
    EXPECT_EQ(twice, single);
  }
}

TEST(SteadyStateAllocations, MultiThreadPicksCopyNothing) {
  if (!expr::compilationEnabled()) {
    GTEST_SKIP() << "the interpreter allocates per evaluation; the compiled path is checked";
  }
  // Batch selection copies the enabled set into a reused buffer and picks
  // in place; a dispatch copy-assigns the participants' variables into
  // worker-owned buffers and back into the snapshot. Copying a picked
  // interaction, a candidate or a variable vector allocates per step.
  for (const Case& c : cases()) {
    SCOPED_TRACE(c.name);
    // Batches of one: a run of 2N steps allocates exactly as often as one
    // of N.
    allocationsOfMtRun(c.system, kSteps, 1);
    EXPECT_EQ(allocationsOfMtRun(c.system, 2 * kSteps, 1), allocationsOfMtRun(c.system, kSteps, 1));
    // Unbounded batches: a run's last batch is cut at the step limit, and
    // the cache update after that cut batch (a dirty set the longer run
    // need not meet) may grow a buffer or a few interaction shells once.
    // So the two counts may differ by that end effect, never by anything
    // that grows with the step count (one allocation per step adds kSteps).
    const std::uint64_t single = allocationsOfMtRun(c.system, kSteps, 0);
    const std::uint64_t twice = allocationsOfMtRun(c.system, 2 * kSteps, 0);
    EXPECT_LE(twice, single + kCutBatchAllocations);
  }
}

}  // namespace
}  // namespace cbip
