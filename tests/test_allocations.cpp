// Steady-state allocation check for the sequential and sharded engines.
// With trace recording off, a run of 2N steps must allocate exactly as
// often as a run of N steps: once the enabled sets, their recycled
// elements, the policies' choice buffers and every scratch buffer have
// reached their largest sizes, a step allocates nothing. Global operator
// new is replaced here to count allocations, which is why this is its own
// test executable.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "engine/engine.hpp"
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

}  // namespace
}  // namespace cbip
