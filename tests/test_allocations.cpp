// Steady-state allocation check for the sequential engine. With trace
// recording off, a run of 2N steps must allocate exactly as often as a run
// of N steps: once the enabled set, its recycled elements, the policy's
// choice buffer and every scratch buffer have reached their largest sizes,
// a step allocates nothing. Global operator new is replaced here to count
// allocations, which is why this is its own test executable.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "engine/engine.hpp"
#include "expr/compile.hpp"
#include "models/models.hpp"

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

TEST(SteadyStateAllocations, SequentialStepsAllocateNothing) {
  if (!expr::compilationEnabled()) {
    GTEST_SKIP() << "the interpreter allocates per evaluation; the compiled path is checked";
  }
  // Long enough that each run meets its largest enabled set and update
  // (philosophersAtomic(16) reaches them between 2000 and 4000 steps under
  // this seed); from there on the allocation count stays flat.
  constexpr std::uint64_t kSteps = 4000;
  const struct {
    const char* name;
    System system;
  } cases[] = {
      {"philosophersAtomic(16)", models::philosophersAtomic(16)},
      {"gasStation(4,4)", models::gasStation(4, 4)},
      {"producerConsumer(8)", models::producerConsumer(8)},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    // Warm-up: the process-wide buffers (thread-local VM frames, telemetry
    // registrations) reach their sizes here, not inside a measured run.
    allocationsOfRun(c.system, kSteps);
    const std::uint64_t single = allocationsOfRun(c.system, kSteps);
    const std::uint64_t twice = allocationsOfRun(c.system, 2 * kSteps);
    EXPECT_EQ(twice, single);
  }
}

}  // namespace
}  // namespace cbip
