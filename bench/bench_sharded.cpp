// Sharded vs multithreaded engine throughput at 256 components, plus the
// skewed-load scaling family the online rebalancer targets.
//
// The multithreaded engine pays one offer/execute message round through
// per-component worker threads for every interaction; the sharded engine
// pays one barrier per epoch of up to shards * epochBatch interactions
// and runs everything shard-local without locks. The
// acceptance shape for the shard subsystem is >= 1.5x engine-step
// throughput over MtEngine at 256 components / 4 shards (Release).
//
// BM_Partition256 tracks the partitioner itself (greedy graph growing on
// the 256-node philosophers ring).
//
// BM_ShardedSkewed scales models::skewedPairs to 256 / 4096 / 10^5
// components (10^6 with CBIP_BENCH_LARGE=1): the live pairs (1/64 of the
// total) all sit in the low shards, so the static partition (arg 1 = 0)
// serializes on one shard's epoch quota while the adaptive scheduler
// (arg 1 = 1) steals the surplus and migrates the hot pairs apart.
// compare_benches.py gates the rebalanced-over-static ratio > 1.
#include <benchmark/benchmark.h>

#include <cstdlib>

#include "engine/engine.hpp"
#include "engine/engine_mt.hpp"
#include "models/models.hpp"
#include "shard/engine_sharded.hpp"

namespace {

using namespace cbip;

constexpr int kPhilosophers = 128;  // 128 philosophers + 128 forks = 256 components
constexpr std::uint64_t kSteps = 500;

void BM_MtEngine256(benchmark::State& state) {
  const System sys = models::philosophersAtomic(kPhilosophers);
  RandomPolicy policy(3);
  MultiThreadEngine engine(sys, policy);
  for (auto _ : state) {
    MtOptions opt;
    opt.maxSteps = kSteps;
    opt.recordTrace = false;
    benchmark::DoNotOptimize(engine.run(opt));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kSteps));
}
BENCHMARK(BM_MtEngine256)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_ShardedEngine256(benchmark::State& state) {
  const System sys = models::philosophersAtomic(kPhilosophers);
  shard::ShardedEngine engine(sys, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    shard::ShardedOptions opt;
    opt.maxSteps = kSteps;
    opt.recordTrace = false;
    opt.seed = 3;
    benchmark::DoNotOptimize(engine.run(opt));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kSteps));
}
BENCHMARK(BM_ShardedEngine256)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// Sequential reference point on the same workload.
void BM_SequentialEngine256(benchmark::State& state) {
  const System sys = models::philosophersAtomic(kPhilosophers);
  RandomPolicy policy(3);
  SequentialEngine engine(sys, policy);
  for (auto _ : state) {
    RunOptions opt;
    opt.maxSteps = kSteps;
    opt.recordTrace = false;
    benchmark::DoNotOptimize(engine.run(opt));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kSteps));
}
BENCHMARK(BM_SequentialEngine256)->Unit(benchmark::kMillisecond);

void BM_Partition256(benchmark::State& state) {
  const System sys = models::philosophersAtomic(kPhilosophers);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        shard::partitionSystem(sys, shard::PartitionOptions{4, 1.125, {}}));
  }
}
BENCHMARK(BM_Partition256)->Unit(benchmark::kMillisecond);

/// Skewed-load scaling point: range(0) components (half of them pairs,
/// 1/64 of the pairs hot, the cold ones dead on arrival so the skew is
/// present from step 0), range(1) = adaptive scheduling on/off. The
/// engine persists across iterations, so in the adaptive arm the first
/// iterations pay the migrations and the remainder measure the
/// rebalanced steady state — exactly the online-rebalancing claim.
void BM_ShardedSkewed(benchmark::State& state) {
  const int pairs = static_cast<int>(state.range(0)) / 2;
  const bool adaptive = state.range(1) != 0;
  const std::uint64_t steps = static_cast<std::uint64_t>(state.range(0)) / 4;
  const System sys = models::skewedPairs(pairs, std::max(1, pairs / 64), 0);
  shard::ShardedEngine engine(sys, 8);
  for (auto _ : state) {
    shard::ShardedOptions opt;
    opt.maxSteps = steps;
    opt.recordTrace = false;
    opt.seed = 3;
    opt.epochBatch = 64;
    opt.rebalance = adaptive;
    opt.workStealing = adaptive;
    opt.rebalanceInterval = 4;
    benchmark::DoNotOptimize(engine.run(opt));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(steps));
}
BENCHMARK(BM_ShardedSkewed)
    ->Args({256, 0})
    ->Args({256, 1})
    ->Args({4096, 0})
    ->Args({4096, 1})
    ->Args({100000, 0})
    ->Args({100000, 1})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

// Custom main (instead of BENCHMARK_MAIN) so the 10^6-component scaling
// point only registers when explicitly requested: model construction and
// partitioning alone take long enough that the CI smoke run must not pay
// for them.
int main(int argc, char** argv) {
  if (std::getenv("CBIP_BENCH_LARGE") != nullptr) {
    benchmark::RegisterBenchmark("BM_ShardedSkewed", BM_ShardedSkewed)
        ->Args({1000000, 0})
        ->Args({1000000, 1})
        ->Unit(benchmark::kMillisecond)
        ->UseRealTime();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
