// E6 — "D-Finder can run exponentially faster than existing monolithic
// verification tools, such as NuSMV" (monograph Section 5.6).
//
// Reproduction: deadlock-freedom of the dining-philosophers family
// (D-Finder's own benchmark) checked two ways:
//   * compositional: component invariants + interaction invariants + SAT
//     (polynomial in n — never builds the product);
//   * monolithic: exhaustive BFS over the global state space
//     (the reachable control states grow exponentially: Lucas numbers).
// The shape to observe: monolithic time/states explode with n while the
// compositional check stays flat. Gas station gives a second family.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "expr/compile.hpp"
#include "models/models.hpp"
#include "verify/dfinder.hpp"
#include "verify/incremental.hpp"
#include "verify/reachability.hpp"

namespace {

using namespace cbip;

void BM_DFinderPhilosophers(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const System sys = models::philosophersAtomic(n);
  for (auto _ : state) {
    const auto r = verify::checkDeadlockFreedom(sys);
    if (r.verdict != verify::DFinderVerdict::kDeadlockFree) state.SkipWithError("not certified");
    benchmark::DoNotOptimize(r);
  }
  // items/s = certifications per second, the verification-throughput
  // counter the bench-regression gate tracks (ROADMAP verification item).
  state.SetItemsProcessed(state.iterations());
  state.counters["boolVars"] = static_cast<double>(
      verify::checkDeadlockFreedom(sys).booleanVariables);
}
BENCHMARK(BM_DFinderPhilosophers)->DenseRange(2, 12, 2)->Unit(benchmark::kMillisecond);

void BM_MonolithicPhilosophers(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const System sys = models::philosophersAtomic(n, /*counters=*/false);
  std::uint64_t states = 0;
  for (auto _ : state) {
    const auto r = verify::explore(sys);
    if (!r.deadlocks.empty()) state.SkipWithError("unexpected deadlock");
    states = r.states;
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["states"] = static_cast<double>(states);
}
BENCHMARK(BM_MonolithicPhilosophers)->DenseRange(2, 12, 2)->Unit(benchmark::kMillisecond);

void BM_DFinderGasStation(benchmark::State& state) {
  const int customers = static_cast<int>(state.range(0));
  const System sys = models::gasStation(2, customers);
  for (auto _ : state) {
    const auto r = verify::checkDeadlockFreedom(sys);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DFinderGasStation)->DenseRange(2, 6, 2)->Unit(benchmark::kMillisecond);

void BM_MonolithicGasStation(benchmark::State& state) {
  const int customers = static_cast<int>(state.range(0));
  const System sys = models::gasStation(2, customers, /*counters=*/false);
  for (auto _ : state) {
    const auto r = verify::explore(sys);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_MonolithicGasStation)->DenseRange(2, 4, 1)->Unit(benchmark::kMillisecond);

/// Compiled invariant evaluation (fused guard+action bytecode in the BFS
/// inner loop, arg 1) vs the shared_ptr expression-tree walk (arg 0) on
/// a data-heavy family where invariant computation dominates the check.
/// Serial both sides (one worker): this isolates the bytecode win.
void BM_DFinderInvariantCompiledVsTree(benchmark::State& state) {
  const System sys = models::skewedPairs(64, 8, 1000);
  const bool savedCompile = expr::compilationEnabled();
  expr::setCompilationEnabled(state.range(0) != 0);
  verify::DFinderOptions serial;
  serial.workers = 1;
  for (auto _ : state) {
    const auto invs = verify::componentInvariants(sys, serial);
    benchmark::DoNotOptimize(invs);
  }
  expr::setCompilationEnabled(savedCompile);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DFinderInvariantCompiledVsTree)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/// Incremental recertification (arg 1) vs from-scratch re-verification
/// (arg 0) of the same edit: remove the last connector, re-check, add it
/// back, re-check. The incremental verifier keeps component invariants
/// and every trap the edit preserves; the from-scratch arm redoes both.
void BM_DFinderIncrementalVsFull(benchmark::State& state) {
  const System full = models::philosophersAtomic(32);
  const std::size_t last = full.connectorCount() - 1;
  const Connector edited = full.connectors().back();
  if (state.range(0) != 0) {
    verify::IncrementalVerifier verifier(full);
    for (auto _ : state) {
      const auto removed = verifier.removeConnector(last);
      const auto added = verifier.addConnector(edited);
      if (added.verdict != verify::DFinderVerdict::kDeadlockFree) {
        state.SkipWithError("not certified");
      }
      benchmark::DoNotOptimize(removed);
      benchmark::DoNotOptimize(added);
    }
  } else {
    for (auto _ : state) {
      System sys = full;
      sys.removeConnector(last);
      const auto removed = verify::checkDeadlockFreedom(sys);
      sys.addConnector(edited);
      const auto added = verify::checkDeadlockFreedom(sys);
      if (added.verdict != verify::DFinderVerdict::kDeadlockFree) {
        state.SkipWithError("not certified");
      }
      benchmark::DoNotOptimize(removed);
      benchmark::DoNotOptimize(added);
    }
  }
  state.SetItemsProcessed(state.iterations() * 2);  // two re-certifications per edit pair
}
BENCHMARK(BM_DFinderIncrementalVsFull)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/// The headline series, printed as a table (paper shape: the monolithic
/// column explodes exponentially, the compositional column stays flat —
/// "D-Finder can run exponentially faster than ... NuSMV").
void printScalingTable() {
  std::printf("\n== E6: deadlock-freedom, compositional (D-Finder) vs monolithic ==\n");
  std::printf("%4s %12s %12s %14s %12s %16s\n", "n", "mono states", "mono ms",
              "dfinder traps", "dfinder ms", "dfinder verdict");
  for (int n = 2; n <= 20; n += 2) {
    const System counterFree = models::philosophersAtomic(n, false);
    verify::ReachOptions opt;
    opt.maxStates = 3'000'000;
    const auto t0 = std::chrono::steady_clock::now();
    const auto mono = verify::explore(counterFree, opt);
    const auto t1 = std::chrono::steady_clock::now();
    const System sys = models::philosophersAtomic(n);
    const auto t2 = std::chrono::steady_clock::now();
    const auto df = verify::checkDeadlockFreedom(sys);
    const auto t3 = std::chrono::steady_clock::now();
    const double monoMs = std::chrono::duration<double, std::milli>(t1 - t0).count();
    const double dfMs = std::chrono::duration<double, std::milli>(t3 - t2).count();
    std::printf("%4d %12llu %12.2f %14zu %12.2f %16s\n", n,
                static_cast<unsigned long long>(mono.states), monoMs, df.traps.size(), dfMs,
                df.verdict == verify::DFinderVerdict::kDeadlockFree ? "df-free (cert)"
                                                                    : "potential dl");
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  // The table writes to stdout, which would corrupt a
  // --benchmark_format=json stream and takes minutes at the larger sizes;
  // run_benches.sh sets CBIP_BENCH_NO_TABLE for its JSON smoke runs.
  if (std::getenv("CBIP_BENCH_NO_TABLE") == nullptr) printScalingTable();
  return 0;
}
