// E7 — incremental construction + verification ([4], Section 5.6):
// "reusing invariants considerably reduces the verification effort".
//
// Systems are built by adding connectors one at a time. At every step we
// re-check deadlock-freedom either incrementally (keep component
// invariants, keep the traps the new interactions preserve, top up) or
// from scratch. Reported shape: total time over the construction sequence,
// incremental << from-scratch, gap widening with n.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "models/models.hpp"
#include "verify/incremental.hpp"

namespace {

using namespace cbip;

System componentsOnly(const System& full) {
  System base;
  for (const System::Instance& inst : full.instances()) base.addInstance(inst.name, inst.type);
  return base;
}

void BM_IncrementalBuild(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const System full = models::philosophersAtomic(n);
  for (auto _ : state) {
    verify::IncrementalVerifier verifier(componentsOnly(full));
    verify::IncrementalVerifier::StepResult last;
    for (const Connector& c : full.connectors()) last = verifier.addConnector(c);
    if (last.verdict != verify::DFinderVerdict::kDeadlockFree) {
      state.SkipWithError("not certified");
    }
  }
}
BENCHMARK(BM_IncrementalBuild)->DenseRange(2, 8, 2)->Unit(benchmark::kMillisecond);

void BM_FromScratchBuild(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const System full = models::philosophersAtomic(n);
  for (auto _ : state) {
    // Re-verify the growing system from scratch after every addition.
    System growing = componentsOnly(full);
    verify::DFinderResult last;
    for (const Connector& c : full.connectors()) {
      growing.addConnector(c);
      last = verify::checkDeadlockFreedom(growing);
    }
    if (last.verdict != verify::DFinderVerdict::kDeadlockFree) {
      state.SkipWithError("not certified");
    }
  }
}
BENCHMARK(BM_FromScratchBuild)->DenseRange(2, 8, 2)->Unit(benchmark::kMillisecond);

void printReuseTable() {
  std::printf("\n== E7: invariant reuse during incremental construction ==\n");
  std::printf("%4s %10s %10s %10s\n", "n", "kept", "dropped", "new");
  for (int n = 2; n <= 8; n += 2) {
    const System full = models::philosophersAtomic(n);
    verify::IncrementalVerifier verifier(componentsOnly(full));
    std::size_t kept = 0, dropped = 0, fresh = 0;
    for (const Connector& c : full.connectors()) {
      const auto step = verifier.addConnector(c);
      kept += step.trapsKept;
      dropped += step.trapsDropped;
      fresh += step.trapsNew;
    }
    std::printf("%4d %10zu %10zu %10zu\n", n, kept, dropped, fresh);
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  printReuseTable();
  return 0;
}
