// E11 — single-thread vs multithread engine (Section 5.6: "one engine for
// real-time single-thread and one for multi-thread execution").
//
// The multithread engine pays a coordination cost (offer/execute message
// rounds through worker threads) and wins only when component actions
// carry real computation (workGrain) and interactions are independent.
// Shape: sequential wins at grain 0; multithread overtakes as grain grows
// on the independent-pairs workload; on fully conflicting workloads the
// batch size is 1 and multithread never wins.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "core/semantics.hpp"
#include "engine/engine.hpp"
#include "engine/engine_mt.hpp"
#include "expr/compile.hpp"
#include "models/models.hpp"

namespace {

using namespace cbip;

/// n independent rendezvous pairs (maximally parallel workload).
System independentPairs(int pairs) {
  System sys;
  auto t = std::make_shared<AtomicType>("P");
  const int l = t->addLocation("l");
  const int n = t->addVariable("n", 0);
  const int p = t->addPort("p");
  t->addTransition(l, p, Expr::top(),
                   {expr::Assign{expr::VarRef{0, n}, Expr::local(n) + Expr::lit(1)}}, l);
  t->setInitialLocation(l);
  for (int i = 0; i < pairs; ++i) {
    const int a = sys.addInstance("a" + std::to_string(i), t);
    const int b = sys.addInstance("b" + std::to_string(i), t);
    sys.addConnector(rendezvous("sync" + std::to_string(i), {PortRef{a, 0}, PortRef{b, 0}}));
  }
  sys.validate();
  return sys;
}

void spinGrain(std::uint64_t grain) {
  volatile std::uint64_t sink = 0;
  for (std::uint64_t i = 0; i < grain; ++i) sink = sink + i;
}

void BM_SequentialEngine(benchmark::State& state) {
  const System sys = independentPairs(8);
  const std::uint64_t grain = static_cast<std::uint64_t>(state.range(0));
  RandomPolicy policy(3);
  for (auto _ : state) {
    SequentialEngine engine(sys, policy);
    RunOptions opt;
    opt.maxSteps = 500;
    opt.recordTrace = false;
    // Model the same computation grain the MT workers would run: both
    // participants' action bodies execute serially here.
    opt.stopWhen = [grain](const GlobalState&) {
      spinGrain(2 * grain);
      return false;
    };
    benchmark::DoNotOptimize(engine.run(opt));
  }
  state.SetItemsProcessed(state.iterations() * 500);
}
BENCHMARK(BM_SequentialEngine)->Arg(0)->Arg(20000)->Arg(100000)->Unit(benchmark::kMillisecond);

void BM_MultiThreadEngine(benchmark::State& state) {
  const System sys = independentPairs(8);
  const std::uint64_t grain = static_cast<std::uint64_t>(state.range(0));
  RandomPolicy policy(3);
  for (auto _ : state) {
    MultiThreadEngine engine(sys, policy);
    MtOptions opt;
    opt.maxSteps = 500;
    opt.recordTrace = false;
    opt.workGrain = grain;
    benchmark::DoNotOptimize(engine.run(opt));
  }
  state.SetItemsProcessed(state.iterations() * 500);
}
BENCHMARK(BM_MultiThreadEngine)->Arg(0)->Arg(20000)->Arg(100000)->Unit(benchmark::kMillisecond);

/// Guard/action-heavy workload: n counter pairs whose every transition
/// carries a non-trivial guard and a three-assignment action block, so the
/// per-step cost is dominated by data-sublanguage evaluation.
System dataHeavyPairs(int pairs) {
  System sys;
  auto t = std::make_shared<AtomicType>("D");
  const int l = t->addLocation("l");
  const int x = t->addVariable("x", 1);
  const int acc = t->addVariable("acc", 0);
  const int n = t->addVariable("n", 0);
  const int p = t->addPort("p", {x});
  t->addTransition(
      l, p,
      Expr::local(x) + Expr::local(acc) < Expr::lit(1'000'000) &&
          Expr::local(n) % Expr::lit(7) != Expr::lit(3),
      {expr::Assign{expr::VarRef{0, acc},
                    (Expr::local(acc) * Expr::lit(3) + Expr::local(x)) % Expr::lit(257)},
       expr::Assign{expr::VarRef{0, x},
                    Expr::max(Expr::local(x), Expr::abs(Expr::local(acc) - Expr::local(n)))},
       expr::Assign{expr::VarRef{0, n}, Expr::local(n) + Expr::lit(1)}},
      l);
  // A fallback transition keeps the system live when the first guard
  // flips off (n % 7 == 3).
  t->addTransition(l, p, Expr::top(),
                   {expr::Assign{expr::VarRef{0, n}, Expr::local(n) + Expr::lit(1)}}, l);
  t->setInitialLocation(l);
  for (int i = 0; i < pairs; ++i) {
    const int a = sys.addInstance("a" + std::to_string(i), t);
    const int b = sys.addInstance("b" + std::to_string(i), t);
    Connector c("sync" + std::to_string(i));
    const int ea = c.addSynchron(PortRef{a, 0});
    const int eb = c.addSynchron(PortRef{b, 0});
    c.setGuard(Expr::var(ea, 0) + Expr::var(eb, 0) > Expr::lit(0));
    sys.addConnector(std::move(c));
  }
  sys.validate();
  return sys;
}

/// Engine-step cost with the bytecode evaluator (arg 1) vs the
/// tree-walking interpreter escape hatch (arg 0); identical traces.
void BM_SequentialEngineCompiledVsInterpreted(benchmark::State& state) {
  const System sys = dataHeavyPairs(8);
  const bool compiled = state.range(0) != 0;
  const bool saved = expr::compilationEnabled();
  expr::setCompilationEnabled(compiled);
  RandomPolicy policy(3);
  for (auto _ : state) {
    SequentialEngine engine(sys, policy);
    RunOptions opt;
    opt.maxSteps = 500;
    opt.recordTrace = false;
    benchmark::DoNotOptimize(engine.run(opt));
  }
  expr::setCompilationEnabled(saved);
  state.SetItemsProcessed(state.iterations() * 500);
}
BENCHMARK(BM_SequentialEngineCompiledVsInterpreted)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/// Enabled-set reset throughput of the offer cache (one offer refresh of
/// every instance, then every connector built from the offers) at arg0 =
/// 128 / 256 components. items/s = connectors per second.
void BM_EnabledScan(benchmark::State& state) {
  const System sys = models::philosophersAtomic(static_cast<int>(state.range(0)) / 2);
  sys.warmIndices();
  const GlobalState g = initialState(sys);
  EnabledInteractionCache cache(sys);
  for (auto _ : state) {
    cache.reset(g);
    benchmark::DoNotOptimize(cache.enabled().size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(sys.connectorCount()));
}
BENCHMARK(BM_EnabledScan)->Arg(128)->Arg(256)->Unit(benchmark::kMillisecond);

/// Same reset on a guard-heavy shape (every transition and connector
/// carries a non-trivial guard), where the offer refresh spends its time
/// running guard programs rather than in list bookkeeping.
void BM_EnabledScanDataHeavy(benchmark::State& state) {
  const System sys = dataHeavyPairs(static_cast<int>(state.range(0)) / 2);
  sys.warmIndices();
  const GlobalState g = initialState(sys);
  EnabledInteractionCache cache(sys);
  for (auto _ : state) {
    cache.reset(g);
    benchmark::DoNotOptimize(cache.enabled().size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(sys.connectorCount()));
}
BENCHMARK(BM_EnabledScanDataHeavy)->Arg(128)->Arg(256)->Unit(benchmark::kMillisecond);

void BM_MultiThreadConflicting(benchmark::State& state) {
  // Philosophers: neighbouring interactions conflict, batches shrink.
  const System sys = models::philosophersAtomic(8);
  RandomPolicy policy(3);
  for (auto _ : state) {
    MultiThreadEngine engine(sys, policy);
    MtOptions opt;
    opt.maxSteps = 300;
    opt.recordTrace = false;
    opt.workGrain = static_cast<std::uint64_t>(state.range(0));
    benchmark::DoNotOptimize(engine.run(opt));
  }
  state.SetItemsProcessed(state.iterations() * 300);
}
BENCHMARK(BM_MultiThreadConflicting)->Arg(0)->Arg(100000)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
