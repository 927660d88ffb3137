// Interpreted vs compiled evaluation of the data sub-language.
//
// The tree-walking interpreter chases shared_ptr children and resolves
// every variable through a virtual EvalContext; the bytecode evaluator
// walks a dense instruction array against a flat frame. Workloads mirror
// what the engines actually evaluate per step: transition guards
// (comparison/boolean-heavy, read-only) and action blocks (arithmetic
// with sequential writes). Expected shape: compiled wins by >= 2x on
// both, growing with expression size.
#include <benchmark/benchmark.h>

#include <vector>

#include "expr/compile.hpp"
#include "expr/expr.hpp"

namespace {

using namespace cbip::expr;

Expr v(int i) { return Expr::local(i); }

/// A realistic guard: bounds checks and parity tests over several
/// variables, the shape gas-station/producer-consumer guards take.
Expr guardExpr() {
  return (v(0) < v(1)) && (v(2) % Expr::lit(7) != Expr::lit(0)) &&
         (v(3) + v(4) * Expr::lit(3) <= Expr::lit(500)) &&
         (Expr::min(v(5), v(6)) >= Expr::lit(-100) || v(7) == Expr::lit(1));
}

/// A guard scaled up `n` times (broadcast connectors conjoin per-end
/// conditions, so real guards grow linearly with the end count).
Expr wideGuard(int n) {
  Expr g = Expr::top();
  for (int i = 0; i < n; ++i) {
    g = std::move(g) && (v(i % 8) + Expr::lit(i) < v((i + 3) % 8) * Expr::lit(2) + Expr::lit(400));
  }
  return g;
}

/// An action block: the update arithmetic of a counter-mixing transition.
std::vector<Assign> actionBlock() {
  return {
      Assign{VarRef{0, 0}, (v(0) * Expr::lit(3) + v(1)) % Expr::lit(257)},
      Assign{VarRef{0, 1}, v(1) + Expr::ite(v(0) > v(2), v(0) - v(2), v(2) - v(0))},
      Assign{VarRef{0, 2}, Expr::max(v(2), Expr::abs(v(3) - v(4)))},
      Assign{VarRef{0, 3}, v(3) + Expr::lit(1)},
  };
}

std::vector<Value> makeFrame() { return {5, 40, 13, 7, 21, -3, 9, 1}; }

void BM_GuardInterpreted(benchmark::State& state) {
  const Expr g = state.range(0) == 0 ? guardExpr() : wideGuard(static_cast<int>(state.range(0)));
  std::vector<Value> vars = makeFrame();
  VecContext ctx(vars);
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.eval(ctx));
    vars[0] ^= 1;  // defeat value caching across iterations
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GuardInterpreted)->Arg(0)->Arg(8)->Arg(32);

void BM_GuardCompiled(benchmark::State& state) {
  const Expr g = state.range(0) == 0 ? guardExpr() : wideGuard(static_cast<int>(state.range(0)));
  const ExprProgram p = compileLocal(g);
  std::vector<Value> vars = makeFrame();
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.run(vars));
    vars[0] ^= 1;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GuardCompiled)->Arg(0)->Arg(8)->Arg(32);

void BM_ActionInterpreted(benchmark::State& state) {
  const std::vector<Assign> actions = actionBlock();
  std::vector<Value> vars = makeFrame();
  VecContext ctx(vars);
  for (auto _ : state) {
    applyAssignments(actions, ctx);
    benchmark::DoNotOptimize(vars.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(actions.size()));
}
BENCHMARK(BM_ActionInterpreted);

void BM_ActionCompiled(benchmark::State& state) {
  struct Compiled {
    int target;
    ExprProgram value;
  };
  std::vector<Compiled> actions;
  for (const Assign& a : actionBlock()) {
    actions.push_back(Compiled{a.target.index, compileLocal(a.value)});
  }
  std::vector<Value> vars = makeFrame();
  for (auto _ : state) {
    for (const Compiled& a : actions) {
      vars[static_cast<std::size_t>(a.target)] = a.value.run(vars);
    }
    benchmark::DoNotOptimize(vars.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(actions.size()));
}
BENCHMARK(BM_ActionCompiled);

/// One transition's guarded command, with the guard's arithmetic shared
/// by the first action — the shape the fused programs exist for.
Expr sharedMix() { return (v(0) * Expr::lit(3) + v(1)) % Expr::lit(257); }
Expr commandGuard() { return sharedMix() != Expr::lit(0) && v(3) + v(4) < Expr::lit(1000); }

const SlotMap& localSlots() {
  static const SlotMap slots = [](VarRef r) { return r.index; };
  return slots;
}

void BM_GuardedCommandFused(benchmark::State& state) {
  // The same guarded command as one fused program: a single dispatch,
  // conditional skip over the action suffix, shared arithmetic computed
  // once (kTee / kLoadTmp across the guard/action boundary).
  std::vector<Assign> block = actionBlock();
  block[0].value = sharedMix();
  const ExprProgram fused = compileFused(commandGuard(), block, localSlots());
  std::vector<Value> vars = makeFrame();
  for (auto _ : state) {
    benchmark::DoNotOptimize(fused.run(std::span<Value>(vars)));
    vars[0] = (vars[0] ^ 1) & 0xff;
    benchmark::DoNotOptimize(vars.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GuardedCommandFused);

void BM_CompileOnce(benchmark::State& state) {
  // The one-time lowering cost amortized away by the per-step savings.
  const Expr g = wideGuard(32);
  for (auto _ : state) {
    benchmark::DoNotOptimize(compileLocal(g));
  }
}
BENCHMARK(BM_CompileOnce);

}  // namespace

BENCHMARK_MAIN();
