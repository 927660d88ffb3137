// Compiled execution form of a System's connectors.
//
// Connector guards, up transfers and down transfers are Expr trees over
// (scope, index) references that the interpreter resolves through a
// virtual EvalContext on every evaluation: scope >= 0 walks to the
// scope-th end's component, its port declaration, its export table and
// finally the component's variable vector. CompiledConnector does that
// resolution once, at build time, producing
//   * a flat frame layout  [end0 exports..., end1 exports..., connector
//     vars...] with a precomputed (instance, variable) load target per
//     end-export slot, and
//   * bytecode (expr::ExprProgram) for the guard, the fused up block and
//     every down expression, addressing the frame directly.
// Executing a connector is then gather -> run programs -> write back, with
// no virtual calls and no per-reference table walks.
//
// The symbolic Connector stays authoritative for the verifier; this layer
// is rebuilt from it on demand (System::compiled()) and never feeds back.
// Every engine, the sharded one included, runs these programs against a
// GlobalState.
#pragma once

#include <span>
#include <vector>

#include "core/connector.hpp"
#include "expr/compile.hpp"

namespace cbip {

class System;
struct GlobalState;

class CompiledConnector {
 public:
  CompiledConnector(const System& system, const Connector& connector);

  /// End-export slots plus connector-local variable slots.
  std::size_t frameSize() const { return static_cast<std::size_t>(frameSize_); }

  /// True when the connector moves data (has up or down transfers).
  bool hasTransfer() const { return !upBlock_.empty() || !downs_.empty(); }

  /// Copies every end-export value from `state` into `frame` and zeroes
  /// the connector-variable slots. `frame.size()` must be `frameSize()`.
  void gather(const GlobalState& state, std::span<Value> frame) const;

  /// Evaluates the guard against a gathered frame (requires a non-trivial
  /// connector guard).
  Value evalGuard(std::span<const Value> frame) const { return guard_.run(frame); }

  /// Runs the up transfers, then the down transfers of participating ends,
  /// on `frame`; down results are written back into `state` immediately so
  /// the component sees them (and later downs read them from the frame,
  /// mirroring the interpreter's sequential context exactly). The whole up
  /// block is one fused program dispatch (shared subexpressions computed
  /// once); downs stay separate — their execution set depends on the
  /// interaction mask.
  void transfer(GlobalState& state, std::span<Value> frame, InteractionMask mask) const;

 private:
  struct Load {
    int slot = 0;      // scratch-frame offset
    int instance = 0;  // component instance index
    int var = 0;       // index into the instance's variables
  };
  struct Down {
    int end = 0;  // participation bit
    int targetSlot = 0;
    int instance = 0;  // write-back target (see Load)
    int var = 0;
    expr::ExprProgram value;
  };

  std::int32_t frameSize_ = 0;
  std::vector<Load> loads_;
  expr::ExprProgram guard_;  // empty when trivially true
  expr::ExprProgram upBlock_;  // all ups fused into one program (empty when no ups)
  std::vector<Down> downs_;
};

/// Compiled forms of every connector of a System, built once per System
/// revision (see System::compiled()).
class CompiledSystem {
 public:
  explicit CompiledSystem(const System& system);

  const CompiledConnector& connector(std::size_t ci) const { return connectors_[ci]; }

 private:
  std::vector<CompiledConnector> connectors_;
};

}  // namespace cbip
