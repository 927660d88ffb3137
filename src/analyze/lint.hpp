// Model linter: static diagnostics over components and connectors.
//
// Drives the abstract interpreter (analyze.hpp) across a whole model the
// way the verifier walks it — at the Expr level, under the
// reachable-in-isolation environment of typeIntervals() — and reports
// defects the paper's design flow wants caught before any engine runs:
//
//   component side (lintType):
//     * kDeadTransition      — guard provably false in every reachable
//                              state: the transition can never fire;
//     * kAlwaysTrueGuard     — a syntactically non-trivial guard that is
//                              provably true (dead code in the guard);
//     * kGuaranteedRaise     — a guard or action that raises EvalError on
//                              every evaluation (div/mod by a provably
//                              zero divisor, or INT64_MIN / -1);
//
//   connector side (lintSystem, additionally):
//     * kDeadConnector             — connector guard provably false;
//     * kAlwaysTrueConnectorGuard  — non-trivial connector guard provably
//                                    true;
//     * kConnectorVarReadBeforeWrite — a connector-local variable read
//                              (guard, earlier-than-defining up, or down)
//                              before any up wrote it: it reads the zero
//                              the engine re-initializes per evaluation;
//     * kConnectorVarNeverRead — a connector-local variable no guard, up
//                              or down ever reads (dead declaration or
//                              dead up-chain).
//
// Diagnostics carry provenance ("atom Fork, transition #2
// (free --take--> taken)") so `cbip lint` can print actionable
// locations. The linter never mutates the model — it compiles nothing
// and runs entirely on the symbolic side.
#pragma once

#include <string>
#include <vector>

#include "analyze/analyze.hpp"
#include "core/atomic.hpp"
#include "core/system.hpp"

namespace cbip::analyze {

enum class LintKind {
  kDeadTransition,
  kAlwaysTrueGuard,
  kGuaranteedRaise,
  kDeadConnector,
  kAlwaysTrueConnectorGuard,
  kConnectorVarReadBeforeWrite,
  kConnectorVarNeverRead,
  // Verification-fed diagnostics (src/verify/lint.hpp — produced from
  // D-Finder component invariants, not from the abstract interpreter):
  kUnreachableLocation,       // location unreachable under the invariants
  kInteractionNeverEnabled,   // interaction provably never enabled (DIS)
};

/// Stable lowercase-kebab label, e.g. "dead-transition".
const char* lintKindName(LintKind kind);

struct Diagnostic {
  LintKind kind = LintKind::kDeadTransition;
  /// Provenance: which atom/transition/connector the finding is about.
  std::string where;
  /// Human-readable explanation, including the proving intervals.
  std::string message;
};

/// Renders "where: [kind] message".
std::string toString(const Diagnostic& d);

/// Lints one component type in isolation under typeIntervals(type).
std::vector<Diagnostic> lintType(const AtomicType& type);

/// Lints every distinct component type of `system` plus every connector
/// (guard, up and down programs, connector-variable data flow). The
/// system should be validated; unvalidated models may throw ModelError.
std::vector<Diagnostic> lintSystem(const System& system);

}  // namespace cbip::analyze
