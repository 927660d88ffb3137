// Verification-fed model lints: diagnostics proven by D-Finder
// ingredients rather than by the abstract interpreter.
//
// The analyze/ linter (analyze/lint.hpp) classifies guards one expression
// at a time; these two diagnostics need whole-component reachability and
// glue-level enablement facts, which is exactly what the D-Finder front
// end already computes:
//
//   * kUnreachableLocation — a control location the component invariant
//     (BFS over the COI-reduced state space, analysis-strengthened)
//     proves unreachable even in isolation. Reported once per distinct
//     AtomicType, naming the instances that share it.
//
//   * kInteractionNeverEnabled — an interaction (connector × feasible
//     mask) some participating end of which has no feasible source
//     transition: under the component invariants the interaction can
//     never fire. This is the same condition under which the DIS
//     encoding skips the interaction (`alwaysDisabled`), surfaced as a
//     model defect instead of silently dropped.
//
// Both lints are sound relative to the invariants: a reported location
// really is unreachable, a reported interaction really never fires
// (invariants over-approximate reachability, so what they exclude is
// truly excluded). Diagnostics reuse analyze::Diagnostic so `cbip lint`
// prints one uniform stream.
#pragma once

#include <vector>

#include "analyze/lint.hpp"
#include "core/system.hpp"
#include "verify/dfinder.hpp"

namespace cbip::verify {

/// Runs both verification-fed lints over `system` (which must be
/// validated). Computes component invariants via
/// verify::componentInvariants — once per distinct type, strengthened by
/// the abstract-interpretation feed.
std::vector<analyze::Diagnostic> lintVerify(const System& system,
                                            const DFinderOptions& options = {});

}  // namespace cbip::verify
