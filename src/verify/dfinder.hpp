// D-Finder-style compositional deadlock-freedom checking.
//
// The method (monograph Section 5.6, [4]): compute component invariants
// CI and interaction invariants II, encode the global "no interaction is
// enabled" condition DIS, and ask a SAT solver whether
//       CI  ∧  II  ∧  DIS
// is satisfiable. UNSAT certifies deadlock-freedom *compositionally* —
// without ever building the product state space, which is what lets it
// "run exponentially faster than existing monolithic verification tools"
// (experiment E6). SAT yields a *potential* deadlock (the abstraction may
// be too coarse); the witness control locations are reported so a
// directed monolithic search can confirm them.
//
// The refinement loop keeps ONE incremental SAT solver alive across
// rounds (learnt clauses and variable activities, hence the sorted
// decision order, carry over). Each round solves once: UNSAT certifies;
// SAT yields a witness control state, and one trap query asks for an
// initially-marked trap of the interaction net that the witness leaves
// empty. Such a trap is an invariant excluding the witness: its clause
// is adopted and the next round starts; when no such trap exists, the
// witness is reported as a potential deadlock. The trap query copies a
// pre-encoded template solver and adds only the occupied-place units.
// Component invariants are computed once per distinct AtomicType
// (instances share types), fanned out over verify/parallel's portfolio;
// DFinderOptions::workers = 1 runs them serially, with bit-identical
// results.
//
// The oracle for this loop is exhaustive reachability on small seeded
// systems (tests/random_systems.hpp): DEADLOCK_FREE must mean explore()
// finds no deadlock, every adopted trap must hold on every reachable
// state, and every witness must satisfy CI, II and DIS.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "core/system.hpp"
#include "verify/invariants.hpp"

namespace cbip::verify {

struct DFinderOptions {
  ComponentInvariantOptions component;
  /// Worker threads for the per-type invariant portfolio (0 = hardware
  /// concurrency, 1 = serial). The verdict never depends on it.
  int workers = 0;
};

enum class DFinderVerdict {
  kDeadlockFree,       // certified
  kPotentialDeadlock,  // abstraction admits a deadlocked valuation
};

/// Enumerator name ("kDeadlockFree", ...) for diagnostics and test output.
const char* to_string(DFinderVerdict verdict);
std::ostream& operator<<(std::ostream& os, DFinderVerdict verdict);

struct DFinderResult {
  DFinderVerdict verdict = DFinderVerdict::kPotentialDeadlock;
  /// When kPotentialDeadlock: a control-location witness per instance.
  std::vector<int> witnessLocations;
  /// Ingredients (exposed for inspection / reuse by incremental checks).
  std::vector<ComponentInvariant> componentInvariants;
  std::vector<std::vector<Place>> traps;
  /// Statistics.
  std::uint64_t satConflicts = 0;
  std::uint64_t satDecisions = 0;
  std::size_t booleanVariables = 0;
};

/// Strengthens component invariants with facts from the abstract
/// interpreter (src/analyze): every transition whose guard is provably
/// false under the component's per-variable value intervals
/// (analyze::typeIntervals — the same reachable-in-isolation contract as
/// componentInvariant) has guardFeasible cleared, shrinking the DIS
/// enablement sources and the interaction net before the SAT encoding.
/// The facts come from analyzeExpr over the guard's Expr tree on both
/// evaluation paths, so the result never depends on whether compilation
/// is enabled. Returns the number of guards newly proven infeasible.
/// checkDeadlockFreedom applies this automatically; callers of
/// checkDeadlockFreedomWith that build their own invariants may call it
/// directly.
std::size_t strengthenWithAnalysis(const System& system,
                                   std::vector<ComponentInvariant>& componentInvariants);

/// Component invariants for every instance of `system`, computed once per
/// distinct AtomicType (instances share types, and the invariant is a
/// property of the type alone) — across `options.workers` threads — then
/// strengthened with the abstract-interpretation feed.
std::vector<ComponentInvariant> componentInvariants(const System& system,
                                                    const DFinderOptions& options = {});

/// Runs the full D-Finder pipeline on `system`.
DFinderResult checkDeadlockFreedom(const System& system, const DFinderOptions& options = {});

/// Core of the check, reusing precomputed invariants and previously
/// proven traps (the incremental verifier calls this directly). Each
/// invariant must carry its `restingOffers`, as componentInvariant's do.
/// When `prebuiltNet` is non-null it must be buildInteractionNet(system,
/// componentInvariants) — the incremental verifier passes its cached
/// chunk concatenation to skip the rebuild. The refinement loop has no
/// knobs of its own: `options` only shapes the invariants, which the
/// caller supplies here.
DFinderResult checkDeadlockFreedomWith(const System& system,
                                       std::vector<ComponentInvariant> componentInvariants,
                                       std::vector<std::vector<Place>> traps,
                                       const DFinderOptions& options = {},
                                       const InteractionNet* prebuiltNet = nullptr);

}  // namespace cbip::verify
