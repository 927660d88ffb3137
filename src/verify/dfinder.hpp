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
// Two pipelines implement the refinement loop:
//
//  * The fast pipeline (default) keeps ONE incremental SAT solver alive
//    across refinement rounds (learnt clauses and variable activities,
//    hence the sorted decision order, carry over), computes component invariants once per distinct AtomicType
//    (instances share types, fanned out as a parallel portfolio —
//    verify/parallel, CBIP_NO_PARALLEL_VERIFY hatch), and answers each
//    per-witness trap query by copying a pre-encoded template solver and
//    adding only the occupied-place units — the same SAT instance as a
//    from-scratch rebuild, minus the per-clause re-encoding cost, so the
//    trap sequence is unchanged. DFinderOptions::witnessBatch > 1
//    additionally collects a batch of witnesses per round via
//    selector-guarded blocking clauses and fans the trap queries out
//    over the same portfolio. Merging is deterministic — traps are
//    adopted in witness order behind a join barrier — so verdict,
//    witness and trap sequence are bit-identical between the threaded
//    and serial runs.
//
//  * The legacy pipeline (DFinderOptions::legacyPipeline) is the
//    pre-optimization reference: per-instance tree-walking invariants, a
//    fresh SAT encoding per round, one witness per round, everything
//    serial. It is kept as the differential oracle (both pipelines must
//    agree on the verdict) and as the baseline arm of the bench_dfinder
//    speedup ratios.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "core/system.hpp"
#include "verify/invariants.hpp"

namespace cbip::verify {

struct DFinderOptions {
  ComponentInvariantOptions component;
  TrapOptions traps;
  /// Pre-PR-10 reference pipeline (see the file comment). With the
  /// CBIP_NO_COMPILE and CBIP_NO_PARALLEL_VERIFY hatches it reproduces
  /// the historical tree-walking serial behaviour exactly.
  bool legacyPipeline = false;
  /// Fast pipeline: witnesses collected (and trap queries solved) per
  /// refinement round — the width of the parallel trap portfolio.
  /// Values <= 1 mean one witness per round, which is also the
  /// measured sweet spot on the bench models: extra witnesses cost an
  /// assumption-guarded SAT solve each and tend to yield overlapping,
  /// redundant traps, while the template-copied trap query they feed is
  /// already cheap. Widths > 1 remain supported (and tested) for
  /// models whose trap queries are the bottleneck.
  int witnessBatch = 1;
  /// Worker threads for parallel batches (0 = hardware concurrency).
  /// Only consulted while parallelVerifyEnabled().
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
/// While compilation is enabled the facts come from analyzeProgram over
/// the type's compiled guard bytecode; otherwise from analyzeExpr over
/// the symbolic tree. Returns the number of guards newly proven
/// infeasible. checkDeadlockFreedom applies this automatically; callers of
/// checkDeadlockFreedomWith that build their own invariants may call it
/// directly.
std::size_t strengthenWithAnalysis(const System& system,
                                   std::vector<ComponentInvariant>& componentInvariants);

/// Component invariants for every instance of `system`, computed once per
/// distinct AtomicType (instances share types, and the invariant is a
/// property of the type alone) — across the parallel portfolio when the
/// hatch is on — then strengthened with the abstract-interpretation feed.
std::vector<ComponentInvariant> componentInvariants(const System& system,
                                                    const DFinderOptions& options = {});

/// Runs the full D-Finder pipeline on `system`.
DFinderResult checkDeadlockFreedom(const System& system, const DFinderOptions& options = {});

/// Core of the check, reusing precomputed invariants and previously
/// proven traps (the incremental verifier calls this directly). When
/// `prebuiltNet` is non-null it must be buildInteractionNet(system,
/// componentInvariants) — the incremental verifier passes its cached
/// chunk concatenation to skip the rebuild.
DFinderResult checkDeadlockFreedomWith(const System& system,
                                       std::vector<ComponentInvariant> componentInvariants,
                                       std::vector<std::vector<Place>> traps,
                                       const DFinderOptions& options = {},
                                       const InteractionNet* prebuiltNet = nullptr);

}  // namespace cbip::verify
