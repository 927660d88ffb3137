#include "verify/dfinder.hpp"

#include <algorithm>
#include <map>
#include <ostream>
#include <set>

#include "analyze/analyze.hpp"
#include "expr/compile.hpp"
#include "obs/obs.hpp"
#include "sat/solver.hpp"
#include "util/require.hpp"
#include "verify/parallel.hpp"

namespace cbip::verify {

namespace {
// Telemetry (src/obs): counts only, never steers the verdict.
const obs::Counter g_rounds("dfinder.rounds");
const obs::Counter g_traps("dfinder.traps");
const obs::Counter g_guardsPruned("dfinder.guards_pruned");
const obs::Counter g_witnesses("dfinder.witnesses");
const obs::Counter g_invComputed("dfinder.invariants.computed");
const obs::Counter g_invReused("dfinder.invariants.reused");
const obs::Counter g_trapQueries("dfinder.trap.queries");
}  // namespace

const char* to_string(DFinderVerdict verdict) {
  switch (verdict) {
    case DFinderVerdict::kDeadlockFree: return "kDeadlockFree";
    case DFinderVerdict::kPotentialDeadlock: return "kPotentialDeadlock";
  }
  return "<invalid DFinderVerdict>";
}

std::ostream& operator<<(std::ostream& os, DFinderVerdict verdict) {
  return os << to_string(verdict);
}

namespace {

/// Dense (instance, location) -> id numbering, instance-major. Id order
/// coincides with Place's lexicographic order, so walking ids ascending
/// visits places exactly like iterating a std::map<Place, ...>.
struct PlaceTable {
  std::vector<int> offset;   // instance -> first id
  std::vector<Place> place;  // id -> place
  int total = 0;

  explicit PlaceTable(const System& system) {
    offset.reserve(system.instanceCount());
    for (std::size_t i = 0; i < system.instanceCount(); ++i) {
      offset.push_back(total);
      const AtomicType& type = *system.instance(i).type;
      for (std::size_t l = 0; l < type.locationCount(); ++l) {
        place.push_back(Place{static_cast<int>(i), static_cast<int>(l)});
      }
      total += static_cast<int>(type.locationCount());
    }
  }

  int id(const Place& p) const {
    return offset[static_cast<std::size_t>(p.instance)] + p.location;
  }
};

/// Net adjacency by place: which transitions take from / feed into each
/// place (one entry per occurrence). Built once per check and shared
/// read-only by every trap query of the portfolio.
struct NetIndex {
  std::vector<std::vector<int>> takesFrom;
  std::vector<std::vector<int>> feedsInto;
  std::vector<char> initialMark;
  std::size_t transitionCount = 0;

  NetIndex(const PlaceTable& pt, const InteractionNet& net)
      : takesFrom(static_cast<std::size_t>(pt.total)),
        feedsInto(static_cast<std::size_t>(pt.total)),
        initialMark(static_cast<std::size_t>(pt.total), 0),
        transitionCount(net.transitions.size()) {
    for (std::size_t t = 0; t < net.transitions.size(); ++t) {
      for (const Place& p : net.transitions[t].pre) {
        takesFrom[static_cast<std::size_t>(pt.id(p))].push_back(static_cast<int>(t));
      }
      for (const Place& q : net.transitions[t].post) {
        feedsInto[static_cast<std::size_t>(pt.id(q))].push_back(static_cast<int>(t));
      }
    }
    for (const Place& p : net.initial) initialMark[static_cast<std::size_t>(pt.id(p))] = 1;
  }
};

/// Searches a trap of `net` that is initially marked but completely
/// unoccupied in the control state `occupied` (such a trap is an
/// invariant that *excludes* this state). Returns the minimized trap, or
/// empty if none exists.
///
/// Legacy formulation: a fresh SAT instance per witness over std::map
/// place variables. The fast pipeline's trapExcludingFast below poses
/// the *same* SAT instance (same variable numbering, same clause order,
/// via a copied pre-encoded template) and replays the same greedy
/// minimization decisions, so the two return identical traps — only the
/// bookkeeping cost differs.
std::vector<Place> trapExcluding(const System& system, const InteractionNet& net,
                                 const std::map<Place, bool>& occupied) {
  std::map<Place, int> varOf;
  std::vector<Place> places;
  sat::Solver solver;
  for (std::size_t i = 0; i < system.instanceCount(); ++i) {
    const AtomicType& type = *system.instance(i).type;
    for (std::size_t l = 0; l < type.locationCount(); ++l) {
      const Place p{static_cast<int>(i), static_cast<int>(l)};
      varOf[p] = solver.newVar();
      places.push_back(p);
    }
  }
  for (const NetTransition& t : net.transitions) {
    std::vector<sat::Lit> post;
    post.reserve(t.post.size());
    for (const Place& q : t.post) post.push_back(varOf.at(q));
    for (const Place& p : t.pre) {
      std::vector<sat::Lit> clause{-varOf.at(p)};
      clause.insert(clause.end(), post.begin(), post.end());
      solver.addClause(std::move(clause));
    }
  }
  {
    std::vector<sat::Lit> initiallyMarkedClause;
    for (const Place& p : net.initial) initiallyMarkedClause.push_back(varOf.at(p));
    solver.addClause(std::move(initiallyMarkedClause));
  }
  // The trap must avoid every occupied place of the witness.
  for (const auto& [place, isOccupied] : occupied) {
    if (isOccupied) solver.addClause({-varOf.at(place)});
  }
  if (solver.solve() != sat::Result::kSat) return {};
  std::vector<Place> trap;
  for (const Place& p : places) {
    if (solver.modelValue(varOf.at(p))) trap.push_back(p);
  }
  // Greedy minimization, keeping trap-ness and initial marking (removing
  // places can only help the exclusion property).
  for (std::size_t k = trap.size(); k > 0; --k) {
    std::vector<Place> candidate = trap;
    candidate.erase(candidate.begin() + static_cast<std::ptrdiff_t>(k - 1));
    if (!candidate.empty() && isTrap(net, candidate) && initiallyMarked(net, candidate)) {
      trap = std::move(candidate);
    }
  }
  return trap;
}

/// The witness-independent part of the trap query, encoded once per
/// check: place variables (var = place id + 1), the trap-closure clauses
/// ("taking from the trap feeds the trap") and the initially-marked
/// clause. Per witness the portfolio *copies* this solver and adds only
/// the occupied-place exclusion units — the copy starts in exactly the
/// state a from-scratch encode would produce (no clause here is unit, so
/// the template's trail is empty and no heuristic state has moved),
/// which keeps the trap sequence identical to the historical per-witness
/// rebuild while skipping ~|net| clause normalizations per query.
sat::Solver trapTemplate(const PlaceTable& pt, const InteractionNet& net) {
  sat::Solver solver;
  for (int id = 0; id < pt.total; ++id) solver.newVar();
  const auto varOf = [](int id) { return id + 1; };
  for (const NetTransition& t : net.transitions) {
    std::vector<sat::Lit> post;
    post.reserve(t.post.size());
    for (const Place& q : t.post) post.push_back(varOf(pt.id(q)));
    for (const Place& p : t.pre) {
      std::vector<sat::Lit> clause{-varOf(pt.id(p))};
      clause.insert(clause.end(), post.begin(), post.end());
      solver.addClause(std::move(clause));
    }
  }
  std::vector<sat::Lit> initiallyMarkedClause;
  for (const Place& p : net.initial) initiallyMarkedClause.push_back(varOf(pt.id(p)));
  solver.addClause(std::move(initiallyMarkedClause));
  return solver;
}

/// Fast twin of trapExcluding: dense place ids, the witness-independent
/// encoding copied from `tmpl` instead of rebuilt, and greedy
/// minimization via incrementally maintained per-transition pre/post
/// membership counts (O(degree) per removal candidate instead of
/// O(net × |trap|) full isTrap recomputation). Same SAT instance, same
/// decisions, identical result. `occupied` is indexed by place id.
/// Thread-safe: everything it touches is call-local or read-only shared
/// state, which is what lets the refinement portfolio run one of these
/// per witness in parallel.
std::vector<Place> trapExcludingFast(const PlaceTable& pt, const NetIndex& ni,
                                     const sat::Solver& tmpl,
                                     const std::vector<char>& occupied) {
  g_trapQueries.add();
  // Copy-assigning into a thread-local scratch instance (rather than
  // copy-constructing a fresh one) reuses the clause / watch-list buffers
  // across queries; the value state after the assignment is the template's
  // regardless, so behaviour stays identical and per-thread.
  static thread_local sat::Solver scratch;
  sat::Solver& solver = scratch;
  solver = tmpl;
  const auto varOf = [](int id) { return id + 1; };
  for (int id = 0; id < pt.total; ++id) {
    if (occupied[static_cast<std::size_t>(id)] != 0) solver.addUnit(-varOf(id));
  }
  if (solver.solve() != sat::Result::kSat) return {};
  std::vector<int> trapIds;
  for (int id = 0; id < pt.total; ++id) {
    if (solver.modelValue(varOf(id))) trapIds.push_back(id);
  }

  const std::size_t transitionCount = ni.transitionCount;
  std::vector<int> preCount(transitionCount, 0);
  std::vector<int> postCount(transitionCount, 0);
  long marked = 0;
  for (int id : trapIds) {
    for (int t : ni.takesFrom[static_cast<std::size_t>(id)]) {
      ++preCount[static_cast<std::size_t>(t)];
    }
    for (int t : ni.feedsInto[static_cast<std::size_t>(id)]) {
      ++postCount[static_cast<std::size_t>(t)];
    }
    if (ni.initialMark[static_cast<std::size_t>(id)] != 0) ++marked;
  }
  long violations = 0;
  for (std::size_t t = 0; t < transitionCount; ++t) {
    if (preCount[t] > 0 && postCount[t] == 0) ++violations;
  }
  const auto violating = [&](int t) {
    return preCount[static_cast<std::size_t>(t)] > 0 && postCount[static_cast<std::size_t>(t)] == 0;
  };
  // Tentatively removes (delta = -1) or restores (delta = +1) a place,
  // keeping the violation count ("some transition takes from S but feeds
  // nothing back" — the negation of trap-ness) and the marked count in
  // sync.
  const auto toggle = [&](int id, int delta) {
    for (int t : ni.takesFrom[static_cast<std::size_t>(id)]) {
      if (violating(t)) --violations;
      preCount[static_cast<std::size_t>(t)] += delta;
      if (violating(t)) ++violations;
    }
    for (int t : ni.feedsInto[static_cast<std::size_t>(id)]) {
      if (violating(t)) --violations;
      postCount[static_cast<std::size_t>(t)] += delta;
      if (violating(t)) ++violations;
    }
    if (ni.initialMark[static_cast<std::size_t>(id)] != 0) marked += delta;
  };
  for (std::size_t k = trapIds.size(); k > 0; --k) {
    if (trapIds.size() == 1) break;  // the empty candidate is never accepted
    const int id = trapIds[k - 1];
    toggle(id, -1);
    if (violations == 0 && marked > 0) {
      trapIds.erase(trapIds.begin() + static_cast<std::ptrdiff_t>(k - 1));
    } else {
      toggle(id, +1);
    }
  }
  std::vector<Place> trap;
  trap.reserve(trapIds.size());
  for (int id : trapIds) trap.push_back(pt.place[static_cast<std::size_t>(id)]);
  return trap;
}

/// The pre-PR-10 refinement loop, verbatim: a fresh SAT encoding per
/// round, one witness per round, serial trap search. Kept as the
/// differential oracle and the baseline arm of the speedup benchmarks.
DFinderResult legacyCheckWith(const System& system,
                              std::vector<ComponentInvariant> componentInvariants,
                              std::vector<std::vector<Place>> traps) {
  DFinderResult result;
  result.componentInvariants = std::move(componentInvariants);
  result.traps = std::move(traps);
  const InteractionNet net = buildInteractionNet(system, result.componentInvariants);

  // Invariant-strengthening loop: check CI ∧ II ∧ DIS; on SAT, look for a
  // trap invariant excluding the witness and retry. Terminates because
  // every new trap kills at least the current witness (and the state
  // space of control witnesses is finite).
  constexpr int kMaxRounds = 4096;
  for (int round = 0; round < kMaxRounds; ++round) {
    g_rounds.add();
    sat::Solver solver;
    std::map<Place, int> at;
    for (std::size_t i = 0; i < system.instanceCount(); ++i) {
      const AtomicType& type = *system.instance(i).type;
      const ComponentInvariant& inv = result.componentInvariants[i];
      std::vector<sat::Lit> atLeastOne;
      std::vector<int> vars;
      for (std::size_t l = 0; l < type.locationCount(); ++l) {
        const int v = solver.newVar();
        at[Place{static_cast<int>(i), static_cast<int>(l)}] = v;
        // CI (control part): unreachable locations are excluded outright.
        if (!inv.reachableLocations[l]) {
          solver.addClause({-v});
        } else {
          atLeastOne.push_back(v);
          vars.push_back(v);
        }
      }
      require(!atLeastOne.empty(),
              "checkDeadlockFreedom: component with no reachable location");
      solver.addClause(atLeastOne);
      for (std::size_t a = 0; a < vars.size(); ++a) {
        for (std::size_t b = a + 1; b < vars.size(); ++b) {
          solver.addClause({-vars[a], -vars[b]});
        }
      }
    }

    // II: every trap invariant keeps a token.
    for (const std::vector<Place>& trap : result.traps) {
      std::vector<sat::Lit> clause;
      clause.reserve(trap.size());
      for (const Place& p : trap) clause.push_back(at.at(p));
      solver.addClause(std::move(clause));
    }

    // DIS: no interaction is enabled. For interaction a with participants
    // e_1..e_k, src_{a,e} = "participant e offers its port" (some feasible
    // transition's source location occupied); ¬enabled(a) = ∨_e ¬src_{a,e},
    // with at(i,l) → src_{a,e} binding the auxiliary from below.
    for (std::size_t ci = 0; ci < system.connectorCount(); ++ci) {
      const Connector& c = system.connector(ci);
      for (InteractionMask mask : c.feasibleMasks()) {
        std::vector<int> srcVars;
        bool alwaysDisabled = false;
        for (std::size_t e = 0; e < c.endCount(); ++e) {
          if ((mask & (InteractionMask{1} << e)) == 0) continue;
          const PortRef& p = c.end(e).port;
          const AtomicType& type =
              *system.instance(static_cast<std::size_t>(p.instance)).type;
          const ComponentInvariant& inv =
              result.componentInvariants[static_cast<std::size_t>(p.instance)];
          std::vector<int> sources;
          for (std::size_t ti = 0; ti < type.transitionCount(); ++ti) {
            const Transition& t = type.transition(static_cast<int>(ti));
            if (t.port != p.port || !inv.guardFeasible[ti]) continue;
            if (!inv.reachableLocations[static_cast<std::size_t>(t.from)]) continue;
            sources.push_back(at.at(Place{p.instance, t.from}));
          }
          if (sources.empty()) {
            alwaysDisabled = true;
            break;
          }
          const int src = solver.newVar();
          for (int loc : sources) solver.addClause({-loc, src});
          srcVars.push_back(src);
        }
        if (alwaysDisabled) continue;
        std::vector<sat::Lit> someEndDisabled;
        someEndDisabled.reserve(srcVars.size());
        for (int src : srcVars) someEndDisabled.push_back(-src);
        solver.addClause(std::move(someEndDisabled));
      }
    }
    // Unconditionally enabled internal transitions: their source location
    // can never be part of a deadlock (the engine settles taus).
    for (std::size_t i = 0; i < system.instanceCount(); ++i) {
      const AtomicType& type = *system.instance(i).type;
      const ComponentInvariant& inv = result.componentInvariants[i];
      for (std::size_t ti = 0; ti < type.transitionCount(); ++ti) {
        const Transition& t = type.transition(static_cast<int>(ti));
        if (t.port != kInternalPort || !inv.guardFeasible[ti]) continue;
        if (!inv.reachableLocations[static_cast<std::size_t>(t.from)]) continue;
        if (t.guard.isTrue()) {
          solver.addClause({-at.at(Place{static_cast<int>(i), t.from})});
        }
      }
    }

    result.booleanVariables = static_cast<std::size_t>(solver.variableCount());
    const sat::Result sr = solver.solve();
    result.satConflicts += solver.conflicts();
    result.satDecisions += solver.decisions();
    if (sr == sat::Result::kUnsat) {
      result.verdict = DFinderVerdict::kDeadlockFree;
      result.witnessLocations.clear();  // the last round's witness was excluded
      return result;
    }
    // Witness control state; try to exclude it with a fresh trap.
    std::map<Place, bool> occupied;
    result.witnessLocations.assign(system.instanceCount(), -1);
    for (const auto& [place, var] : at) {
      const bool occ = solver.modelValue(var);
      occupied[place] = occ;
      if (occ) {
        result.witnessLocations[static_cast<std::size_t>(place.instance)] = place.location;
      }
    }
    std::vector<Place> trap = trapExcluding(system, net, occupied);
    if (trap.empty()) {
      result.verdict = DFinderVerdict::kPotentialDeadlock;
      return result;
    }
    g_traps.add();
    result.traps.push_back(std::move(trap));
  }
  result.verdict = DFinderVerdict::kPotentialDeadlock;
  return result;
}

/// The fast refinement loop (see the header comment): one incremental
/// solver for the whole check, selector-guarded witness batches, and a
/// parallel trap portfolio with deterministic in-order merging.
///
/// Soundness of the batch step: every witness of a batch gets either a
/// fresh trap (adopted, clause added) or a trap already adopted earlier
/// in the same batch — either way a trap clause excluding it, so no
/// witness can reappear in a later round. The first witness of a round
/// can never yield a trap that is already a solver clause (the witness
/// is a model of every current clause, and its excluding trap avoids all
/// its occupied places), so each round adopts at least one new trap or
/// returns — the same progress argument as the legacy loop.
DFinderResult fastCheck(const System& system, std::vector<ComponentInvariant> componentInvariants,
                        std::vector<std::vector<Place>> traps, const DFinderOptions& options,
                        const InteractionNet* prebuiltNet) {
  DFinderResult result;
  result.componentInvariants = std::move(componentInvariants);
  result.traps = std::move(traps);
  InteractionNet built;
  if (prebuiltNet == nullptr) built = buildInteractionNet(system, result.componentInvariants);
  const InteractionNet& net = prebuiltNet != nullptr ? *prebuiltNet : built;
  const PlaceTable pt(system);
  const NetIndex ni(pt, net);
  const sat::Solver trapTmpl = trapTemplate(pt, net);

  sat::Solver solver;
  std::vector<int> at(static_cast<std::size_t>(pt.total), 0);
  for (std::size_t i = 0; i < system.instanceCount(); ++i) {
    const AtomicType& type = *system.instance(i).type;
    const ComponentInvariant& inv = result.componentInvariants[i];
    std::vector<sat::Lit> atLeastOne;
    std::vector<int> vars;
    for (std::size_t l = 0; l < type.locationCount(); ++l) {
      const int v = solver.newVar();
      at[static_cast<std::size_t>(pt.id(Place{static_cast<int>(i), static_cast<int>(l)}))] = v;
      if (!inv.reachableLocations[l]) {
        solver.addUnit(-v);
      } else {
        atLeastOne.push_back(v);
        vars.push_back(v);
      }
    }
    require(!atLeastOne.empty(), "checkDeadlockFreedom: component with no reachable location");
    solver.addClause(atLeastOne);
    for (std::size_t a = 0; a < vars.size(); ++a) {
      for (std::size_t b = a + 1; b < vars.size(); ++b) {
        solver.addClause({-vars[a], -vars[b]});
      }
    }
  }
  const auto atPlace = [&](const Place& p) { return at[static_cast<std::size_t>(pt.id(p))]; };

  // II: every already-proven trap invariant keeps a token.
  for (const std::vector<Place>& trap : result.traps) {
    std::vector<sat::Lit> clause;
    clause.reserve(trap.size());
    for (const Place& p : trap) clause.push_back(atPlace(p));
    solver.addClause(std::move(clause));
  }

  // DIS (same encoding as the legacy loop, built once).
  for (std::size_t ci = 0; ci < system.connectorCount(); ++ci) {
    const Connector& c = system.connector(ci);
    for (InteractionMask mask : c.feasibleMasks()) {
      std::vector<int> srcVars;
      bool alwaysDisabled = false;
      for (std::size_t e = 0; e < c.endCount(); ++e) {
        if ((mask & (InteractionMask{1} << e)) == 0) continue;
        const PortRef& p = c.end(e).port;
        const AtomicType& type = *system.instance(static_cast<std::size_t>(p.instance)).type;
        const ComponentInvariant& inv =
            result.componentInvariants[static_cast<std::size_t>(p.instance)];
        std::vector<int> sources;
        for (std::size_t ti = 0; ti < type.transitionCount(); ++ti) {
          const Transition& t = type.transition(static_cast<int>(ti));
          if (t.port != p.port || !inv.guardFeasible[ti]) continue;
          if (!inv.reachableLocations[static_cast<std::size_t>(t.from)]) continue;
          sources.push_back(atPlace(Place{p.instance, t.from}));
        }
        if (sources.empty()) {
          alwaysDisabled = true;
          break;
        }
        const int src = solver.newVar();
        for (int loc : sources) solver.addClause({-loc, src});
        srcVars.push_back(src);
      }
      if (alwaysDisabled) continue;
      std::vector<sat::Lit> someEndDisabled;
      someEndDisabled.reserve(srcVars.size());
      for (int src : srcVars) someEndDisabled.push_back(-src);
      solver.addClause(std::move(someEndDisabled));
    }
  }
  // Unconditionally enabled internal transitions exclude their source.
  for (std::size_t i = 0; i < system.instanceCount(); ++i) {
    const AtomicType& type = *system.instance(i).type;
    const ComponentInvariant& inv = result.componentInvariants[i];
    for (std::size_t ti = 0; ti < type.transitionCount(); ++ti) {
      const Transition& t = type.transition(static_cast<int>(ti));
      if (t.port != kInternalPort || !inv.guardFeasible[ti]) continue;
      if (!inv.reachableLocations[static_cast<std::size_t>(t.from)]) continue;
      if (t.guard.isTrue()) {
        solver.addUnit(-atPlace(Place{static_cast<int>(i), t.from}));
      }
    }
  }
  result.booleanVariables = static_cast<std::size_t>(solver.variableCount());

  const auto finishStats = [&] {
    result.satConflicts = solver.conflicts();
    result.satDecisions = solver.decisions();
  };

  std::set<std::vector<Place>> known(result.traps.begin(), result.traps.end());
  const int batch = std::max(1, options.witnessBatch);
  // Same refinement budget as the legacy loop, counted in witnesses (the
  // legacy loop processes exactly one witness per round).
  constexpr int kMaxWitnesses = 4096;
  int remaining = kMaxWitnesses;
  while (remaining > 0) {
    g_rounds.add();
    if (solver.solve() == sat::Result::kUnsat) {
      finishStats();
      result.verdict = DFinderVerdict::kDeadlockFree;
      result.witnessLocations.clear();  // the last round's witness was excluded
      return result;
    }
    // Collect up to `batch` distinct witnesses: each blocking clause is
    // guarded by a fresh selector assumed true only during this
    // collection, so the blocks vanish from later rounds (the adopted
    // trap clauses subsume them).
    std::vector<std::vector<char>> occupied;
    std::vector<std::vector<int>> witnessLocations;
    std::vector<sat::Lit> selectors;
    const auto extractWitness = [&] {
      std::vector<char> occ(static_cast<std::size_t>(pt.total), 0);
      std::vector<int> locs(system.instanceCount(), -1);
      for (int id = 0; id < pt.total; ++id) {
        if (solver.modelValue(at[static_cast<std::size_t>(id)])) {
          occ[static_cast<std::size_t>(id)] = 1;
          const Place& p = pt.place[static_cast<std::size_t>(id)];
          locs[static_cast<std::size_t>(p.instance)] = p.location;
        }
      }
      occupied.push_back(std::move(occ));
      witnessLocations.push_back(std::move(locs));
    };
    extractWitness();
    while (static_cast<int>(occupied.size()) < std::min(batch, remaining)) {
      const int selector = solver.newVar();
      std::vector<sat::Lit> block{-selector};
      const std::vector<char>& prev = occupied.back();
      for (int id = 0; id < pt.total; ++id) {
        if (prev[static_cast<std::size_t>(id)] != 0) {
          block.push_back(-at[static_cast<std::size_t>(id)]);
        }
      }
      solver.addClause(std::move(block));
      selectors.push_back(selector);
      // UNSAT here only means "no further distinct witness" — the batch
      // just ends; the next round's unassumed solve gives the verdict.
      if (solver.solve(selectors) != sat::Result::kSat) break;
      extractWitness();
    }
    g_witnesses.add(occupied.size());

    // Trap portfolio: one independent SAT query per witness, fanned out
    // over the worker pool; results land in per-witness slots and are
    // merged in witness order after the join barrier, so the adopted trap
    // sequence is identical to the serial run.
    std::vector<std::vector<Place>> found(occupied.size());
    parallelFor(occupied.size(), options.workers, [&](std::size_t j) {
      found[j] = trapExcludingFast(pt, ni, trapTmpl, occupied[j]);
    });
    for (std::size_t j = 0; j < occupied.size(); ++j) {
      result.witnessLocations = witnessLocations[j];
      if (found[j].empty()) {
        finishStats();
        result.verdict = DFinderVerdict::kPotentialDeadlock;
        return result;
      }
      if (known.insert(found[j]).second) {
        g_traps.add();
        std::vector<sat::Lit> clause;
        clause.reserve(found[j].size());
        for (const Place& p : found[j]) clause.push_back(atPlace(p));
        solver.addClause(std::move(clause));
        result.traps.push_back(std::move(found[j]));
      }
    }
    remaining -= static_cast<int>(occupied.size());
  }
  finishStats();
  result.verdict = DFinderVerdict::kPotentialDeadlock;
  return result;
}

}  // namespace

std::size_t strengthenWithAnalysis(const System& system,
                                   std::vector<ComponentInvariant>& componentInvariants) {
  // Both typeIntervals and guard feasibility are per type, not per
  // instance — compute the provably-dead set once however many instances
  // share the type, then apply it to each instance's invariant.
  const bool useCompiled = expr::compilationEnabled();
  std::map<const AtomicType*, std::vector<bool>> deadOf;
  std::size_t pruned = 0;
  for (std::size_t i = 0; i < system.instanceCount() && i < componentInvariants.size(); ++i) {
    const AtomicType& type = *system.instance(i).type;
    auto it = deadOf.find(&type);
    if (it == deadOf.end()) {
      const std::vector<analyze::Interval> intervals = analyze::typeIntervals(type);
      const analyze::IntervalEnv env = [&intervals](expr::VarRef r) {
        if (r.scope != 0 || r.index < 0 ||
            static_cast<std::size_t>(r.index) >= intervals.size()) {
          return analyze::Interval::top();
        }
        return intervals[static_cast<std::size_t>(r.index)];
      };
      std::vector<bool> dead(type.transitionCount(), false);
      for (std::size_t ti = 0; ti < type.transitionCount(); ++ti) {
        const Transition& t = type.transition(static_cast<int>(ti));
        if (t.guard.isTrue()) continue;
        bool provablyFalse = false;
        if (useCompiled) {
          // Abstractly execute the compiled guard bytecode (slot = local
          // variable index, the layout typeIntervals describes).
          const analyze::ProgramFacts g =
              analyze::analyzeProgram(type.compiledTransition(static_cast<int>(ti)).guard,
                                      intervals);
          provablyFalse = !g.mayRaise && g.value == analyze::Interval::singleton(0);
        } else {
          const analyze::ExprFacts g = analyze::analyzeExpr(t.guard, env);
          provablyFalse = !g.mayRaise && g.value == analyze::Interval::singleton(0);
        }
        dead[ti] = provablyFalse;
      }
      it = deadOf.emplace(&type, std::move(dead)).first;
    }
    ComponentInvariant& inv = componentInvariants[i];
    const std::vector<bool>& dead = it->second;
    for (std::size_t ti = 0; ti < dead.size() && ti < inv.guardFeasible.size(); ++ti) {
      if (inv.guardFeasible[ti] && dead[ti]) {
        inv.guardFeasible[ti] = false;
        ++pruned;
      }
    }
  }
  return pruned;
}

std::vector<ComponentInvariant> componentInvariants(const System& system,
                                                    const DFinderOptions& options) {
  system.validate();
  // Instances share AtomicTypes and the invariant is a property of the
  // type alone: compute one invariant per distinct type — across the
  // portfolio, the exploration of unrelated types being independent —
  // and copy it to every instance.
  std::vector<const AtomicType*> distinct;
  std::map<const AtomicType*, std::size_t> indexOf;
  std::vector<std::size_t> typeIndex(system.instanceCount(), 0);
  for (std::size_t i = 0; i < system.instanceCount(); ++i) {
    const AtomicType* type = system.instance(i).type.get();
    const auto [it, fresh] = indexOf.emplace(type, distinct.size());
    if (fresh) distinct.push_back(type);
    typeIndex[i] = it->second;
  }
  std::vector<ComponentInvariant> perType(distinct.size());
  parallelFor(distinct.size(), options.workers, [&](std::size_t k) {
    perType[k] = componentInvariant(*distinct[k], options.component);
  });
  g_invComputed.add(distinct.size());
  g_invReused.add(system.instanceCount() - distinct.size());
  std::vector<ComponentInvariant> invariants(system.instanceCount());
  for (std::size_t i = 0; i < system.instanceCount(); ++i) {
    invariants[i] = perType[typeIndex[i]];
  }
  // The abstract-interpretation feed runs before the interaction net is
  // built so provably-dead guards vanish from both DIS and the net.
  g_guardsPruned.add(strengthenWithAnalysis(system, invariants));
  return invariants;
}

DFinderResult checkDeadlockFreedom(const System& system, const DFinderOptions& options) {
  system.validate();
  if (options.legacyPipeline) {
    std::vector<ComponentInvariant> invs;
    invs.reserve(system.instanceCount());
    for (std::size_t i = 0; i < system.instanceCount(); ++i) {
      invs.push_back(componentInvariant(*system.instance(i).type, options.component));
    }
    g_guardsPruned.add(strengthenWithAnalysis(system, invs));
    return legacyCheckWith(system, std::move(invs), {});
  }
  return fastCheck(system, componentInvariants(system, options), {}, options, nullptr);
}

DFinderResult checkDeadlockFreedomWith(const System& system,
                                       std::vector<ComponentInvariant> componentInvariants,
                                       std::vector<std::vector<Place>> traps,
                                       const DFinderOptions& options,
                                       const InteractionNet* prebuiltNet) {
  if (options.legacyPipeline) {
    return legacyCheckWith(system, std::move(componentInvariants), std::move(traps));
  }
  return fastCheck(system, std::move(componentInvariants), std::move(traps), options,
                   prebuiltNet);
}

}  // namespace cbip::verify
