#include "verify/dfinder.hpp"

#include <algorithm>
#include <map>
#include <ostream>

#include "analyze/analyze.hpp"
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
/// place (one entry per occurrence). Built once per check and read by
/// every trap query.
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

/// The witness-independent part of the trap query, encoded once per
/// check: place variables (var = place id + 1), the trap-closure clauses
/// ("taking from the trap feeds the trap") and the initially-marked
/// clause. Per witness the loop *copies* this solver and adds only the
/// occupied-place exclusion units — the copy starts in exactly the state
/// a from-scratch encode would produce (no clause here is unit, so the
/// template's trail is empty and no heuristic state has moved), which
/// skips ~|net| clause normalizations per query.
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

/// Searches a trap of the net that is initially marked but completely
/// unoccupied in the control state `occupied` (indexed by place id): such
/// a trap is an invariant that *excludes* this state. Returns the trap,
/// minimized greedily (last place first, keeping trap-ness and the initial
/// marking) via incrementally maintained per-transition pre/post
/// membership counts — O(degree) per removal candidate instead of a full
/// isTrap recomputation — or empty if none exists.
std::vector<Place> excludingTrap(const PlaceTable& pt, const NetIndex& ni,
                                 const sat::Solver& tmpl, const std::vector<char>& occupied) {
  g_trapQueries.add();
  // Copy-assigning into a thread-local scratch instance (rather than
  // copy-constructing a fresh one) reuses the clause / watch-list buffers
  // across queries; the value state after the assignment is the template's
  // regardless, so behaviour stays identical.
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

/// The refinement loop (see the header comment): one incremental solver
/// for the whole check, one witness and one trap query per round.
///
/// Progress: the witness is a model of every trap clause in the solver,
/// so each trap clause has an occupied place; the excluding trap avoids
/// every occupied place, so it is never one of them. Each round thus
/// adopts a new trap that kills the witness, or returns.
DFinderResult refine(const System& system, std::vector<ComponentInvariant> componentInvariants,
                     std::vector<std::vector<Place>> traps, const InteractionNet* prebuiltNet) {
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
      // CI (control part): unreachable locations are excluded outright.
      if (!inv.reachableLocations[l]) {
        solver.addUnit(-v);
      } else {
        atLeastOne.push_back(v);
        vars.push_back(v);
      }
    }
    require(!atLeastOne.empty(), "checkDeadlockFreedom: component with no reachable location");
    require(inv.restingOffers.size() == type.locationCount(),
            "checkDeadlockFreedom: component invariant without resting offers");
    solver.addClause(atLeastOne);
    for (std::size_t a = 0; a < vars.size(); ++a) {
      for (std::size_t b = a + 1; b < vars.size(); ++b) {
        solver.addClause({-vars[a], -vars[b]});
      }
    }
  }
  const auto atPlace = [&](const Place& p) { return at[static_cast<std::size_t>(pt.id(p))]; };

  // Resting offers: a component rests at a location offering a superset
  // of one of its minimal offer sets. A location with one set is its own
  // offer literal; one with several gets a literal per set, one of which
  // its occupation implies; one with none is never a resting place.
  struct Offer {
    int lit;
    const std::vector<int>* ports;
  };
  std::vector<std::vector<Offer>> offersAt(static_cast<std::size_t>(pt.total));
  for (int id = 0; id < pt.total; ++id) {
    const Place& p = pt.place[static_cast<std::size_t>(id)];
    const ComponentInvariant& inv =
        result.componentInvariants[static_cast<std::size_t>(p.instance)];
    if (!inv.reachableLocations[static_cast<std::size_t>(p.location)]) continue;
    const std::vector<std::vector<int>>& sets =
        inv.restingOffers[static_cast<std::size_t>(p.location)];
    const int loc = at[static_cast<std::size_t>(id)];
    std::vector<Offer>& offers = offersAt[static_cast<std::size_t>(id)];
    if (sets.empty()) {
      solver.addUnit(-loc);
    } else if (sets.size() == 1) {
      offers.push_back(Offer{loc, &sets.front()});
    } else {
      std::vector<sat::Lit> oneOf{-loc};
      for (const std::vector<int>& ports : sets) {
        const int lit = solver.newVar();
        oneOf.push_back(lit);
        offers.push_back(Offer{lit, &ports});
      }
      solver.addClause(std::move(oneOf));
    }
  }

  // II: every already-proven trap invariant keeps a token.
  for (const std::vector<Place>& trap : result.traps) {
    std::vector<sat::Lit> clause;
    clause.reserve(trap.size());
    for (const Place& p : trap) clause.push_back(atPlace(p));
    solver.addClause(std::move(clause));
  }

  // DIS: no interaction is enabled. For interaction a with participants
  // e_1..e_k, src_{a,e} = "participant e offers its port" (the offer
  // literal of an occupied location whose set holds the port, found
  // through the port's feasible transitions); ¬enabled(a) = ∨_e ¬src_{a,e},
  // with offer → src_{a,e} binding the auxiliary from below.
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
          const auto from = static_cast<std::size_t>(pt.id(Place{p.instance, t.from}));
          for (const Offer& o : offersAt[from]) {
            if (std::binary_search(o.ports->begin(), o.ports->end(), p.port)) {
              sources.push_back(o.lit);
            }
          }
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
  result.booleanVariables = static_cast<std::size_t>(solver.variableCount());

  const auto finishStats = [&] {
    result.satConflicts = solver.conflicts();
    result.satDecisions = solver.decisions();
  };

  // A round budget: every round adopts a new trap, and the control
  // states the traps exclude are finitely many.
  constexpr int kMaxRounds = 4096;
  for (int round = 0; round < kMaxRounds; ++round) {
    g_rounds.add();
    if (solver.solve() == sat::Result::kUnsat) {
      finishStats();
      result.verdict = DFinderVerdict::kDeadlockFree;
      result.witnessLocations.clear();  // the last round's witness was excluded
      return result;
    }
    // Witness control state; try to exclude it with a fresh trap.
    std::vector<char> occupied(static_cast<std::size_t>(pt.total), 0);
    result.witnessLocations.assign(system.instanceCount(), -1);
    for (int id = 0; id < pt.total; ++id) {
      if (solver.modelValue(at[static_cast<std::size_t>(id)])) {
        occupied[static_cast<std::size_t>(id)] = 1;
        const Place& p = pt.place[static_cast<std::size_t>(id)];
        result.witnessLocations[static_cast<std::size_t>(p.instance)] = p.location;
      }
    }
    std::vector<Place> trap = excludingTrap(pt, ni, trapTmpl, occupied);
    if (trap.empty()) {
      finishStats();
      result.verdict = DFinderVerdict::kPotentialDeadlock;
      return result;
    }
    g_traps.add();
    std::vector<sat::Lit> clause;
    clause.reserve(trap.size());
    for (const Place& p : trap) clause.push_back(atPlace(p));
    solver.addClause(std::move(clause));
    result.traps.push_back(std::move(trap));
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
  // share the type, then apply it to each instance's invariant. The facts
  // come from the guard's Expr tree on both evaluation paths, so pruning
  // never depends on whether compilation is enabled.
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
        const analyze::ExprFacts g = analyze::analyzeExpr(t.guard, env);
        dead[ti] = !g.mayRaise && g.value == analyze::Interval::singleton(0);
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
  return refine(system, componentInvariants(system, options), {}, nullptr);
}

DFinderResult checkDeadlockFreedomWith(const System& system,
                                       std::vector<ComponentInvariant> componentInvariants,
                                       std::vector<std::vector<Place>> traps,
                                       const DFinderOptions& /*options*/,
                                       const InteractionNet* prebuiltNet) {
  return refine(system, std::move(componentInvariants), std::move(traps), prebuiltNet);
}

}  // namespace cbip::verify
