#include "verify/invariants.hpp"

#include <algorithm>
#include <deque>
#include <iterator>
#include <map>
#include <set>
#include <span>
#include <unordered_set>

#include "expr/compile.hpp"
#include "util/require.hpp"

namespace cbip::verify {

namespace {

/// Cone of influence: variables read by guards, closed under the
/// data dependencies of actions that write them.
std::vector<bool> relevantVariables(const AtomicType& type) {
  std::vector<bool> relevant(type.variableCount(), false);
  auto markExpr = [&relevant](const Expr& e) {
    std::vector<expr::VarRef> refs;
    e.collectVars(refs);
    bool changed = false;
    for (const expr::VarRef& r : refs) {
      if (!relevant[static_cast<std::size_t>(r.index)]) {
        relevant[static_cast<std::size_t>(r.index)] = true;
        changed = true;
      }
    }
    return changed;
  };
  for (std::size_t i = 0; i < type.transitionCount(); ++i) {
    markExpr(type.transition(static_cast<int>(i)).guard);
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < type.transitionCount(); ++i) {
      for (const expr::Assign& a : type.transition(static_cast<int>(i)).actions) {
        if (relevant[static_cast<std::size_t>(a.target.index)]) {
          if (markExpr(a.value)) changed = true;
        }
      }
    }
  }
  return relevant;
}

/// Context over the reduced variable vector (slot per relevant variable).
class ReducedContext final : public expr::EvalContext {
 public:
  ReducedContext(const std::vector<int>& slotOf, std::vector<Value>& slots)
      : slotOf_(&slotOf), slots_(&slots) {}
  Value read(expr::VarRef r) const override {
    const int slot = (*slotOf_)[static_cast<std::size_t>(r.index)];
    requireEval(slot >= 0, "component invariant: read of abstracted variable");
    return (*slots_)[static_cast<std::size_t>(slot)];
  }
  void write(expr::VarRef r, Value v) override {
    const int slot = (*slotOf_)[static_cast<std::size_t>(r.index)];
    requireEval(slot >= 0, "component invariant: write to abstracted variable");
    (*slots_)[static_cast<std::size_t>(slot)] = v;
  }

 private:
  const std::vector<int>* slotOf_;
  std::vector<Value>* slots_;
};

/// Sorts a port list and drops repeats (two transitions on one port).
void normalizePorts(std::vector<int>& ports) {
  std::sort(ports.begin(), ports.end());
  ports.erase(std::unique(ports.begin(), ports.end()), ports.end());
}

/// The inclusion-minimal members of `sets` (each sorted), in set order.
std::vector<std::vector<int>> minimalSets(const std::set<std::vector<int>>& sets) {
  std::vector<std::vector<int>> out;
  for (const std::vector<int>& s : sets) {
    const bool dominated = std::any_of(sets.begin(), sets.end(), [&s](const std::vector<int>& o) {
      return o != s && std::includes(s.begin(), s.end(), o.begin(), o.end());
    });
    if (!dominated) out.push_back(s);
  }
  return out;
}

/// Location-only fallback: graph reachability ignoring all data.
ComponentInvariant locationOnlyInvariant(const AtomicType& type, std::uint64_t explored) {
  ComponentInvariant inv;
  inv.dataExact = false;
  inv.statesExplored = explored;
  inv.reachableLocations.assign(type.locationCount(), false);
  std::deque<int> frontier;
  inv.reachableLocations[static_cast<std::size_t>(type.initialLocation())] = true;
  frontier.push_back(type.initialLocation());
  while (!frontier.empty()) {
    const int loc = frontier.front();
    frontier.pop_front();
    for (std::size_t i = 0; i < type.transitionCount(); ++i) {
      const Transition& t = type.transition(static_cast<int>(i));
      if (t.from != loc) continue;
      if (!inv.reachableLocations[static_cast<std::size_t>(t.to)]) {
        inv.reachableLocations[static_cast<std::size_t>(t.to)] = true;
        frontier.push_back(t.to);
      }
    }
  }
  inv.guardFeasible.assign(type.transitionCount(), false);
  for (std::size_t i = 0; i < type.transitionCount(); ++i) {
    const Transition& t = type.transition(static_cast<int>(i));
    inv.guardFeasible[i] = inv.reachableLocations[static_cast<std::size_t>(t.from)];
  }
  // Without data, only always-true transitions are surely enabled.
  inv.restingOffers.assign(type.locationCount(), {});
  for (std::size_t l = 0; l < type.locationCount(); ++l) {
    if (!inv.reachableLocations[l]) continue;
    std::vector<int> offered;
    bool rests = true;
    for (std::size_t i = 0; i < type.transitionCount(); ++i) {
      const Transition& t = type.transition(static_cast<int>(i));
      if (static_cast<std::size_t>(t.from) != l || !t.guard.isTrue()) continue;
      if (t.port == kInternalPort) {
        rests = false;
      } else {
        offered.push_back(t.port);
      }
    }
    if (!rests) continue;
    normalizePorts(offered);
    inv.restingOffers[l].push_back(std::move(offered));
  }
  return inv;
}

}  // namespace

ComponentInvariant componentInvariant(const AtomicType& type,
                                      const ComponentInvariantOptions& options) {
  type.validate();
  const std::vector<bool> relevant = relevantVariables(type);
  std::vector<int> slotOf(type.variableCount(), -1);
  int slots = 0;
  for (std::size_t v = 0; v < type.variableCount(); ++v) {
    if (relevant[v]) slotOf[v] = slots++;
  }

  // Compiled exploration (the default): every transition's guard + the
  // actions surviving the cone-of-influence reduction are lowered once
  // into a single fused ExprProgram over the reduced frame, so the BFS
  // below runs bytecode instead of walking shared_ptr Expr trees through
  // a virtual context. An empty program stands for a trivially-true guard
  // with no surviving actions (nothing to evaluate). Successor states are
  // bit-identical to the tree walk: compileFused applies the assignment
  // block sequentially over the live frame exactly like ReducedContext.
  // CBIP_NO_COMPILE restores the interpreted walk.
  const bool useCompiled = expr::compilationEnabled();
  std::vector<expr::ExprProgram> fused;
  if (useCompiled) {
    const expr::SlotMap reducedSlot = [&slotOf](expr::VarRef r) {
      require(r.scope == 0 && r.index >= 0 && static_cast<std::size_t>(r.index) < slotOf.size() &&
                  slotOf[static_cast<std::size_t>(r.index)] >= 0,
              "component invariant: reference outside the reduced frame");
      return slotOf[static_cast<std::size_t>(r.index)];
    };
    fused.reserve(type.transitionCount());
    for (std::size_t i = 0; i < type.transitionCount(); ++i) {
      const Transition& t = type.transition(static_cast<int>(i));
      // Actions writing abstracted variables are dropped; COI closure
      // guarantees the kept values read only relevant (mapped) variables.
      std::vector<expr::Assign> kept;
      for (const expr::Assign& a : t.actions) {
        if (slotOf[static_cast<std::size_t>(a.target.index)] >= 0) kept.push_back(a);
      }
      if (t.guard.isTrue() && kept.empty()) {
        fused.emplace_back();
        continue;
      }
      fused.push_back(expr::compileFused(t.guard, kept, reducedSlot));
    }
  }

  using AbsState = std::pair<int, std::vector<Value>>;
  std::set<AbsState> seen;
  std::deque<AbsState> frontier;

  AbsState init{type.initialLocation(), std::vector<Value>(static_cast<std::size_t>(slots))};
  for (std::size_t v = 0; v < type.variableCount(); ++v) {
    if (slotOf[v] >= 0) {
      init.second[static_cast<std::size_t>(slotOf[v])] = type.variable(static_cast<int>(v)).init;
    }
  }
  seen.insert(init);
  frontier.push_back(std::move(init));

  std::vector<bool> guardFeasible(type.transitionCount(), false);
  // Per location, the distinct port sets offered in resting states.
  std::vector<std::set<std::vector<int>>> resting(type.locationCount());
  std::vector<int> offered;
  std::uint64_t explored = 0;

  while (!frontier.empty()) {
    const AbsState state = std::move(frontier.front());
    frontier.pop_front();
    ++explored;
    offered.clear();
    bool rests = true;
    for (std::size_t i = 0; i < type.transitionCount(); ++i) {
      const Transition& t = type.transition(static_cast<int>(i));
      if (t.from != state.first) continue;
      std::vector<Value> vars = state.second;
      if (useCompiled) {
        // One fused dispatch: guard test + surviving actions applied in
        // place; result 0 means the guard failed (frame untouched).
        const expr::ExprProgram& p = fused[i];
        if (!p.empty() && p.run(std::span<Value>(vars)) == 0) continue;
      } else {
        ReducedContext ctx(slotOf, vars);
        if (!t.guard.isTrue() && t.guard.eval(ctx) == 0) continue;
        // Apply only the actions whose targets survive the reduction.
        for (const expr::Assign& a : t.actions) {
          if (slotOf[static_cast<std::size_t>(a.target.index)] >= 0) {
            ctx.write(a.target, a.value.eval(ctx));
          }
        }
      }
      guardFeasible[i] = true;
      if (t.port == kInternalPort) {
        rests = false;
      } else {
        offered.push_back(t.port);
      }
      AbsState next{t.to, std::move(vars)};
      if (seen.size() >= options.maxStates) {
        return locationOnlyInvariant(type, explored);
      }
      if (seen.insert(next).second) frontier.push_back(std::move(next));
    }
    if (rests) {
      normalizePorts(offered);
      resting[static_cast<std::size_t>(state.first)].insert(offered);
    }
  }

  ComponentInvariant inv;
  inv.dataExact = true;
  inv.statesExplored = explored;
  inv.guardFeasible = std::move(guardFeasible);
  inv.restingOffers.reserve(type.locationCount());
  for (const std::set<std::vector<int>>& sets : resting) {
    inv.restingOffers.push_back(minimalSets(sets));
  }
  inv.reachableLocations.assign(type.locationCount(), false);
  for (const AbsState& s : seen) {
    inv.reachableLocations[static_cast<std::size_t>(s.first)] = true;
  }
  return inv;
}

namespace {

/// Transitions of `instance` on `port` that the component invariant has
/// not ruled out (feasible guard, reachable source).
std::vector<const Transition*> feasibleTransitionsOf(
    const System& system, const std::vector<ComponentInvariant>& componentInvariants,
    int instance, int port) {
  const AtomicType& type = *system.instance(static_cast<std::size_t>(instance)).type;
  const ComponentInvariant& inv = componentInvariants[static_cast<std::size_t>(instance)];
  std::vector<const Transition*> out;
  for (std::size_t ti = 0; ti < type.transitionCount(); ++ti) {
    const Transition& t = type.transition(static_cast<int>(ti));
    if (t.port != port) continue;
    if (!inv.guardFeasible[ti]) continue;
    if (!inv.reachableLocations[static_cast<std::size_t>(t.from)]) continue;
    out.push_back(&t);
  }
  return out;
}

}  // namespace

std::vector<NetTransition> connectorNetTransitions(
    const System& system, std::size_t ci,
    const std::vector<ComponentInvariant>& componentInvariants) {
  require(componentInvariants.size() == system.instanceCount(),
          "connectorNetTransitions: invariant count mismatch");
  require(ci < system.connectorCount(), "connectorNetTransitions: connector out of range");
  std::vector<NetTransition> chunk;
  const Connector& c = system.connector(ci);
  for (InteractionMask mask : c.feasibleMasks()) {
    std::vector<int> instances;
    std::vector<std::vector<const Transition*>> options;
    bool feasible = true;
    for (std::size_t e = 0; e < c.endCount(); ++e) {
      if ((mask & (InteractionMask{1} << e)) == 0) continue;
      const PortRef& p = c.end(e).port;
      auto ts = feasibleTransitionsOf(system, componentInvariants, p.instance, p.port);
      if (ts.empty()) {
        feasible = false;
        break;
      }
      instances.push_back(p.instance);
      options.push_back(std::move(ts));
    }
    if (!feasible) continue;
    std::vector<std::size_t> pick(options.size(), 0);
    while (true) {
      NetTransition nt;
      for (std::size_t k = 0; k < options.size(); ++k) {
        nt.pre.push_back(Place{instances[k], options[k][pick[k]]->from});
        nt.post.push_back(Place{instances[k], options[k][pick[k]]->to});
      }
      chunk.push_back(std::move(nt));
      std::size_t k = 0;
      while (k < pick.size()) {
        if (++pick[k] < options[k].size()) break;
        pick[k] = 0;
        ++k;
      }
      if (k == pick.size()) break;
    }
  }
  return chunk;
}

std::vector<NetTransition> internalNetTransitions(
    const System& system, const std::vector<ComponentInvariant>& componentInvariants) {
  require(componentInvariants.size() == system.instanceCount(),
          "internalNetTransitions: invariant count mismatch");
  std::vector<NetTransition> chunk;
  for (std::size_t i = 0; i < system.instanceCount(); ++i) {
    for (const Transition* t :
         feasibleTransitionsOf(system, componentInvariants, static_cast<int>(i), kInternalPort)) {
      chunk.push_back(NetTransition{{Place{static_cast<int>(i), t->from}},
                                    {Place{static_cast<int>(i), t->to}}});
    }
  }
  return chunk;
}

InteractionNet buildInteractionNet(const System& system,
                                   const std::vector<ComponentInvariant>& componentInvariants) {
  require(componentInvariants.size() == system.instanceCount(),
          "buildInteractionNet: invariant count mismatch");
  InteractionNet net;
  for (std::size_t i = 0; i < system.instanceCount(); ++i) {
    net.initial.push_back(
        Place{static_cast<int>(i), system.instance(i).type->initialLocation()});
  }
  // Connector chunks in index order, then the tau chunk — the order the
  // incremental verifier's cached-chunk concatenation reproduces.
  for (std::size_t ci = 0; ci < system.connectorCount(); ++ci) {
    std::vector<NetTransition> chunk = connectorNetTransitions(system, ci, componentInvariants);
    net.transitions.insert(net.transitions.end(), std::make_move_iterator(chunk.begin()),
                           std::make_move_iterator(chunk.end()));
  }
  std::vector<NetTransition> taus = internalNetTransitions(system, componentInvariants);
  net.transitions.insert(net.transitions.end(), std::make_move_iterator(taus.begin()),
                         std::make_move_iterator(taus.end()));
  return net;
}

bool isTrap(const InteractionNet& net, const std::vector<Place>& trap) {
  std::set<Place> s(trap.begin(), trap.end());
  for (const NetTransition& t : net.transitions) {
    const bool takes = std::any_of(t.pre.begin(), t.pre.end(),
                                   [&s](const Place& p) { return s.count(p) > 0; });
    if (!takes) continue;
    const bool gives = std::any_of(t.post.begin(), t.post.end(),
                                   [&s](const Place& p) { return s.count(p) > 0; });
    if (!gives) return false;
  }
  return true;
}

bool initiallyMarked(const InteractionNet& net, const std::vector<Place>& trap) {
  std::set<Place> s(trap.begin(), trap.end());
  return std::any_of(net.initial.begin(), net.initial.end(),
                     [&s](const Place& p) { return s.count(p) > 0; });
}

std::vector<std::vector<Place>> enumerateTraps(const System& system, const InteractionNet& net,
                                               const TrapOptions& options) {
  // Place universe: every (instance, location).
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

  // Trap condition: pre-place in S => some post-place in S.
  for (const NetTransition& t : net.transitions) {
    std::vector<sat::Lit> post;
    post.reserve(t.post.size());
    for (const Place& q : t.post) post.push_back(varOf.at(q));
    for (const Place& p : t.pre) {
      std::vector<sat::Lit> clause;
      clause.push_back(-varOf.at(p));
      clause.insert(clause.end(), post.begin(), post.end());
      solver.addClause(std::move(clause));
    }
  }
  // Initially marked (also forces non-emptiness).
  {
    std::vector<sat::Lit> clause;
    for (const Place& p : net.initial) clause.push_back(varOf.at(p));
    solver.addClause(std::move(clause));
  }

  std::vector<std::vector<Place>> traps;
  while (traps.size() < options.maxTraps && solver.solve() == sat::Result::kSat) {
    std::vector<Place> trap;
    for (const Place& p : places) {
      if (solver.modelValue(varOf.at(p))) trap.push_back(p);
    }
    // Greedy minimization (keeps trap-ness and initial marking).
    for (std::size_t k = trap.size(); k > 0; --k) {
      std::vector<Place> candidate = trap;
      candidate.erase(candidate.begin() + static_cast<std::ptrdiff_t>(k - 1));
      if (!candidate.empty() && isTrap(net, candidate) && initiallyMarked(net, candidate)) {
        trap = std::move(candidate);
      }
    }
    // Block this trap (and all its supersets).
    std::vector<sat::Lit> blocking;
    blocking.reserve(trap.size());
    for (const Place& p : trap) blocking.push_back(-varOf.at(p));
    solver.addClause(std::move(blocking));
    traps.push_back(std::move(trap));
  }
  return traps;
}

}  // namespace cbip::verify
