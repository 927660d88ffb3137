#include "core/flatten.hpp"

#include <algorithm>

#include "util/require.hpp"

namespace cbip {

namespace {

struct VarMaps {
  std::vector<int> locVar;                 // instance -> fused var index
  std::vector<std::vector<int>> compVar;   // instance -> local var -> fused
  std::vector<std::vector<int>> connVar;   // connector -> conn var -> fused
};

Expr remapComponent(const Expr& e, const VarMaps& maps, int instance) {
  return e.mapVars([&maps, instance](expr::VarRef r) {
    require(r.scope == 0, "fuse: component expression with non-local scope");
    return expr::VarRef{0, maps.compVar[static_cast<std::size_t>(instance)]
                               [static_cast<std::size_t>(r.index)]};
  });
}

Expr remapConnector(const Expr& e, const System& system, const Connector& c, int connectorIdx,
                    const VarMaps& maps) {
  return e.mapVars([&](expr::VarRef r) {
    if (r.scope == expr::kConnectorScope) {
      return expr::VarRef{0, maps.connVar[static_cast<std::size_t>(connectorIdx)]
                                 [static_cast<std::size_t>(r.index)]};
    }
    const ConnectorEnd& end = c.end(static_cast<std::size_t>(r.scope));
    const AtomicType& type =
        *system.instance(static_cast<std::size_t>(end.port.instance)).type;
    const PortDecl& port = type.port(end.port.port);
    const int localVar = port.exports[static_cast<std::size_t>(r.index)];
    return expr::VarRef{0, maps.compVar[static_cast<std::size_t>(end.port.instance)]
                               [static_cast<std::size_t>(localVar)]};
  });
}

/// Enabling condition of one (interaction, transition tuple): location
/// tests + transition guards + connector guard, all over fused variables.
Expr tupleGuard(const System& system, const Connector& c, int connectorIdx,
                const std::vector<int>& ends, const std::vector<const Transition*>& tuple,
                const VarMaps& maps) {
  Expr g = Expr::top();
  bool first = true;
  auto conjoin = [&g, &first](Expr e) {
    if (e.isTrue()) return;
    g = first ? std::move(e) : (std::move(g) && std::move(e));
    first = false;
  };
  for (std::size_t k = 0; k < ends.size(); ++k) {
    const ConnectorEnd& end = c.end(static_cast<std::size_t>(ends[k]));
    const int inst = end.port.instance;
    conjoin(Expr::local(maps.locVar[static_cast<std::size_t>(inst)]) ==
            Expr::lit(tuple[k]->from));
    conjoin(remapComponent(tuple[k]->guard, maps, inst));
  }
  if (!c.guard().isTrue()) conjoin(remapConnector(c.guard(), system, c, connectorIdx, maps));
  return first ? Expr::top() : g;
}

}  // namespace

FusedComponent fuse(const System& system) {
  system.validate();
  auto fusedType = std::make_shared<AtomicType>("fused");
  const int main = fusedType->addLocation("main");
  fusedType->setInitialLocation(main);

  VarMaps maps;
  maps.locVar.resize(system.instanceCount());
  maps.compVar.resize(system.instanceCount());
  for (std::size_t i = 0; i < system.instanceCount(); ++i) {
    const System::Instance& inst = system.instance(i);
    maps.locVar[i] =
        fusedType->addVariable(inst.name + "@loc", inst.type->initialLocation());
    maps.compVar[i].resize(inst.type->variableCount());
    for (std::size_t v = 0; v < inst.type->variableCount(); ++v) {
      const VarDecl& d = inst.type->variable(static_cast<int>(v));
      maps.compVar[i][v] = fusedType->addVariable(inst.name + "." + d.name, d.init);
    }
  }
  maps.connVar.resize(system.connectorCount());
  for (std::size_t ci = 0; ci < system.connectorCount(); ++ci) {
    const Connector& c = system.connector(ci);
    maps.connVar[ci].resize(c.variableCount());
    for (std::size_t v = 0; v < c.variableCount(); ++v) {
      maps.connVar[ci][v] =
          fusedType->addVariable(c.name() + "#" + c.variableName(v), 0);
    }
  }

  // Enumerate interaction instances: (connector, mask) with all transition
  // tuples, remembering bare guards for the priority encoding.
  struct FusedTransition {
    int connector;
    InteractionMask mask;
    Expr guard;
    std::vector<expr::Assign> actions;
    std::string label;
  };
  std::vector<FusedTransition> work;
  // (connector, mask) -> disjunction of bare tuple guards (for priorities).
  struct InteractionGuard {
    int connector;
    InteractionMask mask;
    Expr enabled;
    bool any = false;
  };
  std::vector<InteractionGuard> interactionGuards;

  for (std::size_t ci = 0; ci < system.connectorCount(); ++ci) {
    const Connector& c = system.connector(ci);
    for (InteractionMask mask : c.feasibleMasks()) {
      std::vector<int> ends;
      std::vector<std::vector<const Transition*>> options;
      for (std::size_t e = 0; e < c.endCount(); ++e) {
        if ((mask & (InteractionMask{1} << e)) == 0) continue;
        ends.push_back(static_cast<int>(e));
        const PortRef& p = c.end(e).port;
        const AtomicType& type =
            *system.instance(static_cast<std::size_t>(p.instance)).type;
        std::vector<const Transition*> ts;
        for (std::size_t ti = 0; ti < type.transitionCount(); ++ti) {
          const Transition& t = type.transition(static_cast<int>(ti));
          if (t.port == p.port) ts.push_back(&t);
        }
        options.push_back(std::move(ts));
      }
      const bool feasible =
          std::none_of(options.begin(), options.end(),
                       [](const auto& ts) { return ts.empty(); });
      InteractionGuard ig{static_cast<int>(ci), mask, Expr::lit(0), false};
      if (feasible) {
        // Cartesian product over per-end transition options.
        std::vector<std::size_t> pick(options.size(), 0);
        while (true) {
          std::vector<const Transition*> tuple;
          tuple.reserve(options.size());
          for (std::size_t k = 0; k < options.size(); ++k) tuple.push_back(options[k][pick[k]]);
          Expr guard = tupleGuard(system, c, static_cast<int>(ci), ends, tuple, maps);
          ig.enabled = ig.any ? (ig.enabled || guard) : guard;
          ig.any = true;

          FusedTransition ft;
          ft.connector = static_cast<int>(ci);
          ft.mask = mask;
          ft.guard = guard;
          ft.label = interactionLabel(system, static_cast<int>(ci), mask);
          // Data transfer first (up, then down to participating ends)...
          for (const expr::Assign& up : c.ups()) {
            ft.actions.push_back(expr::Assign{
                expr::VarRef{0, maps.connVar[ci][static_cast<std::size_t>(up.target.index)]},
                remapConnector(up.value, system, c, static_cast<int>(ci), maps)});
          }
          for (const DownAssign& d : c.downs()) {
            if ((mask & (InteractionMask{1} << static_cast<unsigned>(d.end))) == 0) continue;
            const ConnectorEnd& end = c.end(static_cast<std::size_t>(d.end));
            const AtomicType& type =
                *system.instance(static_cast<std::size_t>(end.port.instance)).type;
            const int localVar =
                type.port(end.port.port).exports[static_cast<std::size_t>(d.exportIndex)];
            ft.actions.push_back(expr::Assign{
                expr::VarRef{0, maps.compVar[static_cast<std::size_t>(end.port.instance)]
                                    [static_cast<std::size_t>(localVar)]},
                remapConnector(d.value, system, c, static_cast<int>(ci), maps)});
          }
          // ...then the participants' actions and location moves.
          for (std::size_t k = 0; k < ends.size(); ++k) {
            const ConnectorEnd& end = c.end(static_cast<std::size_t>(ends[k]));
            const int inst = end.port.instance;
            for (const expr::Assign& a : tuple[k]->actions) {
              ft.actions.push_back(expr::Assign{
                  expr::VarRef{0, maps.compVar[static_cast<std::size_t>(inst)]
                                      [static_cast<std::size_t>(a.target.index)]},
                  remapComponent(a.value, maps, inst)});
            }
            ft.actions.push_back(
                expr::Assign{expr::VarRef{0, maps.locVar[static_cast<std::size_t>(inst)]},
                             Expr::lit(tuple[k]->to)});
          }
          work.push_back(std::move(ft));

          std::size_t k = 0;
          while (k < pick.size()) {
            if (++pick[k] < options[k].size()) break;
            pick[k] = 0;
            ++k;
          }
          if (k == pick.size()) break;
        }
      }
      interactionGuards.push_back(std::move(ig));
    }
  }

  // Statically encode priorities: strengthen dominated guards.
  for (FusedTransition& ft : work) {
    Expr negations = Expr::top();
    bool strengthened = false;
    auto dominateBy = [&](const Expr& high) {
      negations = strengthened ? (std::move(negations) && !high) : !high;
      strengthened = true;
    };
    if (system.maximalProgress()) {
      for (const auto& ig : interactionGuards) {
        if (!ig.any || ig.connector != ft.connector) continue;
        if (ig.mask != ft.mask && (ft.mask & ig.mask) == ft.mask) dominateBy(ig.enabled);
      }
    }
    const std::string& lowName =
        system.connector(static_cast<std::size_t>(ft.connector)).name();
    for (const PriorityRule& rule : system.priorities()) {
      if (rule.low != lowName) continue;
      for (const auto& ig : interactionGuards) {
        if (!ig.any ||
            system.connector(static_cast<std::size_t>(ig.connector)).name() != rule.high) {
          continue;
        }
        Expr high = ig.enabled;
        if (rule.when.has_value()) {
          Expr when = rule.when->mapVars([&maps](expr::VarRef r) {
            return expr::VarRef{0, maps.compVar[static_cast<std::size_t>(r.scope)]
                                       [static_cast<std::size_t>(r.index)]};
          });
          high = std::move(when) && std::move(high);
        }
        dominateBy(high);
      }
    }
    if (strengthened) ft.guard = ft.guard && negations;
  }

  // Emit ports and transitions (guards simplified: the priority encoding
  // introduces many constant subterms).
  FusedComponent out;
  for (FusedTransition& ft : work) {
    const int port = fusedType->addPort(ft.label);
    out.portLabels.push_back(ft.label);
    fusedType->addTransition(main, port, ft.guard.simplified(), std::move(ft.actions), main);
  }
  // Internal transitions of every instance stay internal.
  for (std::size_t i = 0; i < system.instanceCount(); ++i) {
    const AtomicType& type = *system.instance(i).type;
    for (std::size_t ti = 0; ti < type.transitionCount(); ++ti) {
      const Transition& t = type.transition(static_cast<int>(ti));
      if (t.port != kInternalPort) continue;
      Expr guard = Expr::local(maps.locVar[i]) == Expr::lit(t.from);
      if (!t.guard.isTrue()) {
        guard = std::move(guard) && remapComponent(t.guard, maps, static_cast<int>(i));
      }
      std::vector<expr::Assign> actions;
      for (const expr::Assign& a : t.actions) {
        actions.push_back(
            expr::Assign{expr::VarRef{0, maps.compVar[i][static_cast<std::size_t>(a.target.index)]},
                         remapComponent(a.value, maps, static_cast<int>(i))});
      }
      actions.push_back(expr::Assign{expr::VarRef{0, maps.locVar[i]}, Expr::lit(t.to)});
      fusedType->addTransition(main, kInternalPort, std::move(guard), std::move(actions), main);
    }
  }

  fusedType->validate();
  out.type = std::move(fusedType);
  return out;
}

std::vector<std::string> enabledLabels(const FusedComponent& fused, const AtomicState& state) {
  std::vector<std::string> out;
  const AtomicType& type = *fused.type;
  for (std::size_t p = 0; p < type.portCount(); ++p) {
    if (portEnabled(type, state, static_cast<int>(p))) {
      out.push_back(fused.portLabels[p]);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::string step(const FusedComponent& fused, AtomicState& state, Rng& rng) {
  const AtomicType& type = *fused.type;
  std::vector<int> enabled;  // transition indices over all ports
  for (std::size_t p = 0; p < type.portCount(); ++p) {
    for (int ti : enabledTransitions(type, state, static_cast<int>(p))) enabled.push_back(ti);
  }
  if (enabled.empty()) return {};
  const int pick = enabled[rng.index(enabled.size())];
  const Transition& t = type.transition(pick);
  fire(type, state, pick);
  runInternal(type, state);
  return fused.portLabels[static_cast<std::size_t>(t.port)];
}

}  // namespace cbip
