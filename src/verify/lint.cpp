#include "verify/lint.hpp"

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "core/atomic.hpp"
#include "core/connector.hpp"
#include "core/semantics.hpp"

namespace cbip::verify {

using analyze::Diagnostic;
using analyze::LintKind;

std::vector<Diagnostic> lintVerify(const System& system, const DFinderOptions& options) {
  std::vector<Diagnostic> out;
  const std::vector<ComponentInvariant> invs = componentInvariants(system, options);

  // Unreachable locations: once per distinct type (instances share the
  // invariant), naming every instance that has it.
  std::map<const AtomicType*, std::vector<std::size_t>> instancesOf;
  for (std::size_t i = 0; i < system.instanceCount(); ++i) {
    instancesOf[system.instance(i).type.get()].push_back(i);
  }
  std::vector<const AtomicType*> typeOrder;  // first-instance order, deterministic
  for (std::size_t i = 0; i < system.instanceCount(); ++i) {
    const AtomicType* t = system.instance(i).type.get();
    if (instancesOf[t].front() == i) typeOrder.push_back(t);
  }
  for (const AtomicType* type : typeOrder) {
    const std::vector<std::size_t>& holders = instancesOf[type];
    const ComponentInvariant& inv = invs[holders.front()];
    std::string who;
    for (std::size_t k = 0; k < holders.size() && k < 3; ++k) {
      who += (k == 0 ? "" : ", ") + system.instance(holders[k]).name;
    }
    if (holders.size() > 3) who += ", ...";
    for (std::size_t l = 0; l < type->locationCount(); ++l) {
      if (inv.reachableLocations[l]) continue;
      out.push_back(Diagnostic{
          LintKind::kUnreachableLocation,
          "atom " + type->name() + " (instance " + who + ")",
          "location '" + type->locationName(static_cast<int>(l)) +
              "' is unreachable under the component invariant" +
              (inv.dataExact ? "" : " (location-only fallback)")});
    }
  }

  // Never-enabled interactions: connector × feasible mask where some
  // participating end has no feasible source transition — the exact
  // condition the DIS encoding uses to drop the interaction.
  for (std::size_t ci = 0; ci < system.connectorCount(); ++ci) {
    const Connector& c = system.connector(ci);
    const std::string where =
        "connector " + (c.name().empty() ? "#" + std::to_string(ci) : c.name());
    for (InteractionMask mask : c.feasibleMasks()) {
      for (std::size_t e = 0; e < c.endCount(); ++e) {
        if ((mask & (InteractionMask{1} << e)) == 0) continue;
        const PortRef& p = c.end(e).port;
        const AtomicType& type = *system.instance(static_cast<std::size_t>(p.instance)).type;
        const ComponentInvariant& inv = invs[static_cast<std::size_t>(p.instance)];
        bool hasSource = false;
        for (std::size_t ti = 0; ti < type.transitionCount() && !hasSource; ++ti) {
          const Transition& t = type.transition(static_cast<int>(ti));
          hasSource = t.port == p.port && inv.guardFeasible[ti] &&
                      inv.reachableLocations[static_cast<std::size_t>(t.from)];
        }
        if (hasSource) continue;
        out.push_back(Diagnostic{
            LintKind::kInteractionNeverEnabled, where,
            "interaction " + interactionLabel(system, static_cast<int>(ci), mask) +
                " is provably never enabled: end " + system.endLabel(c.end(e)) +
                " has no feasible transition on port '" + type.port(p.port).name +
                "' under the component invariant"});
        break;  // one finding per interaction is enough
      }
    }
  }
  return out;
}

}  // namespace cbip::verify
