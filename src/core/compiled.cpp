#include "core/compiled.hpp"

#include "core/system.hpp"
#include "util/require.hpp"

namespace cbip {

CompiledConnector::CompiledConnector(const System& system, const Connector& connector) {
  // Scratch-frame layout: each end's exports contiguously, then connector
  // vars.
  std::vector<int> endBase(connector.endCount(), 0);
  int next = 0;
  for (std::size_t e = 0; e < connector.endCount(); ++e) {
    endBase[e] = next;
    const ConnectorEnd& end = connector.end(e);
    const AtomicType& type = *system.instance(static_cast<std::size_t>(end.port.instance)).type;
    const PortDecl& port = type.port(end.port.port);
    for (std::size_t k = 0; k < port.exports.size(); ++k) {
      loads_.push_back(Load{next, end.port.instance, port.exports[k]});
      ++next;
    }
  }
  const int connectorVarBase = next;
  frameSize_ = next + static_cast<std::int32_t>(connector.variableCount());

  const expr::SlotMap slots = [&](expr::VarRef r) {
    if (r.scope == expr::kConnectorScope) {
      require(r.index >= 0 && static_cast<std::size_t>(r.index) < connector.variableCount(),
              "connector '" + connector.name() + "': connector variable out of range");
      return connectorVarBase + r.index;
    }
    require(r.scope >= 0 && static_cast<std::size_t>(r.scope) < connector.endCount(),
            "connector '" + connector.name() + "': end scope out of range");
    const ConnectorEnd& end = connector.end(static_cast<std::size_t>(r.scope));
    const AtomicType& type = *system.instance(static_cast<std::size_t>(end.port.instance)).type;
    const PortDecl& port = type.port(end.port.port);
    require(r.index >= 0 && static_cast<std::size_t>(r.index) < port.exports.size(),
            "connector '" + connector.name() + "': export index out of range");
    return endBase[static_cast<std::size_t>(r.scope)] + r.index;
  };

  if (!connector.guard().isTrue()) {
    guard_ = expr::compile(connector.guard(), slots);
  }
  for (const expr::Assign& up : connector.ups()) {
    require(up.target.scope == expr::kConnectorScope,
            "connector '" + connector.name() + "': up target is not a connector variable");
  }
  // The up block always executes as a whole, so it fuses into one program
  // (downs do not: their execution set depends on the interaction mask).
  if (!connector.ups().empty()) {
    upBlock_ = expr::compileFused(Expr::top(), connector.ups(), slots);
  }
  downs_.reserve(connector.downs().size());
  for (const DownAssign& d : connector.downs()) {
    const int slot = slots(expr::VarRef{d.end, d.exportIndex});
    const ConnectorEnd& end = connector.end(static_cast<std::size_t>(d.end));
    const AtomicType& type = *system.instance(static_cast<std::size_t>(end.port.instance)).type;
    const int var = type.port(end.port.port).exports[static_cast<std::size_t>(d.exportIndex)];
    downs_.push_back(Down{d.end, slot, end.port.instance, var, expr::compile(d.value, slots)});
  }
}

void CompiledConnector::gather(const GlobalState& state, std::span<Value> frame) const {
  for (const Load& l : loads_) {
    frame[static_cast<std::size_t>(l.slot)] =
        state.components[static_cast<std::size_t>(l.instance)]
            .vars[static_cast<std::size_t>(l.var)];
  }
  for (std::size_t s = loads_.size(); s < frame.size(); ++s) frame[s] = 0;
}

void CompiledConnector::transfer(GlobalState& state, std::span<Value> frame,
                                 InteractionMask mask) const {
  if (!upBlock_.empty()) upBlock_.run(frame);
  for (const Down& d : downs_) {
    if ((mask & (InteractionMask{1} << static_cast<unsigned>(d.end))) == 0) continue;
    const Value v = d.value.run(std::span<const Value>(frame));
    frame[static_cast<std::size_t>(d.targetSlot)] = v;
    state.components[static_cast<std::size_t>(d.instance)].vars[static_cast<std::size_t>(d.var)] =
        v;
  }
}

CompiledSystem::CompiledSystem(const System& system) {
  connectors_.reserve(system.connectorCount());
  for (std::size_t ci = 0; ci < system.connectorCount(); ++ci) {
    connectors_.emplace_back(system, system.connector(ci));
  }
}

}  // namespace cbip
