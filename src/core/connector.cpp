#include "core/connector.hpp"

#include "util/require.hpp"

namespace cbip {

int Connector::addEnd(PortRef port, bool trigger) {
  require(ends_.size() < 62, name_ + ": connectors support at most 62 ends");
  ends_.push_back(ConnectorEnd{port, trigger});
  return static_cast<int>(ends_.size()) - 1;
}

int Connector::addVariable(const std::string& name) {
  vars_.push_back(name);
  return static_cast<int>(vars_.size()) - 1;
}

void Connector::addUp(int connectorVar, Expr value) {
  require(connectorVar >= 0 && static_cast<std::size_t>(connectorVar) < vars_.size(),
          name_ + ": up-action target out of range");
  ups_.push_back(expr::Assign{expr::VarRef{expr::kConnectorScope, connectorVar},
                              std::move(value)});
}

void Connector::addDown(int end, int exportIndex, Expr value) {
  require(end >= 0 && static_cast<std::size_t>(end) < ends_.size(),
          name_ + ": down-action end out of range");
  downs_.push_back(DownAssign{end, exportIndex, std::move(value)});
}

bool Connector::hasTrigger() const {
  for (const ConnectorEnd& e : ends_) {
    if (e.trigger) return true;
  }
  return false;
}

std::vector<InteractionMask> Connector::feasibleMasks() const {
  std::vector<InteractionMask> out;
  if (ends_.empty()) return out;
  if (!hasTrigger()) {
    out.push_back(fullMask());
    return out;
  }
  require(ends_.size() <= 20,
          name_ + ": trigger connectors support at most 20 ends (mask enumeration)");
  InteractionMask triggers = 0;
  for (std::size_t i = 0; i < ends_.size(); ++i) {
    if (ends_[i].trigger) triggers |= (InteractionMask{1} << i);
  }
  const InteractionMask full = fullMask();
  for (InteractionMask m = 1; m <= full; ++m) {
    if ((m & triggers) != 0) out.push_back(m);
  }
  return out;
}

Connector rendezvous(std::string name, std::vector<PortRef> ports) {
  Connector c(std::move(name));
  for (const PortRef& p : ports) c.addSynchron(p);
  return c;
}

Connector broadcast(std::string name, PortRef sender, std::vector<PortRef> receivers) {
  Connector c(std::move(name));
  c.addTrigger(sender);
  for (const PortRef& p : receivers) c.addSynchron(p);
  return c;
}

}  // namespace cbip
