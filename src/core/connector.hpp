// BIP connectors: structured multiparty interactions.
//
// A connector attaches to a set of component ports ("ends"). Each end is
// either a *trigger* (can initiate the interaction) or a *synchron* (may
// only join). The feasible interactions of a connector are the complete
// subsets of its ends (monograph Section 1.2 / the BIP connector algebra):
//   * if the connector has at least one trigger, every non-empty subset
//     containing a trigger is an interaction (broadcast-like semantics);
//   * if all ends are synchrons, the only interaction is the full set
//     (strong rendezvous).
//
// Data transfer happens in two phases, as in the BIP engine:
//   * "up":   connector-local variables are computed from port variables;
//   * "down": participating ports' exported variables are written back
//             from port variables and connector variables.
// The connector guard is evaluated over port variables before transfer.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "expr/expr.hpp"

namespace cbip {

using expr::Expr;
using expr::Value;

/// Reference to the `port`-th port of the `instance`-th component instance
/// of a System.
struct PortRef {
  int instance = 0;
  int port = 0;
  friend bool operator==(const PortRef&, const PortRef&) = default;
};

struct ConnectorEnd {
  PortRef port;
  bool trigger = false;
};

/// Bit mask over a connector's ends; end i participates iff bit i is set.
using InteractionMask = std::uint64_t;

/// Writes back the value of expression `value` into exported variable
/// `exportIndex` of end `end` (skipped when the end does not participate
/// in the chosen interaction).
struct DownAssign {
  int end = 0;
  int exportIndex = 0;
  Expr value;  // scopes: end positions >= 0, connector vars = kConnectorScope
};

class Connector {
 public:
  Connector() = default;
  explicit Connector(std::string name) : name_(std::move(name)) {}

  // ---- construction ----
  /// Adds an end; returns its position (the scope used in expressions).
  int addEnd(PortRef port, bool trigger = false);
  int addSynchron(PortRef port) { return addEnd(port, false); }
  int addTrigger(PortRef port) { return addEnd(port, true); }
  /// Adds a connector-local variable, returns its index.
  int addVariable(const std::string& name);
  /// Guard over port variables; defaults to true.
  void setGuard(Expr guard) { guard_ = std::move(guard); }
  /// Up action: connectorVar := value(port variables).
  void addUp(int connectorVar, Expr value);
  /// Down action: end.export := value(port vars, connector vars).
  void addDown(int end, int exportIndex, Expr value);

  // ---- queries ----
  const std::string& name() const { return name_; }
  void setName(std::string n) { name_ = std::move(n); }
  std::size_t endCount() const { return ends_.size(); }
  const ConnectorEnd& end(std::size_t i) const { return ends_[i]; }
  const std::vector<ConnectorEnd>& ends() const { return ends_; }
  std::size_t variableCount() const { return vars_.size(); }
  const std::string& variableName(std::size_t i) const { return vars_[i]; }
  const Expr& guard() const { return guard_; }
  const std::vector<expr::Assign>& ups() const { return ups_; }
  const std::vector<DownAssign>& downs() const { return downs_; }
  bool hasTrigger() const;

  /// All feasible interaction masks, in increasing mask order.
  std::vector<InteractionMask> feasibleMasks() const;

  /// The full-participation mask.
  InteractionMask fullMask() const {
    return ends_.empty() ? 0 : (InteractionMask{1} << ends_.size()) - 1;
  }

 private:
  std::string name_;
  std::vector<ConnectorEnd> ends_;
  std::vector<std::string> vars_;
  Expr guard_ = Expr::top();
  std::vector<expr::Assign> ups_;    // targets have scope kConnectorScope
  std::vector<DownAssign> downs_;
};

/// Convenience constructor: strong rendezvous of the given ports.
Connector rendezvous(std::string name, std::vector<PortRef> ports);

/// Convenience constructor: broadcast with `sender` as trigger and the
/// rest as synchrons.
Connector broadcast(std::string name, PortRef sender, std::vector<PortRef> receivers);

}  // namespace cbip
