#include "core/system.hpp"

#include <mutex>
#include <sstream>
#include <string_view>
#include <unordered_set>

#include "util/require.hpp"

namespace cbip {

int System::addInstance(const std::string& name, AtomicTypePtr type) {
  require(type != nullptr, "System::addInstance: null type");
  instances_.push_back(Instance{name, std::move(type)});
  connectorsByInstance_.clear();
  compiledPub_.store(nullptr, std::memory_order_relaxed);
  compiled_.reset();
  return static_cast<int>(instances_.size()) - 1;
}

int System::addConnector(Connector connector) {
  connectors_.push_back(std::move(connector));
  connectorsByInstance_.clear();
  compiledPub_.store(nullptr, std::memory_order_relaxed);
  compiled_.reset();
  return static_cast<int>(connectors_.size()) - 1;
}

void System::removeConnector(std::size_t i) {
  require(i < connectors_.size(), "System::removeConnector: index out of range");
  connectors_.erase(connectors_.begin() + static_cast<std::ptrdiff_t>(i));
  connectorsByInstance_.clear();
  compiledPub_.store(nullptr, std::memory_order_relaxed);
  compiled_.reset();
}

const CompiledSystem& System::compiled() const {
  // Hot path: already built and published.
  if (const CompiledSystem* p = compiledPub_.load(std::memory_order_acquire)) return *p;
  static std::mutex buildMutex;
  const std::scoped_lock lock(buildMutex);
  if (!compiled_) compiled_ = std::make_unique<CompiledSystem>(*this);
  compiledPub_.store(compiled_.get(), std::memory_order_release);
  return *compiled_;
}

void System::rebuildReverseIndexIfNeeded() const {
  if (!connectorsByInstance_.empty() || instances_.empty()) return;
  connectorsByInstance_.resize(instances_.size());
  for (std::size_t ci = 0; ci < connectors_.size(); ++ci) {
    for (const ConnectorEnd& e : connectors_[ci].ends()) {
      const auto inst = static_cast<std::size_t>(e.port.instance);
      require(inst < instances_.size(), "connector '" + connectors_[ci].name() +
                                            "': instance index out of range");
      std::vector<int>& list = connectorsByInstance_[inst];
      // Ends of one connector are on distinct instances (validated), so a
      // duplicate can only come from the previous connector index.
      if (list.empty() || list.back() != static_cast<int>(ci)) {
        list.push_back(static_cast<int>(ci));
      }
    }
  }
}

const std::vector<int>& System::connectorsOf(std::size_t i) const {
  require(i < instances_.size(), "System::connectorsOf: instance index out of range");
  rebuildReverseIndexIfNeeded();
  return connectorsByInstance_[i];
}

void System::warmIndices() const {
  rebuildReverseIndexIfNeeded();
  for (const Instance& inst : instances_) {
    const AtomicType& type = *inst.type;
    // Any transitionsFrom call rebuilds the whole location/port index.
    (void)type.transitionsFrom(type.initialLocation(), kInternalPort);
    if (expr::compilationEnabled() && type.transitionCount() > 0) {
      (void)type.compiledTransition(0);
    }
  }
  if (expr::compilationEnabled()) (void)compiled();
}

bool System::indicesWarm() const {
  if (!instances_.empty() && connectorsByInstance_.empty()) return false;
  for (const Instance& inst : instances_) {
    if (!inst.type->indicesWarm()) return false;
  }
  return !expr::compilationEnabled() ||
         compiledPub_.load(std::memory_order_acquire) != nullptr;
}

void System::addPriority(PriorityRule rule) { priorities_.push_back(std::move(rule)); }

void System::validate() const {
  // Set-based duplicate detection and one validate() per distinct type:
  // the naive pairwise scan is O(n^2) in the instance count, which the
  // 10^5..10^6-component benchmark models cannot afford.
  {
    std::unordered_set<std::string_view> names;
    names.reserve(instances_.size());
    std::unordered_set<const AtomicType*> types;
    for (const Instance& inst : instances_) {
      require(names.insert(inst.name).second,
              "System: duplicate instance name '" + inst.name + "'");
      if (types.insert(inst.type.get()).second) inst.type->validate();
    }
  }
  for (const Connector& c : connectors_) {
    require(c.endCount() > 0, "connector '" + c.name() + "' has no ends");
    for (std::size_t e = 0; e < c.endCount(); ++e) {
      const PortRef& p = c.end(e).port;
      require(p.instance >= 0 && static_cast<std::size_t>(p.instance) < instances_.size(),
              "connector '" + c.name() + "': instance index out of range");
      const AtomicType& type = *instances_[static_cast<std::size_t>(p.instance)].type;
      require(p.port >= 0 && static_cast<std::size_t>(p.port) < type.portCount(),
              "connector '" + c.name() + "': port index out of range for " + type.name());
      // One component may not participate twice in the same interaction.
      for (std::size_t e2 = e + 1; e2 < c.endCount(); ++e2) {
        require(c.end(e2).port.instance != p.instance,
                "connector '" + c.name() + "': two ends on the same instance");
      }
    }
    auto checkRefs = [&](const Expr& expr, bool allowConnectorVars, const std::string& where) {
      std::vector<expr::VarRef> refs;
      expr.collectVars(refs);
      for (const expr::VarRef& r : refs) {
        if (r.scope == expr::kConnectorScope) {
          require(allowConnectorVars,
                  "connector '" + c.name() + "' " + where + ": connector variable not allowed");
          require(r.index >= 0 && static_cast<std::size_t>(r.index) < c.variableCount(),
                  "connector '" + c.name() + "' " + where + ": connector variable out of range");
          continue;
        }
        require(r.scope >= 0 && static_cast<std::size_t>(r.scope) < c.endCount(),
                "connector '" + c.name() + "' " + where + ": end scope out of range");
        const ConnectorEnd& end = c.end(static_cast<std::size_t>(r.scope));
        const AtomicType& type = *instances_[static_cast<std::size_t>(end.port.instance)].type;
        const PortDecl& port = type.port(end.port.port);
        require(r.index >= 0 && static_cast<std::size_t>(r.index) < port.exports.size(),
                "connector '" + c.name() + "' " + where + ": export index out of range");
      }
    };
    checkRefs(c.guard(), false, "guard");
    for (const expr::Assign& up : c.ups()) checkRefs(up.value, false, "up");
    for (const DownAssign& d : c.downs()) {
      require(d.end >= 0 && static_cast<std::size_t>(d.end) < c.endCount(),
              "connector '" + c.name() + "': down end out of range");
      const ConnectorEnd& end = c.end(static_cast<std::size_t>(d.end));
      const AtomicType& type = *instances_[static_cast<std::size_t>(end.port.instance)].type;
      const PortDecl& port = type.port(end.port.port);
      require(d.exportIndex >= 0 &&
                  static_cast<std::size_t>(d.exportIndex) < port.exports.size(),
              "connector '" + c.name() + "': down export index out of range");
      checkRefs(d.value, true, "down");
    }
  }
  for (const PriorityRule& rule : priorities_) {
    auto known = [this](const std::string& name) {
      for (const Connector& c : connectors_) {
        if (c.name() == name) return true;
      }
      return false;
    };
    require(known(rule.low), "priority rule: unknown connector '" + rule.low + "'");
    require(known(rule.high), "priority rule: unknown connector '" + rule.high + "'");
    if (rule.when.has_value()) {
      std::vector<expr::VarRef> refs;
      rule.when->collectVars(refs);
      for (const expr::VarRef& r : refs) {
        require(r.scope >= 0 && static_cast<std::size_t>(r.scope) < instances_.size(),
                "priority rule: instance scope out of range");
        const AtomicType& type = *instances_[static_cast<std::size_t>(r.scope)].type;
        require(r.index >= 0 && static_cast<std::size_t>(r.index) < type.variableCount(),
                "priority rule: variable index out of range");
      }
    }
  }
}

int System::instanceIndex(const std::string& name) const {
  for (std::size_t i = 0; i < instances_.size(); ++i) {
    if (instances_[i].name == name) return static_cast<int>(i);
  }
  throw ModelError("System: unknown instance '" + name + "'");
}

PortRef System::portRef(const std::string& instance, const std::string& port) const {
  const int i = instanceIndex(instance);
  const int p = instances_[static_cast<std::size_t>(i)].type->portIndex(port);
  return PortRef{i, p};
}

std::string System::endLabel(const ConnectorEnd& end) const {
  const Instance& inst = instances_[static_cast<std::size_t>(end.port.instance)];
  return inst.name + "." + inst.type->port(end.port.port).name;
}

GlobalState initialState(const System& system) {
  GlobalState g;
  g.components.reserve(system.instanceCount());
  for (const System::Instance& inst : system.instances()) {
    g.components.push_back(initialState(*inst.type));
  }
  return g;
}

std::uint64_t hashState(const GlobalState& state) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV offset basis
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xFF;
      h *= 1099511628211ULL;
    }
  };
  for (const AtomicState& c : state.components) {
    mix(static_cast<std::uint64_t>(c.location));
    for (Value v : c.vars) mix(static_cast<std::uint64_t>(v));
  }
  return h;
}

std::string formatState(const System& system, const GlobalState& state) {
  std::ostringstream os;
  for (std::size_t i = 0; i < state.components.size(); ++i) {
    if (i > 0) os << ", ";
    const System::Instance& inst = system.instance(i);
    const AtomicState& c = state.components[i];
    os << inst.name << "@" << inst.type->locationName(c.location);
    if (!c.vars.empty()) {
      os << "(";
      for (std::size_t v = 0; v < c.vars.size(); ++v) {
        if (v > 0) os << ",";
        os << inst.type->variable(static_cast<int>(v)).name << "=" << c.vars[v];
      }
      os << ")";
    }
  }
  return os.str();
}

Value GlobalContext::read(expr::VarRef ref) const {
  requireEval(ref.scope >= 0 &&
                  static_cast<std::size_t>(ref.scope) < state_->components.size(),
              "GlobalContext: instance scope out of range");
  const AtomicState& c = state_->components[static_cast<std::size_t>(ref.scope)];
  requireEval(ref.index >= 0 && static_cast<std::size_t>(ref.index) < c.vars.size(),
              "GlobalContext: variable index out of range");
  return c.vars[static_cast<std::size_t>(ref.index)];
}

void GlobalContext::write(expr::VarRef ref, Value value) {
  requireEval(ref.scope >= 0 &&
                  static_cast<std::size_t>(ref.scope) < state_->components.size(),
              "GlobalContext: instance scope out of range");
  AtomicState& c = state_->components[static_cast<std::size_t>(ref.scope)];
  requireEval(ref.index >= 0 && static_cast<std::size_t>(ref.index) < c.vars.size(),
              "GlobalContext: variable index out of range");
  c.vars[static_cast<std::size_t>(ref.index)] = value;
}

}  // namespace cbip
