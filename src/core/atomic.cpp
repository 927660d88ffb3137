#include "core/atomic.hpp"

#include <algorithm>
#include <mutex>

#include "obs/obs.hpp"
#include "util/require.hpp"

namespace cbip {

namespace {
// Telemetry (src/obs): guard-then-fire collapse rate of the fused
// dispatch path (engine/engine.hpp runInternal tau settling is the main
// caller). Counts only, never steers.
const obs::Counter g_tryFireCalls("vm.tryfire.calls");
const obs::Counter g_tryFireHits("vm.tryfire.hits");
}  // namespace

int AtomicType::addLocation(const std::string& name) {
  locations_.push_back(name);
  bySource_.clear();
  return static_cast<int>(locations_.size()) - 1;
}

int AtomicType::addVariable(const std::string& name, Value init) {
  variables_.push_back(VarDecl{name, init});
  return static_cast<int>(variables_.size()) - 1;
}

int AtomicType::addPort(const std::string& name, std::vector<int> exports) {
  ports_.push_back(PortDecl{name, std::move(exports)});
  return static_cast<int>(ports_.size()) - 1;
}

void AtomicType::addTransition(int from, int port, Expr guard,
                               std::vector<expr::Assign> actions, int to) {
  transitions_.push_back(Transition{from, port, std::move(guard), std::move(actions), to});
  bySource_.clear();
  compiled_.clear();
  compiledBuilt_.store(false, std::memory_order_relaxed);
}

void AtomicType::setInitialLocation(int loc) {
  require(loc >= 0 && static_cast<std::size_t>(loc) < locations_.size(),
          name_ + ": initial location out of range");
  initial_ = loc;
}

void AtomicType::validate() const {
  require(!locations_.empty(), name_ + ": component has no locations");
  require(initial_ >= 0 && static_cast<std::size_t>(initial_) < locations_.size(),
          name_ + ": initial location out of range");
  for (const PortDecl& p : ports_) {
    for (std::size_t a = 0; a < p.exports.size(); ++a) {
      require(p.exports[a] >= 0 && static_cast<std::size_t>(p.exports[a]) < variables_.size(),
              name_ + "." + p.name + ": exported variable index out of range");
      // Distinct exports keep connector frame slots alias-free: a down
      // write to one slot must never be observable through another.
      for (std::size_t b = a + 1; b < p.exports.size(); ++b) {
        require(p.exports[a] != p.exports[b],
                name_ + "." + p.name + ": variable exported twice through one port");
      }
    }
  }
  auto checkLocal = [this](const Expr& e, const std::string& where) {
    std::vector<expr::VarRef> refs;
    e.collectVars(refs);
    for (const expr::VarRef& r : refs) {
      require(r.scope == 0, name_ + " " + where + ": non-local variable scope");
      require(r.index >= 0 && static_cast<std::size_t>(r.index) < variables_.size(),
              name_ + " " + where + ": variable index out of range");
    }
  };
  for (std::size_t i = 0; i < transitions_.size(); ++i) {
    const Transition& t = transitions_[i];
    const std::string where = "transition #" + std::to_string(i);
    require(t.from >= 0 && static_cast<std::size_t>(t.from) < locations_.size(),
            name_ + " " + where + ": source location out of range");
    require(t.to >= 0 && static_cast<std::size_t>(t.to) < locations_.size(),
            name_ + " " + where + ": target location out of range");
    require(t.port >= kInternalPort && t.port < static_cast<int>(ports_.size()),
            name_ + " " + where + ": port index out of range");
    checkLocal(t.guard, where + " guard");
    for (const expr::Assign& a : t.actions) {
      require(a.target.scope == 0, name_ + " " + where + ": action writes non-local scope");
      require(a.target.index >= 0 &&
                  static_cast<std::size_t>(a.target.index) < variables_.size(),
              name_ + " " + where + ": action target out of range");
      checkLocal(a.value, where + " action");
    }
  }
  // Unique names within each namespace.
  auto checkUnique = [this](auto getName, std::size_t n, const char* what) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        require(getName(i) != getName(j),
                name_ + ": duplicate " + what + " name '" + getName(i) + "'");
      }
    }
  };
  checkUnique([this](std::size_t i) { return locations_[i]; }, locations_.size(), "location");
  checkUnique([this](std::size_t i) { return variables_[i].name; }, variables_.size(),
              "variable");
  checkUnique([this](std::size_t i) { return ports_[i].name; }, ports_.size(), "port");
  // Lower all transitions now: validation runs before any concurrent
  // execution, so the lazily-built cache is ready before worker threads
  // start reading it. With compilation disabled nothing is lowered at all
  // — the escape hatch must survive even a throwing compiler bug.
  if (expr::compilationEnabled()) compileIfNeeded();
}

void AtomicType::compileIfNeeded() const {
  if (compiledBuilt_.load(std::memory_order_acquire)) return;
  // Shared types may hit first-use from several threads (e.g. sibling
  // engines validating concurrently); only one performs the build.
  static std::mutex buildMutex;
  const std::scoped_lock lock(buildMutex);
  if (compiledBuilt_.load(std::memory_order_relaxed)) return;
  // Range-check every reference while lowering: the compiled evaluators
  // index the variable vector without per-access checks, so out-of-range
  // references must die here (the interpreter raises EvalError at
  // evaluation time instead).
  const expr::SlotMap slots = [this](expr::VarRef r) {
    require(r.scope == 0, name_ + ": non-local variable scope in compiled expression");
    require(r.index >= 0 && static_cast<std::size_t>(r.index) < variables_.size(),
            name_ + ": variable index out of range in compiled expression");
    return r.index;
  };
  compiled_.clear();
  compiled_.reserve(transitions_.size());
  for (const Transition& t : transitions_) {
    CompiledTransition ct;
    ct.from = t.from;
    ct.to = t.to;
    if (!t.guard.isTrue()) ct.guard = expr::compile(t.guard, slots);
    // A transition with a trivial guard and no actions keeps both fused
    // forms empty: its dispatch is a bare location move. Action targets
    // are range-checked through `slots` like every read.
    if (!t.guard.isTrue() || !t.actions.empty()) {
      ct.fused = expr::compileFused(t.guard, t.actions, slots);
    }
    if (!t.actions.empty()) {
      ct.actionBlock = expr::compileFused(Expr::top(), t.actions, slots);
    }
    compiled_.push_back(std::move(ct));
  }
  compiledBuilt_.store(true, std::memory_order_release);
}

const CompiledTransition& AtomicType::compiledTransition(int i) const {
  compileIfNeeded();
  // Engine-hot accessor (see transition()): no eager message string.
  if (i < 0 || static_cast<std::size_t>(i) >= compiled_.size()) {
    throw ModelError(name_ + ": transition index out of range");
  }
  return compiled_[static_cast<std::size_t>(i)];
}

bool AtomicType::indicesWarm() const {
  // bySource_ is non-empty once built (validated types have >= 1
  // location); it is cleared, like compiledBuilt_, whenever a transition
  // is added.
  if (bySource_.empty() && !locations_.empty()) return false;
  return !expr::compilationEnabled() || transitions_.empty() ||
         compiledBuilt_.load(std::memory_order_acquire);
}

const std::string& AtomicType::locationName(int i) const {
  require(i >= 0 && static_cast<std::size_t>(i) < locations_.size(),
          name_ + ": location index out of range");
  return locations_[static_cast<std::size_t>(i)];
}

const VarDecl& AtomicType::variable(int i) const {
  require(i >= 0 && static_cast<std::size_t>(i) < variables_.size(),
          name_ + ": variable index out of range");
  return variables_[static_cast<std::size_t>(i)];
}

const PortDecl& AtomicType::port(int i) const {
  require(i >= 0 && static_cast<std::size_t>(i) < ports_.size(),
          name_ + ": port index out of range");
  return ports_[static_cast<std::size_t>(i)];
}

const Transition& AtomicType::transition(int i) const {
  // Engine-hot accessor: the error string is built only on failure (a
  // require() call would concatenate it on every lookup).
  if (i < 0 || static_cast<std::size_t>(i) >= transitions_.size()) {
    throw ModelError(name_ + ": transition index out of range");
  }
  return transitions_[static_cast<std::size_t>(i)];
}

namespace {

template <typename F>
int indexOf(F getName, std::size_t n, const std::string& name) {
  for (std::size_t i = 0; i < n; ++i) {
    if (getName(i) == name) return static_cast<int>(i);
  }
  return -1;
}

}  // namespace

int AtomicType::locationIndex(const std::string& name) const {
  const auto i = findLocation(name);
  require(i.has_value(), name_ + ": unknown location '" + name + "'");
  return *i;
}

int AtomicType::variableIndex(const std::string& name) const {
  const auto i = findVariable(name);
  require(i.has_value(), name_ + ": unknown variable '" + name + "'");
  return *i;
}

int AtomicType::portIndex(const std::string& name) const {
  const auto i = findPort(name);
  require(i.has_value(), name_ + ": unknown port '" + name + "'");
  return *i;
}

std::optional<int> AtomicType::findLocation(const std::string& name) const {
  const int i = indexOf([this](std::size_t k) { return locations_[k]; }, locations_.size(), name);
  if (i < 0) return std::nullopt;
  return i;
}

std::optional<int> AtomicType::findVariable(const std::string& name) const {
  const int i =
      indexOf([this](std::size_t k) { return variables_[k].name; }, variables_.size(), name);
  if (i < 0) return std::nullopt;
  return i;
}

std::optional<int> AtomicType::findPort(const std::string& name) const {
  const int i = indexOf([this](std::size_t k) { return ports_[k].name; }, ports_.size(), name);
  if (i < 0) return std::nullopt;
  return i;
}

void AtomicType::rebuildIndexIfNeeded() const {
  if (!bySource_.empty()) return;
  bySource_.assign(locations_.size(),
                   std::vector<std::vector<int>>(ports_.size() + 1));
  for (std::size_t i = 0; i < transitions_.size(); ++i) {
    const Transition& t = transitions_[i];
    bySource_[static_cast<std::size_t>(t.from)][static_cast<std::size_t>(t.port + 1)].push_back(
        static_cast<int>(i));
  }
}

const std::vector<int>& AtomicType::transitionsFrom(int location, int port) const {
  rebuildIndexIfNeeded();
  // Engine-hot accessor (see transition()): no eager message strings.
  if (location < 0 || static_cast<std::size_t>(location) >= locations_.size()) {
    throw ModelError(name_ + ": location index out of range");
  }
  if (port < kInternalPort || port >= static_cast<int>(ports_.size())) {
    throw ModelError(name_ + ": port index out of range");
  }
  return bySource_[static_cast<std::size_t>(location)][static_cast<std::size_t>(port + 1)];
}

AtomicState initialState(const AtomicType& type) {
  AtomicState s;
  s.location = type.initialLocation();
  s.vars.reserve(type.variableCount());
  for (std::size_t i = 0; i < type.variableCount(); ++i) {
    s.vars.push_back(type.variable(static_cast<int>(i)).init);
  }
  return s;
}

bool guardHolds(const AtomicType& type, const AtomicState& state, int ti) {
  if (!expr::compilationEnabled()) return guardHolds(type, state, type.transition(ti));
  // The compiled form carries everything this dispatch needs (trivially
  // true <=> empty program), so the symbolic transition table is never
  // touched on the hot path.
  const CompiledTransition& ct = type.compiledTransition(ti);
  if (ct.guard.empty()) return true;
  // Programs are range-checked against the type's variable table at
  // lowering time; the frame only needs to cover that table. (The error
  // string is built only on failure — this check runs per guard.)
  if (state.vars.size() < type.variableCount()) {
    throw EvalError(type.name() + ": state has fewer variables than the type");
  }
  return ct.guard.run(state.vars) != 0;
}

bool guardHolds(const AtomicType&, const AtomicState& state, const Transition& t) {
  if (t.guard.isTrue()) return true;
  auto& vars = const_cast<std::vector<Value>&>(state.vars);
  expr::VecContext ctx(vars);
  return t.guard.eval(ctx) != 0;
}

std::vector<int> enabledTransitions(const AtomicType& type, const AtomicState& state, int port) {
  std::vector<int> out;
  enabledTransitions(type, state, port, out);
  return out;
}

void enabledTransitions(const AtomicType& type, const AtomicState& state, int port,
                        std::vector<int>& out) {
  out.clear();
  for (int ti : type.transitionsFrom(state.location, port)) {
    if (guardHolds(type, state, ti)) out.push_back(ti);
  }
}

bool portEnabled(const AtomicType& type, const AtomicState& state, int port) {
  for (int ti : type.transitionsFrom(state.location, port)) {
    if (guardHolds(type, state, ti)) return true;
  }
  return false;
}

void fire(const AtomicType& type, AtomicState& state, int ti) {
  if (!expr::compilationEnabled()) {
    fire(type, state, type.transition(ti));
    return;
  }
  const CompiledTransition& ct = type.compiledTransition(ti);
  // Per-fire checks: error strings built only on failure.
  if (ct.from != state.location) {
    throw ModelError(type.name() + ": firing transition from wrong location");
  }
  if (state.vars.size() < type.variableCount()) {
    throw EvalError(type.name() + ": state has fewer variables than the type");
  }
  // The whole action block is one dispatch; the frame *is* the live
  // variable vector, so every store lands in place (sequential assignment
  // semantics, shared subexpressions computed once).
  if (!ct.actionBlock.empty()) ct.actionBlock.run(std::span<Value>(state.vars));
  state.location = ct.to;
}

void fire(const AtomicType& type, AtomicState& state, const Transition& t) {
  require(t.from == state.location, type.name() + ": firing transition from wrong location");
  expr::VecContext ctx(state.vars);
  expr::applyAssignments(t.actions, ctx);
  state.location = t.to;
}

bool tryFire(const AtomicType& type, AtomicState& state, int ti) {
  g_tryFireCalls.add();
  if (!expr::compilationEnabled()) {
    const Transition& t = type.transition(ti);
    if (t.from != state.location) {
      throw ModelError(type.name() + ": firing transition from wrong location");
    }
    if (!guardHolds(type, state, t)) return false;
    expr::VecContext ctx(state.vars);
    expr::applyAssignments(t.actions, ctx);
    state.location = t.to;
    g_tryFireHits.add();
    return true;
  }
  const CompiledTransition& ct = type.compiledTransition(ti);
  if (ct.from != state.location) {
    throw ModelError(type.name() + ": firing transition from wrong location");
  }
  if (state.vars.size() < type.variableCount()) {
    throw EvalError(type.name() + ": state has fewer variables than the type");
  }
  // Trivial guard, no actions: the dispatch is a bare location move.
  if (!ct.fused.empty() && ct.fused.run(std::span<Value>(state.vars)) == 0) return false;
  state.location = ct.to;
  g_tryFireHits.add();
  return true;
}

void runInternal(const AtomicType& type, AtomicState& state, int maxSteps) {
  for (int step = 0; step < maxSteps; ++step) {
    // One tryFire dispatch per candidate, in transition order; the first
    // enabled one fires. No allocation, no enabled-list materialization.
    bool fired = false;
    for (int ti : type.transitionsFrom(state.location, kInternalPort)) {
      if (tryFire(type, state, ti)) {
        fired = true;
        break;
      }
    }
    if (!fired) return;
  }
  throw EvalError(type.name() + ": internal transitions diverge (> " +
                  std::to_string(maxSteps) + " tau steps)");
}

}  // namespace cbip
