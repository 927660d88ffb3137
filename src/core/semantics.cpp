#include "core/semantics.hpp"

#include <algorithm>
#include <bit>

#include "obs/obs.hpp"
#include "util/require.hpp"

namespace cbip {

namespace {

// Telemetry (src/obs): how many connectors the incremental cache queues per
// update and how many of them survive the offer test and are built. Counts
// only, never steers.
const obs::Counter g_cacheUpdates("cache.updates");
const obs::Counter g_cacheRecomputes("cache.recomputes");
const obs::Histogram g_cacheDirty("cache.dirty_connectors");

/// Resolves connector expressions against a global state: scope >= 0 is
/// the scope-th end's exported variable, kConnectorScope the connector's
/// local variables.
class InteractionContext final : public expr::EvalContext {
 public:
  InteractionContext(const System& system, const Connector& connector, GlobalState& state,
                     std::vector<Value>& connectorVars)
      : system_(&system), connector_(&connector), state_(&state), vars_(&connectorVars) {}

  Value read(expr::VarRef ref) const override {
    if (ref.scope == expr::kConnectorScope) {
      requireEval(ref.index >= 0 && static_cast<std::size_t>(ref.index) < vars_->size(),
                  "connector variable out of range");
      return (*vars_)[static_cast<std::size_t>(ref.index)];
    }
    return componentVar(ref);
  }

  void write(expr::VarRef ref, Value value) override {
    if (ref.scope == expr::kConnectorScope) {
      requireEval(ref.index >= 0 && static_cast<std::size_t>(ref.index) < vars_->size(),
                  "connector variable out of range");
      (*vars_)[static_cast<std::size_t>(ref.index)] = value;
      return;
    }
    componentVar(ref) = value;
  }

 private:
  Value& componentVar(expr::VarRef ref) const {
    requireEval(ref.scope >= 0 && static_cast<std::size_t>(ref.scope) < connector_->endCount(),
                "connector expression: end scope out of range");
    const ConnectorEnd& end = connector_->end(static_cast<std::size_t>(ref.scope));
    const AtomicType& type =
        *system_->instance(static_cast<std::size_t>(end.port.instance)).type;
    const PortDecl& port = type.port(end.port.port);
    requireEval(ref.index >= 0 && static_cast<std::size_t>(ref.index) < port.exports.size(),
                "connector expression: export index out of range");
    AtomicState& comp = state_->components[static_cast<std::size_t>(end.port.instance)];
    return comp.vars[static_cast<std::size_t>(port.exports[static_cast<std::size_t>(ref.index)])];
  }

  const System* system_;
  const Connector* connector_;
  GlobalState* state_;
  std::vector<Value>* vars_;
};

bool maskSubset(InteractionMask a, InteractionMask b) {  // a strictly inside b
  return a != b && (a & b) == a;
}

/// Connector `ci`'s (non-trivial) guard over the current state.
bool connectorGuardHolds(const System& system, std::size_t ci, const GlobalState& state) {
  if (expr::compilationEnabled()) {
    const CompiledConnector& cc = system.compiled().connector(ci);
    static thread_local std::vector<Value> frame;
    frame.resize(cc.frameSize());
    cc.gather(state, frame);
    return cc.evalGuard(frame) != 0;
  }
  const Connector& c = system.connector(ci);
  auto& mutableState = const_cast<GlobalState&>(state);
  std::vector<Value> noVars;
  InteractionContext ctx(system, c, mutableState, noVars);
  return c.guard().eval(ctx) != 0;
}

}  // namespace

std::vector<EnabledInteraction> enabledInteractions(const System& system,
                                                    const GlobalState& state) {
  EnabledInteractionCache cache(system);
  cache.reset(state);
  return cache.spans_.release();
}

EnabledInteractionCache::EnabledInteractionCache(const System& system)
    : EnabledInteractionCache(system, {}, false) {}

EnabledInteractionCache::EnabledInteractionCache(const System& system,
                                                 std::vector<int> connectors)
    : EnabledInteractionCache(system, std::move(connectors), true) {}

EnabledInteractionCache::EnabledInteractionCache(const System& system,
                                                 std::vector<int> connectors, bool subset)
    : system_(&system),
      subset_(subset),
      connectors_(std::move(connectors)),
      portBase_(system.instanceCount(), subset ? -1 : 0),
      instanceSeen_(system.instanceCount(), 0) {
  const std::size_t positions = subset_ ? connectors_.size() : system.connectorCount();
  if (subset_) {
    position_.assign(system.connectorCount(), -1);
    for (std::size_t pos = 0; pos < positions; ++pos) {
      const int ci = connectors_[pos];
      require(ci >= 0 && static_cast<std::size_t>(ci) < system.connectorCount() &&
                  (pos == 0 || connectors_[pos - 1] < ci),
              "EnabledInteractionCache: connectors must be ascending connector indices");
      position_[static_cast<std::size_t>(ci)] = static_cast<int>(pos);
      for (const ConnectorEnd& e : system.connector(static_cast<std::size_t>(ci)).ends()) {
        instanceSeen_[static_cast<std::size_t>(e.port.instance)] = 1;
      }
    }
  }
  // One offer slot per (covered instance, port); only the ports some
  // covered connector uses are ever evaluated.
  int slots = 0;
  for (std::size_t i = 0; i < system.instanceCount(); ++i) {
    if (subset_) {
      if (instanceSeen_[i] == 0) continue;
      instanceSeen_[i] = 0;
      covered_.push_back(static_cast<int>(i));
    }
    portBase_[i] = slots;
    slots += static_cast<int>(system.instance(i).type->portCount());
  }
  connected_.assign(static_cast<std::size_t>(slots), 0);
  offered_.assign(static_cast<std::size_t>(slots), 0);
  offers_.resize(static_cast<std::size_t>(slots));
  endBegin_.assign(positions + 1, 0);
  maskBegin_.assign(positions + 1, 0);
  for (std::size_t pos = 0; pos < positions; ++pos) {
    const Connector& c = system.connector(static_cast<std::size_t>(connectorAt(pos)));
    for (const ConnectorEnd& e : c.ends()) {
      const int slot = portBase_[static_cast<std::size_t>(e.port.instance)] + e.port.port;
      connected_[static_cast<std::size_t>(slot)] = 1;
      endSlot_.push_back(slot);
    }
    endBegin_[pos + 1] = static_cast<int>(endSlot_.size());
    const std::vector<InteractionMask> masks = c.feasibleMasks();
    masks_.insert(masks_.end(), masks.begin(), masks.end());
    maskBegin_[pos + 1] = static_cast<int>(masks_.size());
  }
  spans_ = EnabledSpans(positions);
}

void EnabledInteractionCache::refreshOffers(const GlobalState& state) {
  // Port-major (see "Guard evaluation order"): each guard runs in place
  // on its instance's variables, through the compiled program or the
  // interpreter, so both paths raise the same first EvalError.
  for (std::size_t port = 0;; ++port) {
    bool morePorts = false;
    for (const int inst : refresh_) {
      const auto i = static_cast<std::size_t>(inst);
      const AtomicType& type = *system_->instance(i).type;
      if (port >= type.portCount()) continue;
      morePorts = true;
      const auto slot = static_cast<std::size_t>(portBase_[i]) + port;
      if (!connected_[slot]) continue;
      std::vector<int>& offers = offers_[slot];
      offers.clear();
      const AtomicState& comp = state.components[i];
      for (const int ti : type.transitionsFrom(comp.location, static_cast<int>(port))) {
        if (guardHolds(type, comp, ti)) offers.push_back(ti);
      }
      offered_[slot] = offers.empty() ? 0 : 1;
    }
    if (!morePorts) break;
  }
}

InteractionMask EnabledInteractionCache::offeredEnds(std::size_t pos) const {
  InteractionMask offered = 0;
  for (int e = endBegin_[pos]; e < endBegin_[pos + 1]; ++e) {
    if (offered_[static_cast<std::size_t>(endSlot_[static_cast<std::size_t>(e)])]) {
      offered |= InteractionMask{1} << (e - endBegin_[pos]);
    }
  }
  return offered;
}

bool EnabledInteractionCache::portFeasible(std::size_t pos) const {
  const InteractionMask offered = offeredEnds(pos);
  for (int m = maskBegin_[pos]; m < maskBegin_[pos + 1]; ++m) {
    if ((masks_[static_cast<std::size_t>(m)] & ~offered) == 0) return true;
  }
  return false;
}

void EnabledInteractionCache::buildConnector(std::size_t pos, const GlobalState& state,
                                             EnabledSpans::Shells& shells) {
  const InteractionMask offered = offeredEnds(pos);
  const int* slots = endSlot_.data() + endBegin_[pos];
  const auto ci = static_cast<std::size_t>(connectorAt(pos));
  bool guardKnown = system_->connector(ci).guard().isTrue();
  for (int m = maskBegin_[pos]; m < maskBegin_[pos + 1]; ++m) {
    const InteractionMask mask = masks_[static_cast<std::size_t>(m)];
    if ((mask & ~offered) != 0) continue;
    if (!guardKnown) {
      // The guard is pure over the current state, so its value is shared
      // by every mask: evaluated at most once, and only when some mask
      // has all its ends offered.
      if (!connectorGuardHolds(*system_, ci, state)) return;
      guardKnown = true;
    }
    fillInteraction(shells.next(), static_cast<int>(ci), mask,
                    [&](std::size_t e) -> const std::vector<int>& {
                      return offers_[static_cast<std::size_t>(slots[e])];
                    });
  }
}

void EnabledInteractionCache::reset(const GlobalState& state) {
  std::fill(instanceSeen_.begin(), instanceSeen_.end(), 0);
  if (subset_) {
    refresh_.assign(covered_.begin(), covered_.end());
  } else {
    refresh_.resize(system_->instanceCount());
    for (std::size_t i = 0; i < refresh_.size(); ++i) refresh_[i] = static_cast<int>(i);
  }
  refreshOffers(state);
  spans_.rebuild(endBegin_.size() - 1, [&](std::size_t pos, auto& shells) {
    buildConnector(pos, state, shells);
  });
}

void EnabledInteractionCache::update(const GlobalState& state,
                                     std::span<const int> dirtyInstances) {
  g_cacheUpdates.add();
  refresh_.clear();
  // Instances on no covered connector are dropped here, before any guard
  // runs: a subset cache touches nothing outside its connectors.
  for (const int inst : dirtyInstances) {
    const auto i = static_cast<std::size_t>(inst);
    if (instanceSeen_[i] || portBase_[i] < 0) continue;
    instanceSeen_[i] = 1;
    refresh_.push_back(inst);
  }
  for (const int inst : refresh_) instanceSeen_[static_cast<std::size_t>(inst)] = 0;
  refreshOffers(state);
  // A connector of a dirty instance is rebuilt when its offers admit some
  // feasible mask, and emptied when they admit none but its span is not
  // empty yet; one with an empty span and no admissible mask is left alone.
  std::uint64_t built = 0;
  for (const int inst : refresh_) {
    for (const int ci : system_->connectorsOf(static_cast<std::size_t>(inst))) {
      const int pos = positionOf(ci);
      if (pos < 0) continue;
      const auto p = static_cast<std::size_t>(pos);
      if (spans_.queued(p)) continue;
      const bool feasible = portFeasible(p);
      if (!feasible && spans_.count(p) == 0) continue;
      spans_.queue(p);
      built += feasible ? 1 : 0;
    }
  }
  g_cacheRecomputes.add(built);
  g_cacheDirty.observe(static_cast<std::int64_t>(spans_.queuedCount()));
  spans_.splice([&](std::size_t pos, auto& shells) { buildConnector(pos, state, shells); });
}

bool EnabledInteractionCache::stationary(const Connector& c, int end,
                                         const std::vector<int>& choices) const {
  for (const DownAssign& d : c.downs()) {
    if (d.end == end) return false;
  }
  const int instance = c.end(static_cast<std::size_t>(end)).port.instance;
  const AtomicType& type = *system_->instance(static_cast<std::size_t>(instance)).type;
  for (const int ti : choices) {
    const Transition& t = type.transition(ti);
    if (t.from != t.to || !t.actions.empty() ||
        !type.transitionsFrom(t.from, kInternalPort).empty()) {
      return false;
    }
  }
  return true;
}

void EnabledInteractionCache::updateAfterExecute(const GlobalState& state,
                                                 const EnabledInteraction& executed) {
  const Connector& c = system_->connector(static_cast<std::size_t>(executed.connector));
  // Reused member buffer: the per-step dirty set allocates only until its
  // capacity covers the widest executed connector.
  dirtyScratch_.clear();
  for (std::size_t k = 0; k < executed.ends.size(); ++k) {
    const int end = executed.ends[k];
    if (!stationary(c, end, executed.choices[k])) {
      dirtyScratch_.push_back(c.end(static_cast<std::size_t>(end)).port.instance);
    }
  }
  update(state, dirtyScratch_);
}

std::vector<EnabledInteraction> applyPriorities(const System& system, const GlobalState& state,
                                                std::vector<EnabledInteraction> enabled) {
  if (enabled.empty()) return enabled;
  const std::size_t n = enabled.size();
  std::vector<bool> dominated(n, false);

  if (system.maximalProgress()) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (i == j || enabled[i].connector != enabled[j].connector) continue;
        if (maskSubset(enabled[i].mask, enabled[j].mask)) dominated[i] = true;
      }
    }
  }

  if (!system.priorities().empty()) {
    auto& mutableState = const_cast<GlobalState&>(state);
    GlobalContext ctx(mutableState);
    for (const PriorityRule& rule : system.priorities()) {
      if (rule.when.has_value() && rule.when->eval(ctx) == 0) continue;
      // Does some interaction of `high` remain enabled at all?
      bool highEnabled = false;
      for (std::size_t j = 0; j < n; ++j) {
        if (system.connector(static_cast<std::size_t>(enabled[j].connector)).name() ==
            rule.high) {
          highEnabled = true;
          break;
        }
      }
      if (!highEnabled) continue;
      for (std::size_t i = 0; i < n; ++i) {
        if (system.connector(static_cast<std::size_t>(enabled[i].connector)).name() ==
            rule.low) {
          dominated[i] = true;
        }
      }
    }
  }

  std::vector<EnabledInteraction> out;
  for (std::size_t i = 0; i < n; ++i) {
    if (!dominated[i]) out.push_back(std::move(enabled[i]));
  }
  require(!out.empty(),
          "applyPriorities: all enabled interactions dominated (cyclic priority rules?)");
  return out;
}

void connectorTransfer(const System& system, GlobalState& state,
                       const EnabledInteraction& interaction) {
  const Connector& c = system.connector(static_cast<std::size_t>(interaction.connector));
  if (expr::compilationEnabled()) {
    const CompiledConnector& cc = system.compiled().connector(
        static_cast<std::size_t>(interaction.connector));
    if (!cc.hasTransfer()) return;
    static thread_local std::vector<Value> frame;
    frame.resize(cc.frameSize());
    cc.gather(state, frame);
    cc.transfer(state, frame, interaction.mask);
    return;
  }
  // Interpreted fallback: up then down (down only to participating ends).
  std::vector<Value> connectorVars(c.variableCount(), 0);
  InteractionContext ctx(system, c, state, connectorVars);
  expr::applyAssignments(c.ups(), ctx);
  for (const DownAssign& d : c.downs()) {
    const bool participates =
        (interaction.mask & (InteractionMask{1} << static_cast<unsigned>(d.end))) != 0;
    if (!participates) continue;
    const Value v = d.value.eval(ctx);
    ctx.write(expr::VarRef{d.end, d.exportIndex}, v);
  }
}

void execute(const System& system, GlobalState& state, const EnabledInteraction& interaction,
             std::span<const int> transitionChoice) {
  const Connector& c = system.connector(static_cast<std::size_t>(interaction.connector));
  require(transitionChoice.size() == interaction.ends.size(),
          "execute: transition choice arity mismatch");

  connectorTransfer(system, state, interaction);

  // Fire one enabled transition per participant, then run tau steps.
  for (std::size_t k = 0; k < interaction.ends.size(); ++k) {
    const ConnectorEnd& end = c.end(static_cast<std::size_t>(interaction.ends[k]));
    const AtomicType& type =
        *system.instance(static_cast<std::size_t>(end.port.instance)).type;
    AtomicState& comp = state.components[static_cast<std::size_t>(end.port.instance)];
    const std::vector<int>& options = interaction.choices[k];
    const int pick = transitionChoice[k];
    require(pick >= 0 && static_cast<std::size_t>(pick) < options.size(),
            "execute: transition choice out of range");
    fire(type, comp, options[static_cast<std::size_t>(pick)]);
  }
  for (std::size_t k = 0; k < interaction.ends.size(); ++k) {
    const ConnectorEnd& end = c.end(static_cast<std::size_t>(interaction.ends[k]));
    const AtomicType& type =
        *system.instance(static_cast<std::size_t>(end.port.instance)).type;
    runInternal(type, state.components[static_cast<std::size_t>(end.port.instance)]);
  }
}

void executeDefault(const System& system, GlobalState& state,
                    const EnabledInteraction& interaction) {
  std::vector<int> zeros(interaction.ends.size(), 0);
  execute(system, state, interaction, zeros);
}

std::vector<GlobalState> successors(const System& system, const GlobalState& state,
                                    bool withPriorities) {
  std::vector<EnabledInteraction> enabled = enabledInteractions(system, state);
  if (withPriorities) {
    if (enabled.empty()) return {};
    enabled = applyPriorities(system, state, std::move(enabled));
  }
  std::vector<GlobalState> out;
  for (const EnabledInteraction& ei : enabled) {
    std::vector<int> choice(ei.ends.size(), 0);
    while (true) {
      GlobalState next = state;
      execute(system, next, ei, choice);
      out.push_back(std::move(next));
      // Advance the mixed-radix choice vector.
      std::size_t k = 0;
      while (k < choice.size()) {
        if (static_cast<std::size_t>(++choice[k]) < ei.choices[k].size()) break;
        choice[k] = 0;
        ++k;
      }
      if (k == choice.size()) break;
    }
  }
  return out;
}

std::string interactionLabel(const System& system, int connector, InteractionMask mask) {
  const Connector& c = system.connector(static_cast<std::size_t>(connector));
  std::string out;
  // About 16 bytes per "inst.port, " keeps typical labels to one allocation.
  out.reserve(c.name().size() + 2 + 16 * static_cast<std::size_t>(std::popcount(mask)));
  out += c.name();
  out += '{';
  const char* separator = "";
  for (std::size_t i = 0; i < c.endCount(); ++i) {
    if ((mask & (InteractionMask{1} << i)) == 0) continue;
    const PortRef& p = c.end(i).port;
    const System::Instance& inst = system.instance(static_cast<std::size_t>(p.instance));
    out += separator;
    out += inst.name;
    out += '.';
    out += inst.type->port(p.port).name;
    separator = ", ";
  }
  out += '}';
  return out;
}

std::string interactionLabel(const System& system, const EnabledInteraction& interaction) {
  return interactionLabel(system, interaction.connector, interaction.mask);
}

bool isDeadlocked(const System& system, const GlobalState& state) {
  return enabledInteractions(system, state).empty();
}

}  // namespace cbip
