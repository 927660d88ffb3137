#include "core/semantics.hpp"

#include <algorithm>
#include <bit>
#include <optional>

#include "obs/obs.hpp"
#include "util/require.hpp"

namespace cbip {

namespace {

// Telemetry (src/obs): which scan path served each connector refresh, and
// how large the incremental cache's per-step dirty sets run. Counts only,
// never steers — enabled sets are bit-identical on both paths.
const obs::Counter g_scanBatch("scan.batch.calls");
const obs::Counter g_scanInterp("scan.interp.calls");
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

/// Appends the enabled interactions of connector `ci` to `out` (the shared
/// enumeration behind both the from-scratch scan and the incremental cache).
void appendConnectorInteractions(const System& system, const GlobalState& state,
                                 std::size_t ci, std::vector<EnabledInteraction>& out) {
  const Connector& c = system.connector(ci);
  if (expr::compilationEnabled()) {
    g_scanBatch.add();
    // Batched scan: one gathered frame, every transition guard in one
    // bytecode pass, mask set by bit operations over the cached feasible
    // masks (see CompiledConnector::scanEnabled). Scratch reused across
    // calls so steady-state scans never allocate.
    const CompiledConnector& cc = system.compiled().connector(ci);
    static thread_local CompiledConnector::ScanScratch scratch;
    if (!cc.scanEnabled(system, state, scratch)) return;
    const std::vector<InteractionMask>& masks = cc.masks();
    for (std::size_t i = 0; i < masks.size(); ++i) {
      if ((scratch.maskBits[i >> 6] & (std::uint64_t{1} << (i & 63))) == 0) continue;
      EnabledInteraction ei;
      ei.connector = static_cast<int>(ci);
      ei.mask = masks[i];
      const int participants = std::popcount(masks[i]);
      ei.ends.reserve(static_cast<std::size_t>(participants));
      ei.choices.reserve(static_cast<std::size_t>(participants));
      for (std::size_t e = 0; e < c.endCount(); ++e) {
        if ((masks[i] & (InteractionMask{1} << e)) == 0) continue;
        ei.ends.push_back(static_cast<int>(e));
        ei.choices.push_back(scratch.endEnabled[e]);
      }
      out.push_back(std::move(ei));
    }
    return;
  }
  // Interpreter (the semantic oracle): per-end enabled transitions,
  // computed once per connector.
  g_scanInterp.add();
  std::vector<std::vector<int>> endEnabled(c.endCount());
  for (std::size_t e = 0; e < c.endCount(); ++e) {
    const PortRef& p = c.end(e).port;
    const AtomicType& type = *system.instance(static_cast<std::size_t>(p.instance)).type;
    endEnabled[e] = enabledTransitions(
        type, state.components[static_cast<std::size_t>(p.instance)], p.port);
  }
  // The guard is pure over the current state, so its value is shared by
  // every mask; evaluate lazily (only when some mask is port-enabled) and
  // at most once per scan.
  std::optional<bool> guardOk;
  const auto guardHolds = [&]() {
    if (!guardOk.has_value()) {
      auto& mutableState = const_cast<GlobalState&>(state);
      std::vector<Value> noVars;
      InteractionContext ctx(system, c, mutableState, noVars);
      guardOk = c.guard().eval(ctx) != 0;
    }
    return *guardOk;
  };
  for (InteractionMask mask : c.feasibleMasks()) {
    bool allEnabled = true;
    for (std::size_t e = 0; e < c.endCount(); ++e) {
      if ((mask & (InteractionMask{1} << e)) != 0 && endEnabled[e].empty()) {
        allEnabled = false;
        break;
      }
    }
    if (!allEnabled) continue;
    if (!c.guard().isTrue() && !guardHolds()) continue;
    EnabledInteraction ei;
    ei.connector = static_cast<int>(ci);
    ei.mask = mask;
    for (std::size_t e = 0; e < c.endCount(); ++e) {
      if ((mask & (InteractionMask{1} << e)) == 0) continue;
      ei.ends.push_back(static_cast<int>(e));
      ei.choices.push_back(endEnabled[e]);
    }
    out.push_back(std::move(ei));
  }
}

}  // namespace

std::vector<EnabledInteraction> enabledInteractions(const System& system,
                                                    const GlobalState& state) {
  std::vector<EnabledInteraction> out;
  for (std::size_t ci = 0; ci < system.connectorCount(); ++ci) {
    appendConnectorInteractions(system, state, ci, out);
  }
  return out;
}

EnabledInteractionCache::EnabledInteractionCache(const System& system)
    : system_(&system),
      flatOffset_(system.connectorCount(), 0),
      flatCount_(system.connectorCount(), 0),
      connectorQueued_(system.connectorCount(), 0) {
  // Force the lazily-built reverse index now, while construction is still
  // single-threaded; afterwards connectorsOf() is a pure read.
  if (system.instanceCount() > 0) system.connectorsOf(0);
}

void EnabledInteractionCache::recomputeConnector(std::size_t ci, const GlobalState& state) {
  scratch_.clear();
  appendConnectorInteractions(*system_, state, ci, scratch_);
  // Splice the connector's span in place by move; shift only when the
  // span length changed (EnabledInteraction moves are pointer swaps, so a
  // shift never allocates).
  const auto oldCount = static_cast<std::ptrdiff_t>(flatCount_[ci]);
  const auto newCount = static_cast<std::ptrdiff_t>(scratch_.size());
  const auto at = flat_.begin() + flatOffset_[ci];
  if (newCount <= oldCount) {
    std::move(scratch_.begin(), scratch_.end(), at);
    flat_.erase(at + newCount, at + oldCount);
  } else {
    std::move(scratch_.begin(), scratch_.begin() + oldCount, at);
    flat_.insert(at + oldCount, std::make_move_iterator(scratch_.begin() + oldCount),
                 std::make_move_iterator(scratch_.end()));
  }
  if (newCount != oldCount) {
    flatCount_[ci] = static_cast<int>(newCount);
    const int delta = static_cast<int>(newCount - oldCount);
    for (std::size_t j = ci + 1; j < flatOffset_.size(); ++j) flatOffset_[j] += delta;
  }
}

void EnabledInteractionCache::reset(const GlobalState& state) {
  flat_.clear();
  for (std::size_t ci = 0; ci < flatOffset_.size(); ++ci) {
    flatOffset_[ci] = static_cast<int>(flat_.size());
    appendConnectorInteractions(*system_, state, ci, flat_);
    flatCount_[ci] = static_cast<int>(flat_.size()) - flatOffset_[ci];
  }
}

void EnabledInteractionCache::update(const GlobalState& state,
                                     std::span<const int> dirtyInstances) {
  g_cacheUpdates.add();
  for (int inst : dirtyInstances) {
    for (int ci : system_->connectorsOf(static_cast<std::size_t>(inst))) {
      connectorQueued_[static_cast<std::size_t>(ci)] = 1;
    }
  }
  std::uint64_t recomputed = 0;
  for (int inst : dirtyInstances) {
    for (int ci : system_->connectorsOf(static_cast<std::size_t>(inst))) {
      auto& queued = connectorQueued_[static_cast<std::size_t>(ci)];
      if (!queued) continue;  // already recomputed via an earlier instance
      queued = 0;
      recomputeConnector(static_cast<std::size_t>(ci), state);
      ++recomputed;
    }
  }
  g_cacheRecomputes.add(recomputed);
  g_cacheDirty.observe(static_cast<std::int64_t>(recomputed));
}

void EnabledInteractionCache::updateAfterExecute(const GlobalState& state,
                                                 const EnabledInteraction& executed) {
  const Connector& c = system_->connector(static_cast<std::size_t>(executed.connector));
  // Reused member buffer: the per-step dirty set allocates only until its
  // capacity covers the widest executed connector.
  dirtyScratch_.clear();
  for (const ConnectorEnd& e : c.ends()) dirtyScratch_.push_back(e.port.instance);
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

std::size_t choiceCount(const EnabledInteraction& interaction) {
  std::size_t n = 1;
  for (const std::vector<int>& c : interaction.choices) n *= c.size();
  return n;
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

std::string interactionLabel(const System& system, const EnabledInteraction& interaction) {
  const Connector& c = system.connector(static_cast<std::size_t>(interaction.connector));
  return c.maskLabel(interaction.mask, system.endLabels(c));
}

bool isDeadlocked(const System& system, const GlobalState& state) {
  return enabledInteractions(system, state).empty();
}

}  // namespace cbip
