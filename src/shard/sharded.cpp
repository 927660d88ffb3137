#include "shard/sharded.hpp"

#include <algorithm>

#include "obs/obs.hpp"
#include "util/require.hpp"

namespace cbip::shard {

namespace {

// Telemetry (src/obs): counts only, never steers — traces stay
// bit-identical with observability on, off, or compiled out.
const obs::Counter g_tryFireCalls("shard.tryfire.calls");
const obs::Counter g_tryFireHits("shard.tryfire.hits");
const obs::Counter g_scanBatch("shard.scan.batch.calls");
const obs::Counter g_scanInterp("shard.scan.interp.calls");

/// Evaluation context for a component's local expressions against its
/// variable block inside a shard frame (interpreted escape-hatch twin of
/// ExprProgram::run(frame, base); mirrors expr::VecContext).
class FrameContext final : public expr::EvalContext {
 public:
  FrameContext(std::span<Value> frame, int base, std::size_t varCount)
      : frame_(frame), base_(base), varCount_(varCount) {}

  Value read(expr::VarRef ref) const override {
    check(ref);
    return frame_[static_cast<std::size_t>(base_ + ref.index)];
  }

  void write(expr::VarRef ref, Value value) override {
    check(ref);
    frame_[static_cast<std::size_t>(base_ + ref.index)] = value;
  }

 private:
  void check(expr::VarRef ref) const {
    requireEval(ref.scope == 0, "FrameContext: only scope 0 is bound");
    requireEval(ref.index >= 0 && static_cast<std::size_t>(ref.index) < varCount_,
                "FrameContext: variable index out of range");
  }

  std::span<Value> frame_;
  int base_;
  std::size_t varCount_;
};

/// Resolves connector expressions against a sharded state: scope >= 0 is
/// the scope-th end's exported variable (found in the owning shard's
/// frame), kConnectorScope the transfer-local variable vector. The
/// interpreted twin of the compiled local/cross connector programs,
/// mirroring the sequential InteractionContext in core/semantics.cpp.
class ShardInteractionContext final : public expr::EvalContext {
 public:
  ShardInteractionContext(const ShardedSystem& sharded, const Connector& connector,
                          ShardedState& state, std::vector<Value>& connectorVars)
      : sharded_(&sharded), connector_(&connector), state_(&state), vars_(&connectorVars) {}

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
        *sharded_->system().instance(static_cast<std::size_t>(end.port.instance)).type;
    const PortDecl& port = type.port(end.port.port);
    requireEval(ref.index >= 0 && static_cast<std::size_t>(ref.index) < port.exports.size(),
                "connector expression: export index out of range");
    std::vector<Value>& frame =
        state_->frames[static_cast<std::size_t>(sharded_->shardOf(end.port.instance))];
    return frame[static_cast<std::size_t>(
        sharded_->frameBase(end.port.instance) +
        port.exports[static_cast<std::size_t>(ref.index)])];
  }

  const ShardedSystem* sharded_;
  const Connector* connector_;
  ShardedState* state_;
  std::vector<Value>* vars_;
};

/// Reusable buffers of the batched scan, one per scanning thread, so
/// steady-state scans never allocate.
struct ScanScratch {
  std::vector<expr::BatchOp> ops;                // transition-guard batch
  std::vector<Value> results;                    // runBatch outputs
  std::vector<const std::vector<int>*> endTis;   // per end: transitionsFrom list
  std::vector<char> trivial;                     // per (end, transition): guard true
  std::vector<std::vector<int>> endEnabled;      // per end: enabled transitions
};

/// Shared tail of every scan: derives the enabled mask set from the
/// per-end lists in `s` with bit operations over the cached feasible
/// masks and fills one element from `next()` per enabled mask. The
/// connector guard is pure over the current state (its value is shared by
/// every mask), so `guardHolds` is invoked lazily — at the first
/// port-feasible mask, where the interpreter's scalar scan evaluates it —
/// and at most once; a false guard rejects every mask.
template <typename Next, typename GuardHolds>
void appendScannedMasks(const Connector& c, int ci, const std::vector<InteractionMask>& masks,
                        const ScanScratch& s, Next&& next, GuardHolds&& guardHolds) {
  InteractionMask enabledEnds = 0;
  for (std::size_t e = 0; e < c.endCount(); ++e) {
    if (!s.endEnabled[e].empty()) enabledEnds |= InteractionMask{1} << e;
  }
  bool guardKnown = c.guard().isTrue();
  for (InteractionMask mask : masks) {
    if ((mask & ~enabledEnds) != 0) continue;
    if (!guardKnown) {
      if (!guardHolds()) return;
      guardKnown = true;
    }
    fillInteraction(next(), ci, mask,
                    [&](std::size_t e) -> const std::vector<int>& { return s.endEnabled[e]; });
  }
}

}  // namespace

ShardedSystem::ShardedSystem(const System& system, Partition partition)
    : system_(&system), partition_(std::move(partition)) {
  system.validate();
  const std::size_t n = system.instanceCount();
  require(partition_.instanceCount() == n,
          "ShardedSystem: partition does not match the system");
  require(system.priorities().empty() && !system.maximalProgress(),
          "ShardedSystem: priority rules / maximal progress are global filters; "
          "sharded execution does not support them");
  require(partition_.shardCount() >= 1, "ShardedSystem: partition has no shards");
  for (std::size_t i = 0; i < n; ++i) {
    require(partition_.shardOf(i) >= 0 &&
                static_cast<std::size_t>(partition_.shardOf(i)) < partition_.shardCount(),
            "ShardedSystem: partition assigns an instance to an out-of-range shard");
  }
  shards_.resize(partition_.shardCount());
  frameBase_.resize(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    Shard& s = shards_[static_cast<std::size_t>(partition_.shardOf(i))];
    s.members.push_back(static_cast<int>(i));
    frameBase_[i] = static_cast<int>(s.frameSize);
    s.frameSize += system.instance(i).type->variableCount();
  }
  const std::size_t cc = system.connectorCount();
  crossIndex_.assign(cc, -1);
  footprint_.resize(cc);
  localPrograms_.resize(cc);
  for (std::size_t ci = 0; ci < cc; ++ci) {
    const Connector& c = system.connector(ci);
    std::vector<int>& insts = footprint_[ci];
    insts.reserve(c.endCount());
    for (const ConnectorEnd& e : c.ends()) insts.push_back(e.port.instance);
    std::sort(insts.begin(), insts.end());
    insts.erase(std::unique(insts.begin(), insts.end()), insts.end());
    std::vector<int> touched;
    for (int inst : insts) touched.push_back(shardOf(inst));
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
    if (touched.size() <= 1) {
      const std::size_t s =
          touched.empty() ? 0 : static_cast<std::size_t>(touched.front());
      Shard& home = shards_[s];
      home.localConnectors.push_back(static_cast<int>(ci));
      // Connector-local variables live at the tail of the home frame.
      LocalProgram& lp = localPrograms_[ci];
      lp.connector = static_cast<int>(ci);
      lp.homeShard = static_cast<int>(s);
      lp.varBase = static_cast<int>(home.frameSize);
      lp.varCount = static_cast<int>(c.variableCount());
      home.frameSize += c.variableCount();
    } else {
      CrossConnector x;
      x.connector = static_cast<int>(ci);
      x.shards = std::move(touched);
      x.owner = x.shards.front();
      crossIndex_[ci] = static_cast<int>(cross_.size());
      shards_[static_cast<std::size_t>(x.owner)].ownedCross.push_back(
          static_cast<int>(cross_.size()));
      cross_.push_back(std::move(x));
    }
  }
  // Cached feasible masks per connector (the batched scan derives the
  // enabled mask set from these with bit operations instead of rebuilding
  // the list every scan).
  masks_.resize(cc);
  for (std::size_t ci = 0; ci < cc; ++ci) masks_[ci] = system.connector(ci).feasibleMasks();
  // Force the lazily-built structures the workers will read while still
  // single-threaded (reverse index, transition indexes, compiled
  // programs; the lazy builds have no internal synchronization).
  system.warmIndices();
  if (expr::compilationEnabled()) ensureCompiled();
}

void ShardedSystem::compileLocal(int ci) {
  const Connector& c = system_->connector(static_cast<std::size_t>(ci));
  LocalProgram& lp = localPrograms_[static_cast<std::size_t>(ci)];
  const expr::SlotMap slots = [&](expr::VarRef r) {
    if (r.scope == expr::kConnectorScope) {
      require(r.index >= 0 && static_cast<std::size_t>(r.index) < c.variableCount(),
              "connector '" + c.name() + "': connector variable out of range");
      return lp.varBase + r.index;
    }
    require(r.scope >= 0 && static_cast<std::size_t>(r.scope) < c.endCount(),
            "connector '" + c.name() + "': end scope out of range");
    const ConnectorEnd& end = c.end(static_cast<std::size_t>(r.scope));
    const AtomicType& type =
        *system_->instance(static_cast<std::size_t>(end.port.instance)).type;
    const PortDecl& port = type.port(end.port.port);
    require(r.index >= 0 && static_cast<std::size_t>(r.index) < port.exports.size(),
            "connector '" + c.name() + "': export index out of range");
    return frameBase_[static_cast<std::size_t>(end.port.instance)] +
           port.exports[static_cast<std::size_t>(r.index)];
  };
  lp.guard = expr::ExprProgram();
  if (!c.guard().isTrue()) lp.guard = expr::compile(c.guard(), slots);
  for (const expr::Assign& up : c.ups()) {
    require(up.target.scope == expr::kConnectorScope,
            "connector '" + c.name() + "': up target is not a connector variable");
  }
  lp.upBlock = expr::ExprProgram();
  if (!c.ups().empty()) lp.upBlock = expr::compileFused(Expr::top(), c.ups(), slots);
  lp.downs.clear();
  for (const DownAssign& d : c.downs()) {
    lp.downs.push_back(LocalProgram::DownOp{
        d.end, slots(expr::VarRef{d.end, d.exportIndex}), expr::compile(d.value, slots)});
  }
}

void ShardedSystem::compileCross(CrossConnector& x) {
  const auto place = [this, &x](int instance) {
    const auto it = std::lower_bound(x.shards.begin(), x.shards.end(), shardOf(instance));
    return CompiledConnector::FramePlacement{
        static_cast<int>(it - x.shards.begin()), frameBase(instance)};
  };
  x.compiled.emplace(*system_, system_->connector(static_cast<std::size_t>(x.connector)),
                     place);
}

void ShardedSystem::ensureCompiled() {
  if (compiledBuilt_ || !expr::compilationEnabled()) return;
  // Programs may not have been lowered if compilation was toggled on
  // after validate(); warmIndices re-forces them (single-threaded).
  system_->warmIndices();
  for (const Shard& shard : shards_) {
    for (int ci : shard.localConnectors) compileLocal(ci);
  }
  for (CrossConnector& x : cross_) compileCross(x);
  compiledBuilt_ = true;
}

void ShardedSystem::migrate(ShardedState& state, std::span<const Move> moves) {
  const std::size_t n = system_->instanceCount();
  const std::size_t cc = system_->connectorCount();
  // Drop no-op moves up front so "nothing moved" costs nothing.
  std::vector<Move> effective;
  for (const Move& m : moves) {
    require(m.instance >= 0 && static_cast<std::size_t>(m.instance) < n,
            "migrate: instance out of range");
    require(m.toShard >= 0 && static_cast<std::size_t>(m.toShard) < shards_.size(),
            "migrate: destination shard out of range");
    if (shardOf(m.instance) != m.toShard) effective.push_back(m);
  }
  if (effective.empty()) return;

  // Connectors touching a moved instance are the only ones whose layout
  // or classification can change.
  std::vector<char> touched(cc, 0);
  for (const Move& m : effective) {
    for (int ci : system_->connectorsOf(static_cast<std::size_t>(m.instance))) {
      touched[static_cast<std::size_t>(ci)] = 1;
    }
  }

  // Move each instance's variable block to the tail of the destination
  // frame. The source slice becomes a hole: no frameBase points at it any
  // more, and non-moved instances' bases never change.
  for (const Move& m : effective) {
    const std::size_t inst = static_cast<std::size_t>(m.instance);
    const std::size_t from = static_cast<std::size_t>(shardOf(m.instance));
    const std::size_t to = static_cast<std::size_t>(m.toShard);
    const AtomicType& type = *system_->instance(inst).type;
    const std::size_t vc = type.variableCount();
    std::vector<Value>& sf = state.frames[from];
    std::vector<Value>& df = state.frames[to];
    const std::size_t oldBase = static_cast<std::size_t>(frameBase_[inst]);
    const int newBase = static_cast<int>(df.size());
    df.insert(df.end(), sf.begin() + static_cast<std::ptrdiff_t>(oldBase),
              sf.begin() + static_cast<std::ptrdiff_t>(oldBase + vc));
    frameBase_[inst] = newBase;
    partition_.assign(inst, m.toShard);
    shards_[to].frameSize = df.size();
    auto& src = shards_[from].members;
    src.erase(std::lower_bound(src.begin(), src.end(), m.instance));
    auto& dst = shards_[to].members;
    dst.insert(std::lower_bound(dst.begin(), dst.end(), m.instance), m.instance);
  }

  // Reclassify the touched connectors against the new instance->shard
  // mapping. Newly-local connectors get fresh connector-variable tail
  // slots in their home frame (the old slots, wherever they were, leak as
  // holes — fresh-zero semantics re-zeroes the new ones per transfer).
  std::vector<int> shardsOf;  // scratch: involved shards of one connector
  for (std::size_t ci = 0; ci < cc; ++ci) {
    if (touched[ci] == 0) continue;
    const Connector& c = system_->connector(ci);
    shardsOf.clear();
    for (int inst : footprint_[ci]) shardsOf.push_back(shardOf(inst));
    std::sort(shardsOf.begin(), shardsOf.end());
    shardsOf.erase(std::unique(shardsOf.begin(), shardsOf.end()), shardsOf.end());
    if (shardsOf.size() <= 1) {
      const std::size_t home = static_cast<std::size_t>(shardsOf.front());
      LocalProgram& lp = localPrograms_[ci];
      lp.connector = static_cast<int>(ci);
      lp.homeShard = static_cast<int>(home);
      lp.varBase = static_cast<int>(shards_[home].frameSize);
      lp.varCount = static_cast<int>(c.variableCount());
      shards_[home].frameSize += c.variableCount();
      state.frames[home].resize(shards_[home].frameSize, 0);
      if (compiledBuilt_) compileLocal(static_cast<int>(ci));
      crossIndex_[ci] = -1;
    } else {
      localPrograms_[ci] = LocalProgram{};
      crossIndex_[ci] = -2;  // cross; rebuilt below
    }
  }

  // Rebuild the cross-connector table in connector order (preserving the
  // compiled placements of untouched entries) and re-derive every shard's
  // connector lists — O(connectors), all index patching, no compilation.
  std::vector<CrossConnector> newCross;
  newCross.reserve(cross_.size());
  for (std::size_t ci = 0; ci < cc; ++ci) {
    const int xi = crossIndex_[ci];
    if (xi == -1) continue;
    CrossConnector x;
    if (touched[ci] == 0) {
      x = std::move(cross_[static_cast<std::size_t>(xi)]);
    } else {
      x.connector = static_cast<int>(ci);
      for (int inst : footprint_[ci]) x.shards.push_back(shardOf(inst));
      std::sort(x.shards.begin(), x.shards.end());
      x.shards.erase(std::unique(x.shards.begin(), x.shards.end()), x.shards.end());
      x.owner = x.shards.front();
      if (compiledBuilt_) compileCross(x);
    }
    crossIndex_[ci] = static_cast<int>(newCross.size());
    newCross.push_back(std::move(x));
  }
  cross_ = std::move(newCross);
  for (Shard& s : shards_) {
    s.localConnectors.clear();
    s.ownedCross.clear();
  }
  for (std::size_t ci = 0; ci < cc; ++ci) {
    const int xi = crossIndex_[ci];
    if (xi < 0) {
      shards_[static_cast<std::size_t>(localPrograms_[ci].homeShard)].localConnectors.push_back(
          static_cast<int>(ci));
    } else {
      shards_[static_cast<std::size_t>(cross_[static_cast<std::size_t>(xi)].owner)]
          .ownedCross.push_back(xi);
    }
  }
}

ShardedState ShardedSystem::initialState() const {
  ShardedState state;
  state.locations.resize(system_->instanceCount());
  for (std::size_t i = 0; i < system_->instanceCount(); ++i) {
    state.locations[i] = system_->instance(i).type->initialLocation();
  }
  state.frames.resize(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    // Connector-variable tail slots start zero; every transfer re-zeroes
    // them before running its ups (fresh-zero semantics).
    state.frames[s].assign(shards_[s].frameSize, 0);
    for (int inst : shards_[s].members) {
      const AtomicType& type = *system_->instance(static_cast<std::size_t>(inst)).type;
      for (std::size_t v = 0; v < type.variableCount(); ++v) {
        state.frames[s][static_cast<std::size_t>(frameBase_[static_cast<std::size_t>(inst)]) +
                        v] = type.variable(static_cast<int>(v)).init;
      }
    }
  }
  return state;
}

GlobalState ShardedSystem::toGlobal(const ShardedState& state) const {
  GlobalState g;
  g.components.resize(system_->instanceCount());
  for (std::size_t i = 0; i < system_->instanceCount(); ++i) {
    const AtomicType& type = *system_->instance(i).type;
    AtomicState& comp = g.components[i];
    comp.location = state.locations[i];
    const std::vector<Value>& frame =
        state.frames[static_cast<std::size_t>(partition_.shardOf(i))];
    const std::size_t base = static_cast<std::size_t>(frameBase_[i]);
    comp.vars.assign(frame.begin() + static_cast<std::ptrdiff_t>(base),
                     frame.begin() + static_cast<std::ptrdiff_t>(base + type.variableCount()));
  }
  return g;
}

ShardedState ShardedSystem::fromGlobal(const GlobalState& state) const {
  requireEval(state.components.size() == system_->instanceCount(),
              "ShardedSystem::fromGlobal: state does not match the system");
  ShardedState out = initialState();
  for (std::size_t i = 0; i < system_->instanceCount(); ++i) {
    requireEval(state.components[i].vars.size() ==
                    system_->instance(i).type->variableCount(),
                "ShardedSystem::fromGlobal: component variable count mismatch");
    out.locations[i] = state.components[i].location;
    std::vector<Value>& frame = out.frames[static_cast<std::size_t>(partition_.shardOf(i))];
    const std::size_t base = static_cast<std::size_t>(frameBase_[i]);
    for (std::size_t v = 0; v < state.components[i].vars.size(); ++v) {
      frame[base + v] = state.components[i].vars[v];
    }
  }
  return out;
}

bool ShardedSystem::guardHoldsAt(const ShardedState& state, int instance, int ti) const {
  const AtomicType& type = *system_->instance(static_cast<std::size_t>(instance)).type;
  const std::vector<Value>& frame =
      state.frames[static_cast<std::size_t>(shardOf(instance))];
  const int base = frameBase_[static_cast<std::size_t>(instance)];
  if (expr::compilationEnabled()) {
    // All dispatch data lives on the compiled form (trivially true <=>
    // empty program); the symbolic table stays untouched on the hot path.
    const CompiledTransition& ct = type.compiledTransition(ti);
    if (ct.guard.empty()) return true;
    return ct.guard.run(std::span<const Value>(frame), base) != 0;
  }
  const Transition& t = type.transition(ti);
  if (t.guard.isTrue()) return true;
  auto& mutableFrame = const_cast<std::vector<Value>&>(frame);
  FrameContext ctx(mutableFrame, base, type.variableCount());
  return t.guard.eval(ctx) != 0;
}

void ShardedSystem::enabledTransitionsAt(const ShardedState& state, int instance, int port,
                                         std::vector<int>& out) const {
  out.clear();
  const AtomicType& type = *system_->instance(static_cast<std::size_t>(instance)).type;
  for (int ti :
       type.transitionsFrom(state.locations[static_cast<std::size_t>(instance)], port)) {
    if (guardHoldsAt(state, instance, ti)) out.push_back(ti);
  }
}

void ShardedSystem::fireAt(ShardedState& state, int instance, int ti) const {
  const AtomicType& type = *system_->instance(static_cast<std::size_t>(instance)).type;
  int& location = state.locations[static_cast<std::size_t>(instance)];
  std::vector<Value>& frame = state.frames[static_cast<std::size_t>(shardOf(instance))];
  const int base = frameBase_[static_cast<std::size_t>(instance)];
  if (expr::compilationEnabled()) {
    const CompiledTransition& ct = type.compiledTransition(ti);
    if (ct.from != location) {
      throw ModelError(type.name() + ": firing transition from wrong location");
    }
    // One dispatch for the whole action block, frame-base-relative on the
    // live shard frame (stores land in place: sequential semantics).
    if (!ct.actionBlock.empty()) ct.actionBlock.run(std::span<Value>(frame), base);
    location = ct.to;
    return;
  }
  const Transition& t = type.transition(ti);
  require(t.from == location, type.name() + ": firing transition from wrong location");
  FrameContext ctx(frame, base, type.variableCount());
  expr::applyAssignments(t.actions, ctx);
  location = t.to;
}

bool ShardedSystem::tryFireAt(ShardedState& state, int instance, int ti) const {
  g_tryFireCalls.add();
  const AtomicType& type = *system_->instance(static_cast<std::size_t>(instance)).type;
  int& location = state.locations[static_cast<std::size_t>(instance)];
  std::vector<Value>& frame = state.frames[static_cast<std::size_t>(shardOf(instance))];
  const int base = frameBase_[static_cast<std::size_t>(instance)];
  if (expr::compilationEnabled()) {
    const CompiledTransition& ct = type.compiledTransition(ti);
    if (ct.from != location) {
      throw ModelError(type.name() + ": firing transition from wrong location");
    }
    if (!ct.fused.empty() && ct.fused.run(std::span<Value>(frame), base) == 0) return false;
    location = ct.to;
    g_tryFireHits.add();
    return true;
  }
  // Interpreted twin: separate guard check, then fireAt, with the same
  // location-check-first order as the fused dispatch.
  const Transition& t = type.transition(ti);
  if (t.from != location) {
    throw ModelError(type.name() + ": firing transition from wrong location");
  }
  if (!guardHoldsAt(state, instance, ti)) return false;
  fireAt(state, instance, ti);
  g_tryFireHits.add();
  return true;
}

void ShardedSystem::runInternalAt(ShardedState& state, int instance, int maxSteps) const {
  const AtomicType& type = *system_->instance(static_cast<std::size_t>(instance)).type;
  for (int step = 0; step < maxSteps; ++step) {
    // One tryFireAt dispatch per candidate in transition order (mirrors
    // runInternal in core/atomic.cpp): the first enabled one fires.
    bool fired = false;
    for (int ti : type.transitionsFrom(state.locations[static_cast<std::size_t>(instance)],
                                       kInternalPort)) {
      if (tryFireAt(state, instance, ti)) {
        fired = true;
        break;
      }
    }
    if (!fired) return;
  }
  throw EvalError(type.name() + ": internal transitions diverge (> " +
                  std::to_string(maxSteps) + " tau steps)");
}

void ShardedSystem::appendConnectorInteractions(const ShardedState& state, int ci,
                                                std::vector<EnabledInteraction>& out) const {
  scanConnector(state, ci, [&]() -> EnabledInteraction& { return out.emplace_back(); });
}

void ShardedSystem::appendConnectorInteractions(const ShardedState& state, int ci,
                                                EnabledSpans::Shells& shells) const {
  scanConnector(state, ci, [&]() -> EnabledInteraction& { return shells.next(); });
}

template <typename Next>
void ShardedSystem::scanConnector(const ShardedState& state, int ci, Next&& next) const {
  const Connector& c = system_->connector(static_cast<std::size_t>(ci));
  const std::vector<InteractionMask>& masks = masks_[static_cast<std::size_t>(ci)];
  const std::size_t nEnds = c.endCount();
  static thread_local ScanScratch s;
  if (s.endEnabled.size() < nEnds) s.endEnabled.resize(nEnds);
  if (expr::compilationEnabled()) {
    g_scanBatch.add();
    // Batched scan twin of the interpreter's scalar path below: per-end
    // enabled transitions into reusable scratch, then the mask set by bit
    // operations over the masks cached at construction. Shard-local
    // connectors take the zero-gather form — their transition guards and
    // connector guard run frame-base-relative against the home shard's
    // live frame in one ExprProgram::runBatch pass (the frame *is* the
    // gathered frame); cross-shard connectors keep the classic gather for
    // the connector guard only. Evaluation order (end-ascending, then
    // transition order, then the lazily-evaluated shared guard) matches
    // the interpreter's, so a doomed scan raises exactly when the
    // interpreter's does.
    // Inside runBatch the ops dispatch through the threaded VM core, and
    // a run of >= kMinBlockRun consecutive ops sharing one guard program
    // (same type, same end order) additionally takes the block-parallel
    // executor — both transparent here, because the batch keeps the
    // scalar op order and first-EvalError contract bit for bit.
    const int xi = crossIndex_[static_cast<std::size_t>(ci)];
    if (xi < 0) {
      const LocalProgram& lp = localPrograms_[static_cast<std::size_t>(ci)];
      const std::vector<Value>& frame = state.frames[static_cast<std::size_t>(lp.homeShard)];
      if (s.endTis.size() < nEnds) s.endTis.resize(nEnds);
      s.ops.clear();
      s.trivial.clear();
      for (std::size_t e = 0; e < nEnds; ++e) {
        const PortRef& p = c.end(e).port;
        const AtomicType& type = *system_->instance(static_cast<std::size_t>(p.instance)).type;
        const std::vector<int>& tis = type.transitionsFrom(
            state.locations[static_cast<std::size_t>(p.instance)], p.port);
        s.endTis[e] = &tis;
        for (int ti : tis) {
          const expr::ExprProgram& g = type.compiledTransition(ti).guard;
          s.trivial.push_back(g.empty() ? 1 : 0);
          if (!g.empty()) {
            s.ops.push_back(expr::BatchOp{&g, frameBase_[static_cast<std::size_t>(p.instance)]});
          }
        }
      }
      if (!s.ops.empty()) {
        s.results.resize(s.ops.size());
        expr::ExprProgram::runBatch(s.ops, frame, s.results);
      }
      std::size_t k = 0;
      std::size_t r = 0;
      for (std::size_t e = 0; e < nEnds; ++e) {
        std::vector<int>& list = s.endEnabled[e];
        list.clear();
        for (int ti : *s.endTis[e]) {
          if (s.trivial[k++] != 0 || s.results[r++] != 0) list.push_back(ti);
        }
      }
      appendScannedMasks(c, ci, masks, s, next, [&] {
        requireEval(compiledBuilt_, "ShardedSystem: ensureCompiled() has not run");
        return lp.guard.run(frame) != 0;
      });
    } else {
      for (std::size_t e = 0; e < nEnds; ++e) {
        const PortRef& p = c.end(e).port;
        enabledTransitionsAt(state, p.instance, p.port, s.endEnabled[e]);
      }
      appendScannedMasks(c, ci, masks, s, next, [&] {
        requireEval(compiledBuilt_, "ShardedSystem: ensureCompiled() has not run");
        const CrossConnector& x = cross_[static_cast<std::size_t>(xi)];
        static thread_local std::vector<Value> scratch;
        static thread_local std::vector<std::span<const Value>> frames;
        scratch.resize(x.compiled->frameSize());
        frames.clear();
        for (int sh : x.shards) frames.push_back(state.frames[static_cast<std::size_t>(sh)]);
        x.compiled->gather(frames, scratch);
        return x.compiled->evalGuard(scratch) != 0;
      });
    }
    return;
  }
  // Interpreter (the semantic oracle): per-end enabled transitions in end
  // order, then the same lazy mask set, with the guard through the tree
  // interpreter and its empty connector-variable vector.
  g_scanInterp.add();
  for (std::size_t e = 0; e < nEnds; ++e) {
    enabledTransitionsAt(state, c.end(e).port.instance, c.end(e).port.port, s.endEnabled[e]);
  }
  appendScannedMasks(c, ci, masks, s, next, [&] {
    auto& mutableState = const_cast<ShardedState&>(state);
    std::vector<Value> noVars;
    ShardInteractionContext ctx(*this, c, mutableState, noVars);
    return c.guard().eval(ctx) != 0;
  });
}

void ShardedSystem::connectorTransfer(ShardedState& state,
                                      const EnabledInteraction& interaction) const {
  const int ci = interaction.connector;
  const Connector& c = system_->connector(static_cast<std::size_t>(ci));
  if (expr::compilationEnabled()) {
    requireEval(compiledBuilt_, "ShardedSystem: ensureCompiled() has not run");
    const int xi = crossIndex_[static_cast<std::size_t>(ci)];
    if (xi < 0) {
      const LocalProgram& lp = localPrograms_[static_cast<std::size_t>(ci)];
      if (lp.upBlock.empty() && lp.downs.empty()) return;
      std::vector<Value>& frame = state.frames[static_cast<std::size_t>(lp.homeShard)];
      // Fresh-zero connector variables (interpreter semantics), then run
      // the up block (one program dispatch) and participating downs in
      // place on the live frame.
      std::fill(frame.begin() + lp.varBase, frame.begin() + lp.varBase + lp.varCount, 0);
      if (!lp.upBlock.empty()) lp.upBlock.run(std::span<Value>(frame), 0);
      for (const LocalProgram::DownOp& d : lp.downs) {
        if ((interaction.mask & (InteractionMask{1} << static_cast<unsigned>(d.end))) == 0) {
          continue;
        }
        frame[static_cast<std::size_t>(d.slot)] = d.value.run(frame);
      }
      return;
    }
    const CrossConnector& x = cross_[static_cast<std::size_t>(xi)];
    if (!x.compiled->hasTransfer()) return;
    static thread_local std::vector<Value> scratch;
    static thread_local std::vector<std::span<const Value>> constFrames;
    static thread_local std::vector<std::span<Value>> mutFrames;
    scratch.resize(x.compiled->frameSize());
    constFrames.clear();
    mutFrames.clear();
    for (int s : x.shards) {
      constFrames.push_back(state.frames[static_cast<std::size_t>(s)]);
      mutFrames.push_back(state.frames[static_cast<std::size_t>(s)]);
    }
    x.compiled->gather(constFrames, scratch);
    x.compiled->transfer(mutFrames, scratch, interaction.mask);
    return;
  }
  // Interpreted fallback: up then down (down only to participating ends),
  // mirroring connectorTransfer in core/semantics.cpp.
  std::vector<Value> connectorVars(c.variableCount(), 0);
  ShardInteractionContext ctx(*this, c, state, connectorVars);
  expr::applyAssignments(c.ups(), ctx);
  for (const DownAssign& d : c.downs()) {
    const bool participates =
        (interaction.mask & (InteractionMask{1} << static_cast<unsigned>(d.end))) != 0;
    if (!participates) continue;
    const Value v = d.value.eval(ctx);
    ctx.write(expr::VarRef{d.end, d.exportIndex}, v);
  }
}

void ShardedSystem::executeInteraction(ShardedState& state,
                                       const EnabledInteraction& interaction,
                                       std::span<const int> transitionChoice) const {
  const Connector& c = system_->connector(static_cast<std::size_t>(interaction.connector));
  require(transitionChoice.size() == interaction.ends.size(),
          "executeInteraction: transition choice arity mismatch");
  connectorTransfer(state, interaction);
  for (std::size_t k = 0; k < interaction.ends.size(); ++k) {
    const ConnectorEnd& end = c.end(static_cast<std::size_t>(interaction.ends[k]));
    const std::vector<int>& options = interaction.choices[k];
    const int pick = transitionChoice[k];
    require(pick >= 0 && static_cast<std::size_t>(pick) < options.size(),
            "executeInteraction: transition choice out of range");
    fireAt(state, end.port.instance, options[static_cast<std::size_t>(pick)]);
  }
  for (std::size_t k = 0; k < interaction.ends.size(); ++k) {
    runInternalAt(state, c.end(static_cast<std::size_t>(interaction.ends[k])).port.instance);
  }
}

}  // namespace cbip::shard
