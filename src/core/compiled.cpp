#include "core/compiled.hpp"

#include <algorithm>

#include "core/system.hpp"
#include "util/require.hpp"

namespace cbip {

CompiledConnector::CompiledConnector(const System& system, const Connector& connector) {
  build(system, connector, nullptr);
}

CompiledConnector::CompiledConnector(const System& system, const Connector& connector,
                                     const std::function<FramePlacement(int instance)>& place) {
  build(system, connector, &place);
}

void CompiledConnector::build(const System& system, const Connector& connector,
                              const std::function<FramePlacement(int instance)>* place) {
  // Scratch-frame layout: each end's exports contiguously, then connector
  // vars. Identical in both build modes; only the load/write-back targets
  // differ (GlobalState (instance, var) vs shard-frame (frame, offset)).
  std::vector<int> endBase(connector.endCount(), 0);
  int next = 0;
  for (std::size_t e = 0; e < connector.endCount(); ++e) {
    endBase[e] = next;
    const ConnectorEnd& end = connector.end(e);
    const AtomicType& type = *system.instance(static_cast<std::size_t>(end.port.instance)).type;
    const PortDecl& port = type.port(end.port.port);
    for (std::size_t k = 0; k < port.exports.size(); ++k) {
      Load l{next, end.port.instance, port.exports[k], -1, 0};
      if (place != nullptr) {
        const FramePlacement p = (*place)(end.port.instance);
        l.frame = p.frame;
        l.offset = p.base + port.exports[k];
      }
      loads_.push_back(l);
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

  if (place != nullptr && !connector.guard().isTrue()) {
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
    Down down{d.end, slot, end.port.instance, var, -1, 0, expr::compile(d.value, slots)};
    if (place != nullptr) {
      const FramePlacement p = (*place)(end.port.instance);
      down.frame = p.frame;
      down.offset = p.base + var;
    }
    downs_.push_back(std::move(down));
  }

  // Scan form (classic build only — the sharded build serves cross-shard
  // connectors, whose scans go through ShardedSystem's cached masks and
  // the classic gather/evalGuard instead): cached feasible masks, one
  // full variable block per end in the scan frame (read-only, so ends
  // sharing an instance simply repeat the block), connector-variable
  // slots at the tail, and the guard recompiled against that layout.
  if (place != nullptr) return;
  masks_ = connector.feasibleMasks();
  scanEnds_.reserve(connector.endCount());
  std::int32_t scanNext = 0;
  for (std::size_t e = 0; e < connector.endCount(); ++e) {
    const ConnectorEnd& end = connector.end(e);
    const AtomicType& type = *system.instance(static_cast<std::size_t>(end.port.instance)).type;
    scanEnds_.push_back(ScanEnd{end.port.instance, end.port.port, scanNext,
                                static_cast<int>(type.variableCount())});
    scanNext += static_cast<std::int32_t>(type.variableCount());
  }
  scanVarBase_ = scanNext;
  scanFrameSize_ = scanNext + static_cast<std::int32_t>(connector.variableCount());
  const expr::SlotMap scanSlots = [&](expr::VarRef r) {
    if (r.scope == expr::kConnectorScope) {
      require(r.index >= 0 && static_cast<std::size_t>(r.index) < connector.variableCount(),
              "connector '" + connector.name() + "': connector variable out of range");
      return scanVarBase_ + r.index;
    }
    require(r.scope >= 0 && static_cast<std::size_t>(r.scope) < connector.endCount(),
            "connector '" + connector.name() + "': end scope out of range");
    const ConnectorEnd& end = connector.end(static_cast<std::size_t>(r.scope));
    const AtomicType& type = *system.instance(static_cast<std::size_t>(end.port.instance)).type;
    const PortDecl& port = type.port(end.port.port);
    require(r.index >= 0 && static_cast<std::size_t>(r.index) < port.exports.size(),
            "connector '" + connector.name() + "': export index out of range");
    return scanEnds_[static_cast<std::size_t>(r.scope)].base +
           port.exports[static_cast<std::size_t>(r.index)];
  };
  if (!connector.guard().isTrue()) scanGuard_ = expr::compile(connector.guard(), scanSlots);
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
  if (!upBlock_.empty()) upBlock_.run(frame, 0);
  for (const Down& d : downs_) {
    if ((mask & (InteractionMask{1} << static_cast<unsigned>(d.end))) == 0) continue;
    const Value v = d.value.run(frame);
    frame[static_cast<std::size_t>(d.targetSlot)] = v;
    state.components[static_cast<std::size_t>(d.instance)].vars[static_cast<std::size_t>(d.var)] =
        v;
  }
}

void CompiledConnector::gather(std::span<const std::span<const Value>> frames,
                               std::span<Value> scratch) const {
  for (const Load& l : loads_) {
    scratch[static_cast<std::size_t>(l.slot)] =
        frames[static_cast<std::size_t>(l.frame)][static_cast<std::size_t>(l.offset)];
  }
  for (std::size_t s = loads_.size(); s < scratch.size(); ++s) scratch[s] = 0;
}

void CompiledConnector::transfer(std::span<const std::span<Value>> frames,
                                 std::span<Value> scratch, InteractionMask mask) const {
  if (!upBlock_.empty()) upBlock_.run(scratch, 0);
  for (const Down& d : downs_) {
    if ((mask & (InteractionMask{1} << static_cast<unsigned>(d.end))) == 0) continue;
    const Value v = d.value.run(scratch);
    scratch[static_cast<std::size_t>(d.targetSlot)] = v;
    frames[static_cast<std::size_t>(d.frame)][static_cast<std::size_t>(d.offset)] = v;
  }
}

void CompiledConnector::gatherScan(const GlobalState& state, std::vector<Value>& frame) const {
  frame.resize(static_cast<std::size_t>(scanFrameSize_));
  for (const ScanEnd& se : scanEnds_) {
    const AtomicState& comp = state.components[static_cast<std::size_t>(se.instance)];
    requireEval(comp.vars.size() >= static_cast<std::size_t>(se.varCount),
                "scanEnabled: state has fewer variables than the type");
    std::copy_n(comp.vars.begin(), se.varCount,
                frame.begin() + static_cast<std::ptrdiff_t>(se.base));
  }
  std::fill(frame.begin() + static_cast<std::ptrdiff_t>(scanVarBase_), frame.end(), 0);
}

bool CompiledConnector::scanEnabled(const System& system, const GlobalState& state,
                                    ScanScratch& s) const {
  const std::size_t nEnds = scanEnds_.size();
  if (s.endEnabled.size() < nEnds) s.endEnabled.resize(nEnds);
  if (s.endTis.size() < nEnds) s.endTis.resize(nEnds);
  s.ops.clear();
  s.trivial.clear();
  // Pass 1: walk the transition index once, collecting every non-trivial
  // transition guard of every end into one batch — end-ascending,
  // transition order, i.e. exactly the scalar evaluation order — and run
  // it in a single bytecode pass against the gathered frame. The ops
  // dispatch through the threaded VM core inside runBatch, and a run of
  // >= kMinBlockRun consecutive ops sharing one guard program (ends of
  // one type in one location) upgrades to the block-parallel executor;
  // both preserve this op order and the first-EvalError contract, so
  // nothing here depends on which core actually ran.
  for (std::size_t e = 0; e < nEnds; ++e) {
    const ScanEnd& se = scanEnds_[e];
    const AtomicType& type = *system.instance(static_cast<std::size_t>(se.instance)).type;
    const AtomicState& comp = state.components[static_cast<std::size_t>(se.instance)];
    const std::vector<int>& tis = type.transitionsFrom(comp.location, se.port);
    s.endTis[e] = &tis;
    for (int ti : tis) {
      const expr::ExprProgram& g = type.compiledTransition(ti).guard;
      s.trivial.push_back(g.empty() ? 1 : 0);
      if (!g.empty()) s.ops.push_back(expr::BatchOp{&g, se.base});
    }
  }
  bool gathered = false;
  if (!s.ops.empty()) {
    gatherScan(state, s.frame);
    gathered = true;
    s.results.resize(s.ops.size());
    expr::ExprProgram::runBatch(s.ops, s.frame, s.results);
  }
  // Pass 2: fold the batch results back into per-end enabled-transition
  // lists (the identical walk order consumes trivial flags and results
  // sequentially — no second index walk).
  std::size_t k = 0;
  std::size_t r = 0;
  InteractionMask enabledEnds = 0;
  for (std::size_t e = 0; e < nEnds; ++e) {
    std::vector<int>& list = s.endEnabled[e];
    list.clear();
    for (int ti : *s.endTis[e]) {
      if (s.trivial[k++] != 0 || s.results[r++] != 0) list.push_back(ti);
    }
    if (!list.empty()) enabledEnds |= InteractionMask{1} << e;
  }
  // Pass 3: the mask set, by bit operations over the cached masks. The
  // connector guard is pure over the current state, so its value is shared
  // by every mask; evaluate it lazily — at the first port-feasible mask,
  // where the interpreter's scalar scan evaluates it — and at most once per
  // scan.
  const std::size_t nMasks = masks_.size();
  s.maskBits.assign((nMasks + 63) / 64, 0);
  bool any = false;
  bool guardKnown = scanGuard_.empty();
  for (std::size_t i = 0; i < nMasks; ++i) {
    if ((masks_[i] & ~enabledEnds) != 0) continue;
    if (!guardKnown) {
      if (!gathered) gatherScan(state, s.frame);
      gathered = true;
      if (scanGuard_.run(s.frame) == 0) return false;  // shared: rejects every mask
      guardKnown = true;
    }
    s.maskBits[i >> 6] |= std::uint64_t{1} << (i & 63);
    any = true;
  }
  return any;
}

CompiledSystem::CompiledSystem(const System& system) {
  connectors_.reserve(system.connectorCount());
  for (std::size_t ci = 0; ci < system.connectorCount(); ++ci) {
    connectors_.emplace_back(system, system.connector(ci));
  }
}

}  // namespace cbip
