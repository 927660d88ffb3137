// Sharded execution form of a System: per-shard contiguous variable
// frames plus connector programs recompiled against them.
//
// Layered on the compiled representation (core/compiled.hpp): ExprProgram
// and flat-slot frames are position-independent, so once a Partition
// (shard/partition.hpp) assigns every instance to a shard, each shard can
// own one contiguous Value frame holding all its members' variables
// back-to-back. Connectors then split into two classes:
//
//   * shard-local connectors (all ends in one shard) compile to programs
//     that address the shard frame *directly* — guard evaluation is a
//     single bytecode run with zero gather, and down transfers write the
//     live slots in place. Their connector-local variables are allocated
//     as extra slots at the tail of the shard frame, re-zeroed at the
//     start of every transfer to preserve the interpreter's fresh-zero
//     semantics (validation bars guards and ups from reading them, so
//     stale values left after a transfer are unobservable);
//
//   * cross-shard connectors keep the classic gather -> run -> write-back
//     shape, but their (scope, index) -> slot maps span several shard
//     frames (typically two: home + foreign) via the sharded build mode
//     of CompiledConnector.
//
// Component transition programs (AtomicType::compiledTransition) are
// reused as-is through frame-base-relative addressing
// (ExprProgram::run(frame, base)): a transition compiled against
// "slot = variable index" runs against the shard frame with the
// instance's base offset added to every load.
//
// All of this is the execution form only. The symbolic System stays
// authoritative, and every operation here has an interpreted twin used
// when the CBIP_NO_COMPILE escape hatch is active, with semantics
// mirroring core/semantics.cpp expression for expression.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/compiled.hpp"
#include "core/semantics.hpp"
#include "core/system.hpp"
#include "shard/partition.hpp"

namespace cbip::shard {

/// Runtime state of a sharded system: one contiguous variable frame per
/// shard (member variables back-to-back, then local-connector variable
/// slots) plus per-instance control locations.
struct ShardedState {
  std::vector<std::vector<Value>> frames;
  std::vector<int> locations;
};

class ShardedSystem {
 public:
  /// The system must outlive the ShardedSystem. Priorities and maximal
  /// progress are global filters incompatible with shard-local
  /// scheduling and are rejected (ModelError).
  ShardedSystem(const System& system, Partition partition);

  struct Shard {
    std::vector<int> members;          // instance ids, ascending
    std::vector<int> localConnectors;  // connector ids, ascending
    std::vector<int> ownedCross;       // indices into crossConnectors(), ascending
    std::size_t frameSize = 0;         // variable slots + local connector var slots
  };

  /// Shard-local compiled connector: programs address the owning shard's
  /// frame directly (see file comment). Built by ensureCompiled().
  struct LocalProgram {
    int connector = -1;
    expr::ExprProgram guard;  // empty when trivially true
    struct DownOp {
      int end = 0;  // participation bit
      int slot = 0;
      expr::ExprProgram value;
    };
    expr::ExprProgram upBlock;  // all ups fused into one program (empty when no ups)
    std::vector<DownOp> downs;
    int homeShard = 0;
    int varBase = 0;  // first connector-variable slot in the shard frame
    int varCount = 0;
  };

  struct CrossConnector {
    int connector = -1;
    std::vector<int> shards;  // involved shards, ascending (typically two)
    int owner = -1;           // shards.front(): the shard that schedules it
    std::optional<CompiledConnector> compiled;  // sharded build; see ensureCompiled()
  };

  // ---- structure queries ----
  const System& system() const { return *system_; }
  const Partition& partition() const { return partition_; }
  std::size_t shardCount() const { return shards_.size(); }
  const Shard& shard(std::size_t s) const { return shards_[s]; }
  int shardOf(int instance) const { return partition_.shardOf(static_cast<std::size_t>(instance)); }
  /// Offset of the instance's variable block in its shard's frame.
  int frameBase(int instance) const { return frameBase_[static_cast<std::size_t>(instance)]; }
  /// Index into crossConnectors() for connector `ci`, or -1 when local.
  int crossIndexOf(int ci) const { return crossIndex_[static_cast<std::size_t>(ci)]; }
  const std::vector<CrossConnector>& crossConnectors() const { return cross_; }

  /// Builds the compiled connector programs when compilation is enabled
  /// and they are missing (idempotent). Must run while single-threaded;
  /// the engines call it at the start of every run, mirroring the forced
  /// builds in the other engines.
  void ensureCompiled();

  /// One online-rebalancing move: instance -> destination shard.
  struct Move {
    int instance = -1;
    int toShard = -1;
  };

  /// Migrates instances between shards in place, patching `state` to
  /// match. Frames are position-independent, so each move is a frame-slice
  /// copy to the tail of the destination frame plus a frameBase/partition
  /// patch; the vacated slice stays behind as an unobservable hole (frames
  /// grow monotonically across migrations — the rebalancer's hysteresis
  /// bounds move counts, so holes never dominate). Only the connectors
  /// touching a moved instance are reclassified (local <-> cross) and — if
  /// the compiled programs were built — recompiled against the new
  /// layout; everything else (footprints, masks, other programs, other
  /// instances' bases) is untouched. Must run while single-threaded with
  /// all frames quiescent (the engine calls it between epochs);
  /// enabled-interaction sets and toGlobal() are preserved exactly.
  void migrate(ShardedState& state, std::span<const Move> moves);

  // ---- state conversion ----
  ShardedState initialState() const;
  GlobalState toGlobal(const ShardedState& state) const;
  ShardedState fromGlobal(const GlobalState& state) const;

  // ---- frame-level component semantics (mirror core/atomic.cpp) ----
  bool guardHoldsAt(const ShardedState& state, int instance, int ti) const;
  void enabledTransitionsAt(const ShardedState& state, int instance, int port,
                            std::vector<int>& out) const;
  void fireAt(ShardedState& state, int instance, int ti) const;
  /// Guard-then-fire as one operation on the shard frame (the twin of the
  /// global tryFire): a single frame-base-relative dispatch of the
  /// transition's fused guard+action program.
  bool tryFireAt(ShardedState& state, int instance, int ti) const;
  void runInternalAt(ShardedState& state, int instance, int maxSteps = 10'000) const;

  // ---- connector semantics (mirror core/semantics.cpp) ----
  /// Appends the enabled interactions of connector `ci`, element-wise
  /// identical to connector `ci`'s span of an EnabledInteractionCache on
  /// the equivalent GlobalState.
  void appendConnectorInteractions(const ShardedState& state, int ci,
                                   std::vector<EnabledInteraction>& out) const;
  /// The same interactions, filled in order into shells from `shells`:
  /// the builder form for an EnabledSpans splice.
  void appendConnectorInteractions(const ShardedState& state, int ci,
                                   EnabledSpans::Shells& shells) const;

  /// Executes `interaction` (transfer, fire one transition per
  /// participant, run taus) exactly like semantics execute(). The caller
  /// guarantees exclusive access to every involved shard's frame.
  void executeInteraction(ShardedState& state, const EnabledInteraction& interaction,
                          std::span<const int> transitionChoice) const;

  /// Instances attached to connector `ci` (its conflict footprint).
  const std::vector<int>& connectorInstances(int ci) const {
    return footprint_[static_cast<std::size_t>(ci)];
  }

 private:
  /// Both appendConnectorInteractions: fills each enabled interaction of
  /// `ci` into the element `next()` returns.
  template <typename Next>
  void scanConnector(const ShardedState& state, int ci, Next&& next) const;
  void connectorTransfer(ShardedState& state, const EnabledInteraction& interaction) const;
  /// (Re)compiles the programs of local connector `ci` against the current
  /// layout (frame bases + its LocalProgram var slots).
  void compileLocal(int ci);
  /// (Re)builds the sharded CompiledConnector of `x` against the current
  /// layout.
  void compileCross(CrossConnector& x);

  const System* system_;
  Partition partition_;
  std::vector<Shard> shards_;
  std::vector<int> frameBase_;                // per instance
  std::vector<int> crossIndex_;               // per connector; -1 = local
  std::vector<std::vector<int>> footprint_;   // per connector: distinct instances
  std::vector<LocalProgram> localPrograms_;   // per connector (empty entry when cross)
  std::vector<CrossConnector> cross_;
  std::vector<std::vector<InteractionMask>> masks_;  // per connector: feasible masks
  bool compiledBuilt_ = false;
};

}  // namespace cbip::shard
