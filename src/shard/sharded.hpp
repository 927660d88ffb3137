// Partition bookkeeping for sharded execution of a System.
//
// A Partition (shard/partition.hpp) assigns every instance to a shard.
// ShardedSystem derives what the sharded engine (shard/engine_sharded.hpp)
// schedules by: each shard's members, and the class of every connector:
//
//   * shard-local connectors have all their ends in one shard, which
//     schedules and executes them with no locks;
//
//   * cross-shard connectors span several shards and are scheduled by
//     their lowest involved shard (the owner) through the epoch conflict
//     resolver.
//
// State stays one GlobalState and every semantic operation stays in the
// core (core/semantics.hpp): the engine scans with one
// EnabledInteractionCache per connector list and executes through
// `execute`. Nothing here evaluates an expression.
#pragma once

#include <span>
#include <vector>

#include "core/system.hpp"
#include "shard/partition.hpp"

namespace cbip::shard {

class ShardedSystem {
 public:
  /// The system must outlive the ShardedSystem. Priorities and maximal
  /// progress are global filters incompatible with shard-local
  /// scheduling and are rejected (ModelError).
  ShardedSystem(const System& system, Partition partition);

  struct Shard {
    std::vector<int> members;          // instance ids, ascending
    std::vector<int> localConnectors;  // connector ids, ascending
    std::vector<int> ownedCross;       // connector ids of the cross connectors it owns, ascending
  };

  struct CrossConnector {
    int connector = -1;
    std::vector<int> shards;  // involved shards, ascending (typically two)
    int owner = -1;           // shards.front(): the shard that schedules it
  };

  // ---- structure queries ----
  const System& system() const { return *system_; }
  const Partition& partition() const { return partition_; }
  std::size_t shardCount() const { return shards_.size(); }
  const Shard& shard(std::size_t s) const { return shards_[s]; }
  int shardOf(int instance) const { return partition_.shardOf(static_cast<std::size_t>(instance)); }
  /// Index into crossConnectors() for connector `ci`, or -1 when local.
  int crossIndexOf(int ci) const { return crossIndex_[static_cast<std::size_t>(ci)]; }
  /// The cross connectors, connector-ascending.
  const std::vector<CrossConnector>& crossConnectors() const { return cross_; }

  /// Instances attached to connector `ci` (its conflict footprint).
  const std::vector<int>& connectorInstances(int ci) const {
    return footprint_[static_cast<std::size_t>(ci)];
  }

  /// One online-rebalancing move: instance -> destination shard.
  struct Move {
    int instance = -1;
    int toShard = -1;
  };

  /// Reassigns instances between shards and reclassifies the connectors
  /// (local <-> cross, owner, member and connector lists) to match. State
  /// lives in one GlobalState, so nothing is copied. Must not run while
  /// the engine's workers read the lists (the engine calls it between
  /// epochs).
  void migrate(std::span<const Move> moves);

 private:
  /// Derives the shard lists and the cross table from `partition_`.
  void classify();

  const System* system_;
  Partition partition_;
  std::vector<Shard> shards_;
  std::vector<int> crossIndex_;              // per connector; -1 = local
  std::vector<std::vector<int>> footprint_;  // per connector: distinct instances, ascending
  std::vector<CrossConnector> cross_;
};

}  // namespace cbip::shard
