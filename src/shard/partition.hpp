// Component-graph partitioning for the sharded execution subsystem.
//
// The affinity graph of a flattened System has one node per component
// instance and one weighted edge per pair of instances joined by at least
// one connector (weight = number of joining connectors). Sharding quality
// is the edge-cut of a K-way partition of this graph: every cut edge is a
// connector that will need cross-shard coordination at run time, while
// every internal edge stays a shard-local interaction executed with no
// synchronization at all (shard/engine_sharded.hpp).
//
// The partitioner is a deterministic greedy graph-growing heuristic
// (Kernighan/Lin-family seeds are overkill at the model sizes the engine
// targets): shards are grown one at a time from a high-degree seed,
// repeatedly absorbing the unassigned instance with the strongest
// affinity to the growing shard, until the shard reaches its balanced
// share of the instances. Pinned instances are honoured first.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "core/system.hpp"

namespace cbip::shard {

struct PartitionOptions {
  /// Number of shards K (>= 1). Values larger than the instance count are
  /// clamped down so no shard starts empty.
  std::size_t shards = 2;
  /// Balance slack: a shard may keep absorbing positive-affinity
  /// neighbours past its even share, up to `ceil(tolerance * n / K)`
  /// instances. 1.0 forces exact balance (up to rounding).
  double tolerance = 1.125;
  /// (instance, shard) pairs fixed before growth starts; pins win over
  /// balance. Out-of-range entries are a ModelError.
  std::vector<std::pair<int, int>> pins;
};

/// Reported partition quality (see file comment).
struct PartitionQuality {
  /// Sum of affinity-edge weights crossing shards.
  std::size_t edgeCut = 0;
  /// Number of connectors whose ends span more than one shard — exactly
  /// the interactions the sharded engine must coordinate.
  std::size_t crossConnectors = 0;
  /// Largest / smallest shard population (instances).
  std::size_t maxLoad = 0;
  std::size_t minLoad = 0;
};

class Partition {
 public:
  /// Builds the identity single-shard partition (used by K=1 runs and as
  /// the differential baseline).
  explicit Partition(std::size_t instanceCount)
      : shardOf_(instanceCount, 0), shardCount_(1) {}
  Partition(std::vector<int> shardOf, std::size_t shardCount)
      : shardOf_(std::move(shardOf)), shardCount_(shardCount) {}

  std::size_t shardCount() const { return shardCount_; }
  std::size_t instanceCount() const { return shardOf_.size(); }
  int shardOf(std::size_t instance) const { return shardOf_[instance]; }
  const std::vector<int>& assignment() const { return shardOf_; }

  /// Reassigns one instance (online rebalancing: the shard count is
  /// fixed, only the mapping moves). The caller keeps every derived
  /// structure — member lists, connector classes — in sync; see
  /// ShardedSystem::migrate.
  void assign(std::size_t instance, int shard) { shardOf_[instance] = shard; }

 private:
  std::vector<int> shardOf_;
  std::size_t shardCount_ = 1;
};

/// Partitions `system`'s component graph into `options.shards` balanced
/// shards, greedily minimizing the connector edge-cut. Deterministic for a
/// given (system, options).
Partition partitionSystem(const System& system, const PartitionOptions& options = {});

/// Quality metrics of an existing partition of `system`.
PartitionQuality partitionQuality(const System& system, const Partition& partition);

}  // namespace cbip::shard
