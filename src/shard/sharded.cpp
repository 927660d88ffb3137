#include "shard/sharded.hpp"

#include <algorithm>

#include "util/require.hpp"

namespace cbip::shard {

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
  footprint_.resize(system.connectorCount());
  for (std::size_t ci = 0; ci < system.connectorCount(); ++ci) {
    std::vector<int>& insts = footprint_[ci];
    for (const ConnectorEnd& e : system.connector(ci).ends()) insts.push_back(e.port.instance);
    std::sort(insts.begin(), insts.end());
    insts.erase(std::unique(insts.begin(), insts.end()), insts.end());
  }
  classify();
  // Force the lazily-built structures the workers will read while still
  // single-threaded (reverse index, transition indexes, compiled
  // programs; the lazy builds have no internal synchronization).
  system.warmIndices();
}

void ShardedSystem::classify() {
  shards_.assign(partition_.shardCount(), Shard{});
  for (std::size_t i = 0; i < partition_.instanceCount(); ++i) {
    shards_[static_cast<std::size_t>(partition_.shardOf(i))].members.push_back(
        static_cast<int>(i));
  }
  crossIndex_.assign(footprint_.size(), -1);
  cross_.clear();
  std::vector<int> touched;  // involved shards of one connector
  for (std::size_t ci = 0; ci < footprint_.size(); ++ci) {
    touched.clear();
    for (const int inst : footprint_[ci]) touched.push_back(shardOf(inst));
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
    if (touched.size() <= 1) {
      const std::size_t home = touched.empty() ? 0 : static_cast<std::size_t>(touched.front());
      shards_[home].localConnectors.push_back(static_cast<int>(ci));
      continue;
    }
    CrossConnector x;
    x.connector = static_cast<int>(ci);
    x.shards = touched;
    x.owner = x.shards.front();
    crossIndex_[ci] = static_cast<int>(cross_.size());
    shards_[static_cast<std::size_t>(x.owner)].ownedCross.push_back(static_cast<int>(ci));
    cross_.push_back(std::move(x));
  }
}

void ShardedSystem::migrate(std::span<const Move> moves) {
  bool moved = false;
  for (const Move& m : moves) {
    require(m.instance >= 0 && static_cast<std::size_t>(m.instance) < partition_.instanceCount(),
            "migrate: instance out of range");
    require(m.toShard >= 0 && static_cast<std::size_t>(m.toShard) < shards_.size(),
            "migrate: destination shard out of range");
    moved = moved || shardOf(m.instance) != m.toShard;
  }
  if (!moved) return;
  for (const Move& m : moves) partition_.assign(static_cast<std::size_t>(m.instance), m.toShard);
  classify();
}

}  // namespace cbip::shard
