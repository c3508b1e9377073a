// Deterministic partitioning of the node id space into S shards.
//
// The sharded formation engine (distributed_former.h) assigns every node —
// and therefore every holder of every skill — to exactly one shard; that
// shard's worker owns the node's compatibility row and evaluates the node
// whenever it is a candidate in a greedy step. A node's shard is its
// SplitMix64-mixed id modulo S, which spreads dense id regions (and
// skill-correlated id clusters) evenly across shards at the price of
// id-interleaved ownership. The plan is a pure function of (num_nodes,
// num_shards), so every participant of a formation run computes the same
// plan locally and no plan state ever crosses the transport.

#pragma once

#include <cstdint>
#include <vector>

#include "src/graph/signed_graph.h"

namespace tfsn {

/// How node ids map to shards. The hash plan is the only one; the type
/// stays for callers that still name it in DistOptions::strategy.
enum class ShardStrategy : uint8_t {
  kHash = 0,
};

/// The (pure, replicable) node -> shard map for one formation engine.
class ShardPlan {
 public:
  ShardPlan() = default;

  /// Plan for `num_shards` >= 1 shards over ids [0, num_nodes).
  ShardPlan(uint32_t num_nodes, uint32_t num_shards);

  uint32_t num_nodes() const { return num_nodes_; }
  uint32_t num_shards() const { return num_shards_; }

  /// Owning shard of node `u` (u < num_nodes()).
  uint32_t ShardOf(NodeId u) const {
    return static_cast<uint32_t>(Mix(u) % num_shards_);
  }

  /// Node ids owned by `shard`, ascending. May be empty (more shards than
  /// nodes, or a shard that drew nothing).
  std::vector<NodeId> OwnedNodes(uint32_t shard) const;

 private:
  /// SplitMix64 finalizer — a fixed bijective mix, so the plan is
  /// identical on every platform.
  static uint64_t Mix(uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  uint32_t num_nodes_ = 0;
  uint32_t num_shards_ = 1;
};

}  // namespace tfsn
