#include "src/dist/shard_plan.h"

#include "src/util/logging.h"

namespace tfsn {

ShardPlan::ShardPlan(uint32_t num_nodes, uint32_t num_shards)
    : num_nodes_(num_nodes), num_shards_(num_shards) {
  TFSN_CHECK(num_shards >= 1);
}

std::vector<NodeId> ShardPlan::OwnedNodes(uint32_t shard) const {
  TFSN_CHECK(shard < num_shards_);
  std::vector<NodeId> owned;
  for (NodeId u = 0; u < num_nodes_; ++u) {
    if (ShardOf(u) == shard) owned.push_back(u);
  }
  return owned;
}

}  // namespace tfsn
