// A shard worker of the sharded formation engine.
//
// Each worker owns the compatibility rows of its ShardPlan partition: a
// private oracle (and row cache) over the shared graph, prewarmed with the
// owned slice of the task's holder universe at kFormBegin. Per greedy step
// the worker evaluates *its* candidates — holders of the requested skill
// that it owns, compatible with the whole current team — and replies with
// the local argmax (or just the candidate count for the RANDOM policy).
// Rows of remote team members arrive as kRowSlice messages from the
// member's owner, restricted to this worker's universe slice, so candidate
// evaluation never touches another shard's oracle.
//
// Run() is a single-threaded message loop over the transport; all worker
// state is confined to that thread. The `dist.worker_stall` fault point
// makes the loop drop one (or more) received messages, modeling a stalled
// worker: the coordinator's bounded gather then times out and the run
// degrades to a typed error.

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "src/compat/compatibility.h"
#include "src/dist/message.h"
#include "src/dist/shard_plan.h"
#include "src/dist/transport.h"
#include "src/skills/skills.h"
#include "src/team/greedy.h"
#include "src/util/status.h"

namespace tfsn {

/// Builds one worker's private oracle over the shared graph. Called once
/// per worker at construction; every worker must get an equivalently
/// configured oracle or the bit-identity contract is void.
using OracleFactory =
    std::function<std::unique_ptr<CompatibilityOracle>(const SignedGraph&)>;

/// Per-worker tuning.
struct ShardWorkerOptions {
  /// Bounded wait for a remote team member's row slice (milliseconds).
  int64_t recv_timeout_ms = 10'000;
};

/// One shard's row owner + candidate evaluator. Construct, then call Run()
/// from the worker's thread; it serves until the transport closes.
class ShardWorker {
 public:
  ShardWorker(uint32_t shard, const SignedGraph& graph,
              const SkillAssignment& skills, const ShardPlan& plan,
              Transport* transport, OracleFactory oracle_factory,
              ShardWorkerOptions options);

  /// Message loop; returns when the transport closes.
  void Run();

 private:
  /// A team member's row restricted to this shard's universe slice (comp
  /// bits packed 64 per word, distances parallel to the slice).
  struct Slice {
    std::vector<uint64_t> comp;
    std::vector<uint32_t> dist;
  };

  void Dispatch(const Message& msg);
  void HandleFormBegin(const Message& msg);
  void HandleEvalStep(const Message& msg);
  void HandleCountLe(const Message& msg);
  void HandlePickRank(const Message& msg);
  void HandleCostEval(const Message& msg);

  /// Makes `member`'s row slice available for candidate evaluation: owned
  /// members are fetched from the oracle, restricted to every shard's
  /// slice, and scattered to the peer shards; remote members are awaited
  /// as kRowSlice messages (with a bounded wait). DeadlineExceeded /
  /// Unavailable when the slice never arrives.
  Status AbsorbNewMember(const Message& msg);

  /// The universe slice as greedy_step.h's row-access policy; pair
  /// semantics match CompatibilityOracle::Compatible/Distance, including
  /// the SBPH symmetric closure.
  class SliceRows;

  void Reply(const Message& req, MsgType type, Message msg);
  void ReplyError(const Message& req, MsgType type, const Status& st);
  void ResetSeedState();

  /// Parks a kRowSlice that raced ahead of the kFormBegin / kEvalStep it
  /// belongs to (the owner can process its copy of a broadcast and
  /// scatter before we have processed ours). Keyed by (run, seed,
  /// member); AbsorbNewMember adopts it once our epoch catches up.
  void BufferSlice(const Message& msg);

  const uint32_t shard_;
  const SignedGraph& graph_;
  const SkillAssignment& skills_;
  const ShardPlan& plan_;
  Transport* const transport_;
  const ShardWorkerOptions options_;
  std::unique_ptr<CompatibilityOracle> oracle_;
  const bool sbph_;

  // ---- Run state (reset by kFormBegin) -----------------------------------
  bool run_active_ = false;
  uint32_t run_ = 0;
  UserPolicy user_policy_ = UserPolicy::kMinDistance;
  uint32_t pool_cap_ = 0;
  /// The run's task skills (sorted); a step naming any other skill is
  /// answered with a typed error.
  std::vector<SkillId> task_skills_;
  /// The task's holder universe partitioned by owning shard (ascending
  /// within each shard); universe_by_shard_[shard_] is *our* slice — the
  /// only nodes we can ever evaluate as candidates.
  std::vector<std::vector<NodeId>> universe_by_shard_;
  /// Universe node (owned by us) -> index into our slice; slice vectors
  /// from peers are indexed by this. Lookups only (never iterated).
  std::unordered_map<NodeId, uint32_t> local_index_;

  // ---- Seed state (reset at step 0 of each seed) -------------------------
  uint32_t seed_ = 0;
  std::vector<NodeId> team_;
  /// Every team member's row restricted to our universe slice (kept only
  /// while the slice is non-empty).
  std::map<NodeId, Slice> slices_;
  /// Early-arrival slices from the current or a future epoch, waiting for
  /// this worker to catch up; pruned of stale epochs on adoption.
  std::map<std::tuple<uint32_t, uint32_t, NodeId>, Slice> pending_slices_;
  /// Candidates of the last kEvalStep (ascending); kCountLe / kPickRank
  /// resolve the RANDOM policy's global rank against this list.
  std::vector<NodeId> candidates_;
  uint32_t candidates_step_ = 0;
};

}  // namespace tfsn
