// A shard worker of the sharded formation engine.
//
// Each worker owns the compatibility rows of its ShardPlan partition: a
// private oracle (and row cache) over the shared graph. At kFormBegin it
// prewarms its slice of the task's holder universe and lists its owned
// holders of each task skill as slice indexes. Seeds advance in waves
// (kWaveSeeds, src/team/greedy_step.h): per wave round one kEvalStep
// carries every live seed's step, and the worker evaluates *its*
// candidates for each of them — owned holders of the seed's skill,
// compatible with the seed's whole team — and replies once with every
// seed's local best (or just the candidate count for the RANDOM policy,
// whose ranks the coordinator resolves with kCountLe probes).
// Rows of remote team members arrive as kRowSlice messages from their
// owners, restricted to this worker's universe slice: one message per
// owner per round, holding every owned member first seen in the wave.
// Slices are kept for the current wave only, so candidate evaluation
// never touches another shard's oracle and slice memory is bounded by a
// wave's members.
//
// Run() is a single-threaded message loop over the transport; all worker
// state is confined to that thread. Wire input is validated before it
// touches any state: a malformed request gets a typed InvalidArgument
// reply and the worker keeps serving. The `dist.worker_stall` fault point
// makes the loop drop one (or more) received messages, modeling a stalled
// worker: the coordinator's bounded gather then times out and the run
// degrades to a typed error.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
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
              InProcessTransport* transport, OracleFactory oracle_factory,
              ShardWorkerOptions options);

  /// Message loop; returns when the transport closes.
  void Run();

 private:
  /// A team member's row restricted to this shard's universe slice (comp
  /// bits packed 64 per word, distances parallel to the slice). Empty
  /// until it is absorbed, and for members we never evaluate against.
  struct Slice {
    std::vector<uint64_t> comp;
    std::vector<uint32_t> dist;
  };

  /// A seed's team member: global id and its slice in slices_.
  struct Member {
    NodeId id;
    const Slice* row;
  };

  void Dispatch(Message msg);
  void HandleFormBegin(const Message& msg);
  void HandleEvalStep(const Message& msg);
  void HandleCountLe(const Message& msg);
  void HandleCostEval(const Message& msg);

  /// Checks a kEvalStep against the run before any state changes.
  Status ValidateStep(const Message& msg) const;

  /// Checks that a per-seed request's seeds ascend strictly inside its
  /// wave and that `args` (when non-null) is parallel to them.
  Status ValidateSeeds(const Message& msg,
                       const std::vector<uint64_t>* args) const;

  /// Appends the step's new members to their seeds' teams and makes
  /// every member first seen in this wave available for evaluation:
  /// owned ones are restricted to every shard's slice and sent to each
  /// peer as one kRowSlice; remote ones are awaited from their owners
  /// (bounded wait). DeadlineExceeded / Unavailable when a slice never
  /// arrives.
  Status AbsorbNewMembers(const Message& msg);

  /// Copies the slices of `msg` (a kRowSlice of the current round) into
  /// the members still waiting for one; counts them down in *missing.
  Status AdoptSlices(const Message& msg, size_t* missing);

  /// The universe slice as greedy_step.h's row-access policy; pair
  /// semantics match CompatibilityOracle::Compatible/Distance, including
  /// the SBPH symmetric closure.
  class SliceRows;

  void Reply(const Message& req, MsgType type, Message msg);
  void ReplyError(const Message& req, MsgType type, const Status& st);
  void ResetWave(uint32_t wave);

  /// Parks a kRowSlice that raced ahead of the kEvalStep it belongs to
  /// (the owner can process its copy of a broadcast and scatter before we
  /// have processed ours); AbsorbNewMembers adopts it once our round
  /// catches up. Provably stale slices are dropped.
  void BufferSlice(Message msg);

  const uint32_t shard_;
  const SignedGraph& graph_;
  const SkillAssignment& skills_;
  const ShardPlan& plan_;
  InProcessTransport* const transport_;
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
  /// Parallel to task_skills_: the skill's holders we own, as ascending
  /// indexes into our slice — the per-step candidate scan.
  std::vector<std::vector<uint32_t>> owned_holders_;

  // ---- Wave state (reset at round 0 of each wave) ------------------------
  uint32_t wave_ = 0;
  uint32_t round_ = 0;
  /// Every member first seen in this wave, with its slice. Node-based, so
  /// the Member pointers into it stay valid as it grows.
  std::unordered_map<NodeId, Slice> slices_;
  /// Per wave position (seed index mod kWaveSeeds): the seed's team.
  std::vector<std::vector<Member>> teams_;
  /// Per wave position: the RANDOM policy's candidates of the seed's step
  /// this round (ascending ids), which kCountLe probes count.
  std::vector<std::vector<NodeId>> candidates_;
  /// kRowSlice messages that raced ahead of their round.
  std::vector<Message> early_slices_;
};

}  // namespace tfsn
