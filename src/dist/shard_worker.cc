#include "src/dist/shard_worker.h"

#include <algorithm>
#include <chrono>
#include <span>
#include <string>
#include <utility>

#include "src/team/greedy_step.h"
#include "src/team/task_view.h"
#include "src/util/fault_injection.h"
#include "src/util/logging.h"

namespace tfsn {

// This shard's universe slice as a row-access policy (greedy_step.h).
// Candidate ids are indexes into the slice, which ascends with global id.
// A team member is its row restricted to the slice — a kRowSlice from its
// owner, or our own restriction — resolved once per step, so no lookup
// here can fail.
class ShardWorker::SliceRows {
 public:
  struct Member {
    NodeId id;
    const Slice* row;
  };

  explicit SliceRows(const ShardWorker& worker)
      : w_(worker), mine_(worker.universe_by_shard_[worker.shard_]) {}

  void Candidates(SkillId skill, std::span<const Member> team,
                  std::vector<uint32_t>* out) const {
    for (NodeId v : w_.skills_.Holders(skill)) {
      if (w_.plan_.ShardOf(v) != w_.shard_) continue;
      if (std::any_of(team.begin(), team.end(),
                      [v](const Member& x) { return x.id == v; })) {
        continue;
      }
      // An owned holder of a task skill is in the slice by construction.
      const auto it = w_.local_index_.find(v);
      TFSN_DCHECK(it != w_.local_index_.end());
      const uint32_t i = it->second;
      if (std::all_of(team.begin(), team.end(),
                      [&](const Member& x) { return Compatible(x, i); })) {
        out->push_back(i);
      }
    }
  }

  uint32_t Distance(const Member& x, uint32_t i) const {
    const uint32_t d = x.row->dist[i];
    return w_.sbph_ ? std::min(d, w_.oracle_->GetRow(mine_[i]).dist[x.id])
                    : d;
  }

  void SetPool(std::span<const SkillId> rest, uint32_t cap) {
    pool_ = FutureHolderPool(w_.skills_, rest, cap);
  }

  uint64_t PoolScore(uint32_t i) const {
    const auto& row = w_.oracle_->GetRow(mine_[i]);
    uint64_t score = 0;
    for (NodeId w : pool_) score += row.comp[w] != 0;
    return score;
  }

 private:
  // SBPH pair semantics are the symmetric closure: either direction
  // suffices, and the reverse one reads the candidate's own (owned) row.
  bool Compatible(const Member& x, uint32_t i) const {
    return TestBit(x.row->comp, i) ||
           (w_.sbph_ && w_.oracle_->GetRow(mine_[i]).comp[x.id] != 0);
  }

  const ShardWorker& w_;
  const std::vector<NodeId>& mine_;
  std::vector<NodeId> pool_;
};

ShardWorker::ShardWorker(uint32_t shard, const SignedGraph& graph,
                         const SkillAssignment& skills, const ShardPlan& plan,
                         Transport* transport, OracleFactory oracle_factory,
                         ShardWorkerOptions options)
    : shard_(shard),
      graph_(graph),
      skills_(skills),
      plan_(plan),
      transport_(transport),
      options_(options),
      oracle_(oracle_factory(graph)),
      sbph_(oracle_ != nullptr && oracle_->kind() == CompatKind::kSBPH) {
  TFSN_CHECK(oracle_ != nullptr);
  TFSN_CHECK(shard < plan.num_shards());
}

void ShardWorker::Run() {
  for (;;) {
    Message msg;
    const Status st = transport_->Recv(shard_, /*timeout_ms=*/-1, &msg);
    if (st.IsUnavailable()) return;  // transport closed: clean shutdown
    if (!st.ok()) continue;          // malformed frame: skip it
    // A stalled worker misses the message entirely; the coordinator's
    // bounded gather turns that into a typed DeadlineExceeded.
    if (TFSN_FAULT_POINT("dist.worker_stall")) continue;
    Dispatch(msg);
  }
}

void ShardWorker::Dispatch(const Message& msg) {
  switch (msg.type) {
    case MsgType::kFormBegin: HandleFormBegin(msg); return;
    case MsgType::kEvalStep: HandleEvalStep(msg); return;
    case MsgType::kCountLe: HandleCountLe(msg); return;
    case MsgType::kPickRank: HandlePickRank(msg); return;
    case MsgType::kCostEval: HandleCostEval(msg); return;
    case MsgType::kAbort:
      if (msg.run == run_) run_active_ = false;
      return;
    case MsgType::kRowSlice:
      BufferSlice(msg);
      return;
    default:
      return;  // replies are never addressed to workers; drop
  }
}

void ShardWorker::ResetSeedState() {
  team_.clear();
  slices_.clear();
  candidates_.clear();
  candidates_step_ = 0;
}

void ShardWorker::BufferSlice(const Message& msg) {
  // Drop only what is provably stale: a past run, or a past seed of the
  // current run. Everything else may be an early arrival — the owner can
  // race ahead of us on a broadcast — and is parked until we catch up.
  if (msg.run < run_) return;
  if (msg.run == run_ && msg.seed < seed_) return;
  pending_slices_[{msg.run, msg.seed, msg.new_member}] =
      Slice{msg.slice_comp, msg.slice_dist};
}

void ShardWorker::HandleFormBegin(const Message& msg) {
  run_ = msg.run;
  run_active_ = true;
  user_policy_ = static_cast<UserPolicy>(msg.user_policy);
  pool_cap_ = msg.pool_cap;
  ResetSeedState();
  seed_ = 0;

  // The coordinator sends task.skills() (sorted, deduplicated, validated);
  // re-validate anyway — a worker never crashes on wire input.
  task_skills_.clear();
  for (SkillId s : msg.task_skills) {
    if (s < skills_.num_skills()) task_skills_.push_back(s);
  }
  std::sort(task_skills_.begin(), task_skills_.end());
  task_skills_.erase(std::unique(task_skills_.begin(), task_skills_.end()),
                     task_skills_.end());
  const std::vector<NodeId> universe = HolderUniverse(skills_, task_skills_);
  universe_by_shard_.assign(plan_.num_shards(), {});
  local_index_.clear();
  for (NodeId v : universe) {
    universe_by_shard_[plan_.ShardOf(v)].push_back(v);
  }
  const std::vector<NodeId>& mine = universe_by_shard_[shard_];
  local_index_.reserve(mine.size());
  for (uint32_t i = 0; i < mine.size(); ++i) local_index_[mine[i]] = i;

  // Prewarm the owned slice of the row working set through the batch row
  // engine; bounded pinning.
  if (!mine.empty()) {
    oracle_->StreamRows(mine, 1,
                        [](size_t, const CompatibilityOracle::Row&) {});
  }
}

Status ShardWorker::AbsorbNewMember(const Message& msg) {
  const NodeId m = msg.new_member;
  if (m >= graph_.num_nodes()) {
    return Status::Internal("team member " + std::to_string(m) +
                            " out of range");
  }
  team_.push_back(m);
  if (plan_.ShardOf(m) == shard_) {
    std::shared_ptr<const CompatibilityOracle::Row> row =
        oracle_->GetRowShared(m);
    // Restrict the new member's row to every shard's universe slice
    // (ascending local order): each peer with nodes to evaluate gets its
    // restriction as a kRowSlice, and we keep our own.
    for (uint32_t t = 0; t < plan_.num_shards(); ++t) {
      const std::vector<NodeId>& nodes = universe_by_shard_[t];
      if (nodes.empty()) continue;
      Slice slice;
      slice.comp.assign((nodes.size() + 63) / 64, 0);
      slice.dist.reserve(nodes.size());
      for (size_t i = 0; i < nodes.size(); ++i) {
        const NodeId v = nodes[i];
        if (row->comp[v] != 0) slice.comp[i >> 6] |= 1ULL << (i & 63);
        slice.dist.push_back(row->dist[v]);
      }
      if (t == shard_) {
        slices_[m] = std::move(slice);
        continue;
      }
      Message out;
      out.type = MsgType::kRowSlice;
      out.run = msg.run;
      out.seed = msg.seed;
      out.step = msg.step;
      out.new_member = m;
      out.slice_comp = std::move(slice.comp);
      out.slice_dist = std::move(slice.dist);
      // A dropped slice surfaces at the destination as a bounded-wait
      // timeout; the run degrades to a typed error there.
      (void)transport_->Send(shard_, t, out);
    }
    return Status::OK();
  }

  // Remote member. We only need its row if we can ever field a candidate.
  const size_t slice_size = universe_by_shard_[shard_].size();
  if (slice_size == 0) return Status::OK();

  // Drop parked slices from epochs that can never be adopted any more,
  // then adopt the one we want if it already raced in.
  const auto adopt = [&]() -> bool {
    pending_slices_.erase(
        pending_slices_.begin(),
        pending_slices_.lower_bound(std::make_tuple(run_, seed_, NodeId{0})));
    const auto it = pending_slices_.find(std::make_tuple(run_, seed_, m));
    if (it == pending_slices_.end()) return false;
    Slice slice = std::move(it->second);
    pending_slices_.erase(it);
    if (slice.dist.size() != slice_size ||
        slice.comp.size() != (slice_size + 63) / 64) {
      return false;  // malformed; let the wait time out
    }
    slices_[m] = std::move(slice);
    return true;
  };

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(options_.recv_timeout_ms);
  while (slices_.find(m) == slices_.end()) {
    if (adopt()) break;
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) {
      return Status::DeadlineExceeded(
          "shard " + std::to_string(shard_) + ": row slice for member " +
          std::to_string(m) + " never arrived");
    }
    const int64_t remaining_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
            .count() +
        1;
    Message sm;
    TFSN_RETURN_NOT_OK(transport_->Recv(shard_, remaining_ms, &sm));
    if (sm.type == MsgType::kAbort) {
      if (sm.run == run_) run_active_ = false;
      if (sm.run >= run_) {
        return Status::Unavailable("run aborted by coordinator");
      }
      continue;
    }
    if (sm.type != MsgType::kRowSlice) continue;  // nothing else can pend
    BufferSlice(sm);  // adopted (or rejected) at the top of the loop
  }
  return Status::OK();
}

void ShardWorker::HandleEvalStep(const Message& msg) {
  if (!run_active_ || msg.run != run_) return;  // stale epoch: drop
  if (msg.step == 0 || msg.seed != seed_) {
    ResetSeedState();
    seed_ = msg.seed;
  }
  // Validate once per step; after this the selection cannot fail.
  const auto is_task_skill = [&](SkillId s) {
    return std::binary_search(task_skills_.begin(), task_skills_.end(), s);
  };
  if (!is_task_skill(msg.skill) ||
      !std::all_of(msg.rest.begin(), msg.rest.end(), is_task_skill)) {
    ReplyError(msg, MsgType::kCandidateReply,
               Status::InvalidArgument("step skill " +
                                       std::to_string(msg.skill) +
                                       " is not a skill of the run's task"));
    return;
  }
  Status st = AbsorbNewMember(msg);
  if (!st.ok()) {
    // No reply when the run was aborted mid-wait — the coordinator is gone.
    if (run_active_) ReplyError(msg, MsgType::kCandidateReply, st);
    return;
  }

  // Local candidates — owned holders of the skill, not in the team,
  // compatible with every member — are the per-shard fragment of the
  // single-node candidate order, and the local best merged with its peers
  // reproduces the global pick. RANDOM replies the count only: the
  // coordinator draws the rank.
  const std::vector<NodeId>& mine = universe_by_shard_[shard_];
  std::vector<uint32_t> local;
  UserPick best;
  if (!mine.empty()) {
    std::vector<SliceRows::Member> team;
    team.reserve(team_.size());
    for (NodeId x : team_) {
      const auto it = slices_.find(x);
      if (it == slices_.end()) {
        ReplyError(msg, MsgType::kCandidateReply,
                   Status::Internal("missing row state for team member " +
                                    std::to_string(x)));
        return;
      }
      team.push_back({x, &it->second});
    }
    SliceRows rows(*this);
    rows.Candidates(msg.skill, team, &local);
    best = BestCandidate(rows, user_policy_, team, local, msg.rest,
                         pool_cap_);
  }
  candidates_.clear();
  for (uint32_t i : local) candidates_.push_back(mine[i]);
  candidates_step_ = msg.step;

  Message reply;
  reply.count = candidates_.size();
  if (best.id != kInvalidNode) {
    reply.has_best = 1;
    reply.best_id = mine[best.id];
    reply.best_score = best.score;
  }
  Reply(msg, MsgType::kCandidateReply, std::move(reply));
}

void ShardWorker::HandleCountLe(const Message& msg) {
  if (!run_active_ || msg.run != run_ || msg.seed != seed_ ||
      msg.step != candidates_step_) {
    return;  // stale probe; the coordinator's gather will time out
  }
  Message reply;
  reply.count = static_cast<uint64_t>(
      std::upper_bound(candidates_.begin(), candidates_.end(),
                       static_cast<NodeId>(msg.arg)) -
      candidates_.begin());
  Reply(msg, MsgType::kCountReply, std::move(reply));
}

void ShardWorker::HandlePickRank(const Message& msg) {
  if (!run_active_ || msg.run != run_ || msg.seed != seed_ ||
      msg.step != candidates_step_) {
    return;
  }
  if (msg.arg >= candidates_.size()) {
    ReplyError(msg, MsgType::kPickReply,
               Status::Internal("rank " + std::to_string(msg.arg) +
                                " out of range (have " +
                                std::to_string(candidates_.size()) +
                                " candidates)"));
    return;
  }
  Message reply;
  reply.best_id = candidates_[static_cast<size_t>(msg.arg)];
  Reply(msg, MsgType::kPickReply, std::move(reply));
}

void ShardWorker::HandleCostEval(const Message& msg) {
  if (!run_active_ || msg.run != run_) return;
  Message reply;
  for (NodeId x : msg.team) {
    if (x >= graph_.num_nodes()) {
      ReplyError(msg, MsgType::kCostReply,
                 Status::Internal("team member out of range"));
      return;
    }
  }
  for (NodeId x : msg.team) {
    if (plan_.ShardOf(x) != shard_) continue;
    const auto& row = oracle_->GetRow(x);
    reply.members.push_back(x);
    for (NodeId y : msg.team) {
      reply.dists.push_back(x == y ? 0 : row.dist[y]);
    }
  }
  Reply(msg, MsgType::kCostReply, std::move(reply));
}

void ShardWorker::Reply(const Message& req, MsgType type, Message msg) {
  msg.type = type;
  msg.src = shard_;
  msg.run = req.run;
  msg.seed = req.seed;
  msg.step = req.step;
  // A dropped reply surfaces as a gather timeout at the coordinator.
  (void)transport_->Send(shard_, transport_->coordinator(), msg);
}

void ShardWorker::ReplyError(const Message& req, MsgType type,
                             const Status& st) {
  Message msg;
  msg.status = st.code();
  msg.error = st.message();
  Reply(req, type, std::move(msg));
}

}  // namespace tfsn
