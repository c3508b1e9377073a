#include "src/dist/shard_worker.h"

#include <algorithm>
#include <chrono>
#include <span>
#include <string>
#include <tuple>
#include <utility>

#include "src/team/greedy_step.h"
#include "src/team/task_view.h"
#include "src/util/fault_injection.h"
#include "src/util/logging.h"

namespace tfsn {

namespace {

// A message's (run, wave, round): the coordinator issues epochs in this
// lexicographic order.
std::tuple<uint32_t, uint32_t, uint32_t> Epoch(const Message& m) {
  return {m.run, m.wave, m.round};
}

}  // namespace

// This shard's universe slice as a row-access policy (greedy_step.h).
// Candidate ids are indexes into the slice, which ascends with global id.
// Every team member's slice is absorbed before the step runs, so no
// lookup here can fail.
class ShardWorker::SliceRows {
 public:
  using Member = ShardWorker::Member;

  explicit SliceRows(const ShardWorker& worker)
      : w_(worker), mine_(worker.universe_by_shard_[worker.shard_]) {}

  void Candidates(SkillId skill, std::span<const Member> team,
                  std::vector<uint32_t>* out) const {
    const auto& task_skills = w_.task_skills_;
    const size_t k =
        std::lower_bound(task_skills.begin(), task_skills.end(), skill) -
        task_skills.begin();
    for (uint32_t i : w_.owned_holders_[k]) {
      const NodeId v = mine_[i];
      if (std::any_of(team.begin(), team.end(),
                      [v](const Member& x) { return x.id == v; })) {
        continue;
      }
      if (std::all_of(team.begin(), team.end(),
                      [&](const Member& x) { return Compatible(x, i); })) {
        out->push_back(i);
      }
    }
  }

  uint32_t Distance(const Member& x, uint32_t i) const {
    const uint32_t d = x.row->dist[i];
    return w_.sbph_ ? std::min(d, w_.oracle_->GetRow(mine_[i]).dist[x.id]) : d;
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
                         InProcessTransport* transport,
                         OracleFactory oracle_factory,
                         ShardWorkerOptions options)
    : shard_(shard),
      graph_(graph),
      skills_(skills),
      plan_(plan),
      transport_(transport),
      options_(options),
      oracle_(oracle_factory(graph)),
      sbph_(oracle_ != nullptr && oracle_->kind() == CompatKind::kSBPH),
      teams_(kWaveSeeds),
      candidates_(kWaveSeeds) {
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
    Dispatch(std::move(msg));
  }
}

void ShardWorker::Dispatch(Message msg) {
  switch (msg.type) {
    case MsgType::kFormBegin:
      HandleFormBegin(msg);
      return;
    case MsgType::kEvalStep:
      HandleEvalStep(msg);
      return;
    case MsgType::kCountLe:
      HandleCountLe(msg);
      return;
    case MsgType::kCostEval:
      HandleCostEval(msg);
      return;
    case MsgType::kAbort:
      if (msg.run == run_) run_active_ = false;
      return;
    case MsgType::kRowSlice:
      BufferSlice(std::move(msg));
      return;
    default:
      return;  // replies are never addressed to workers; drop
  }
}

void ShardWorker::ResetWave(uint32_t wave) {
  wave_ = wave;
  round_ = 0;
  slices_.clear();
  for (std::vector<Member>& team : teams_) team.clear();
  for (std::vector<NodeId>& c : candidates_) c.clear();
}

void ShardWorker::BufferSlice(Message msg) {
  // Drop only what is provably stale: an aborted run, or an epoch before
  // ours. Everything else may be an early arrival — the owner can race
  // ahead of us on a broadcast — and is parked.
  if ((msg.run == run_ && !run_active_) ||
      Epoch(msg) < std::tie(run_, wave_, round_)) {
    return;
  }
  early_slices_.push_back(std::move(msg));
}

void ShardWorker::HandleFormBegin(const Message& msg) {
  run_ = msg.run;
  run_active_ = true;
  user_policy_ = static_cast<UserPolicy>(msg.user_policy);
  pool_cap_ = msg.pool_cap;
  ResetWave(0);

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
  for (NodeId v : universe) {
    universe_by_shard_[plan_.ShardOf(v)].push_back(v);
  }
  // Our slice holds exactly the owned holders of the task skills, so each
  // skill's owned holders are its intersection with the slice (both
  // ascend).
  const std::vector<NodeId>& mine = universe_by_shard_[shard_];
  owned_holders_.assign(task_skills_.size(), {});
  for (size_t k = 0; k < task_skills_.size(); ++k) {
    uint32_t i = 0;
    for (NodeId v : skills_.Holders(task_skills_[k])) {
      while (i < mine.size() && mine[i] < v) ++i;
      if (i < mine.size() && mine[i] == v) owned_holders_[k].push_back(i);
    }
  }

  // Prewarm the owned slice of the row working set through the batch row
  // engine; bounded pinning.
  if (!mine.empty()) {
    oracle_->StreamRows(mine, 1,
                        [](size_t, const CompatibilityOracle::Row&) {});
  }
}

Status ShardWorker::ValidateSeeds(const Message& msg,
                                  const std::vector<uint64_t>* args) const {
  if (args != nullptr && args->size() != msg.seeds.size()) {
    return Status::InvalidArgument("per-seed arrays of unequal length");
  }
  const uint64_t first = uint64_t{msg.wave} * kWaveSeeds;
  for (size_t j = 0; j < msg.seeds.size(); ++j) {
    const uint32_t s = msg.seeds[j];
    if (s < first || s >= first + kWaveSeeds ||
        (j > 0 && s <= msg.seeds[j - 1])) {
      return Status::InvalidArgument(
          "seed " + std::to_string(s) + " is out of order or outside wave " +
          std::to_string(msg.wave));
    }
  }
  return Status::OK();
}

Status ShardWorker::ValidateStep(const Message& msg) const {
  const size_t n = msg.seeds.size();
  uint64_t rest_total = 0;
  for (uint32_t c : msg.rest_counts) rest_total += c;
  if (msg.new_members.size() != n || msg.skills.size() != n ||
      msg.rest_counts.size() != n || rest_total != msg.rest.size()) {
    return Status::InvalidArgument("per-seed arrays of unequal length");
  }
  TFSN_RETURN_NOT_OK(ValidateSeeds(msg, nullptr));
  for (NodeId m : msg.new_members) {
    if (m >= graph_.num_nodes()) {
      return Status::InvalidArgument("team member " + std::to_string(m) +
                                     " out of range");
    }
  }
  const auto not_task_skill = [&](SkillId s) {
    return !std::binary_search(task_skills_.begin(), task_skills_.end(), s);
  };
  for (const std::vector<SkillId>* list : {&msg.skills, &msg.rest}) {
    const auto bad = std::find_if(list->begin(), list->end(), not_task_skill);
    if (bad != list->end()) {
      return Status::InvalidArgument("step skill " + std::to_string(*bad) +
                                     " is not a skill of the run's task");
    }
  }
  if (user_policy_ > UserPolicy::kRandom) {
    return Status::InvalidArgument("unknown user policy");
  }
  return Status::OK();
}

Status ShardWorker::AdoptSlices(const Message& msg, size_t* missing) {
  const size_t slice_size = universe_by_shard_[shard_].size();
  if (slice_size == 0) return Status::OK();  // we wait for nothing
  const size_t words = (slice_size + 63) / 64;
  const size_t k = msg.members.size();
  if (msg.slice_comp.size() != k * words ||
      msg.slice_dist.size() != k * slice_size) {
    return Status::Internal("malformed row slice from shard " +
                            std::to_string(msg.src));
  }
  for (size_t j = 0; j < k; ++j) {
    // Only a member first seen this round, from its owner: everything
    // absorbed earlier is filled already.
    const auto it = slices_.find(msg.members[j]);
    if (it == slices_.end() || !it->second.dist.empty() ||
        plan_.ShardOf(msg.members[j]) != msg.src) {
      continue;
    }
    Slice& slice = it->second;
    const auto comp = msg.slice_comp.begin() + j * words;
    const auto dist = msg.slice_dist.begin() + j * slice_size;
    slice.comp.assign(comp, comp + words);
    slice.dist.assign(dist, dist + slice_size);
    --*missing;
  }
  return Status::OK();
}

Status ShardWorker::AbsorbNewMembers(const Message& msg) {
  const std::vector<NodeId>& mine = universe_by_shard_[shard_];
  std::vector<NodeId> owned;
  size_t missing = 0;
  for (size_t j = 0; j < msg.seeds.size(); ++j) {
    const NodeId m = msg.new_members[j];
    const auto [it, first_seen] = slices_.try_emplace(m);
    if (first_seen) {
      if (plan_.ShardOf(m) == shard_) {
        owned.push_back(m);
      } else if (!mine.empty()) {
        ++missing;  // we only need remote rows to evaluate candidates
      }
    }
    teams_[msg.seeds[j] % kWaveSeeds].push_back({m, &it->second});
  }

  // Restrict each owned new member's row to every shard's universe slice
  // (ascending slice order): each peer with nodes to evaluate gets one
  // kRowSlice holding them all, sent before we restrict our own.
  if (!owned.empty()) {
    const std::vector<std::shared_ptr<const CompatibilityOracle::Row>> rows =
        oracle_->GetRows(owned, 1);
    // Branch-free: the comp bits are data-dependent coin flips.
    const auto restrict = [](const CompatibilityOracle::Row& row,
                             const std::vector<NodeId>& nodes, uint64_t* comp,
                             uint32_t* dist) {
      const uint8_t* row_comp = row.comp.data();
      const uint32_t* row_dist = row.dist.data();
      for (size_t base = 0; base < nodes.size(); base += 64) {
        const size_t end = std::min(base + 64, nodes.size());
        uint64_t word = 0;
        for (size_t i = base; i < end; ++i) {
          const NodeId v = nodes[i];
          word |= uint64_t{row_comp[v] != 0} << (i - base);
          dist[i] = row_dist[v];
        }
        comp[base >> 6] = word;
      }
    };
    for (uint32_t k = 1; k <= plan_.num_shards(); ++k) {
      const uint32_t t = (shard_ + k) % plan_.num_shards();  // self last
      const std::vector<NodeId>& nodes = universe_by_shard_[t];
      if (nodes.empty()) continue;
      const size_t words = (nodes.size() + 63) / 64;
      if (t == shard_) {
        for (size_t j = 0; j < owned.size(); ++j) {
          Slice& slice = slices_[owned[j]];
          slice.comp.resize(words);
          slice.dist.resize(nodes.size());
          restrict(*rows[j], nodes, slice.comp.data(), slice.dist.data());
        }
        continue;
      }
      Message out;
      out.type = MsgType::kRowSlice;
      out.src = shard_;
      out.run = msg.run;
      out.wave = msg.wave;
      out.round = msg.round;
      out.members = owned;
      out.slice_comp.resize(owned.size() * words);
      out.slice_dist.resize(owned.size() * nodes.size());
      for (size_t j = 0; j < owned.size(); ++j) {
        restrict(*rows[j], nodes, out.slice_comp.data() + j * words,
                 out.slice_dist.data() + j * nodes.size());
      }
      // A dropped slice surfaces at the destination as a bounded-wait
      // timeout; the run degrades to a typed error there.
      (void)transport_->Send(shard_, t, out);
    }
  }

  // Adopt the slices that raced ahead of this round, keeping only later
  // ones parked, then wait for the rest.
  std::vector<Message> early;
  early.swap(early_slices_);
  for (Message& sm : early) {
    if (Epoch(sm) == Epoch(msg)) {
      TFSN_RETURN_NOT_OK(AdoptSlices(sm, &missing));
    } else if (Epoch(sm) > Epoch(msg)) {
      early_slices_.push_back(std::move(sm));
    }
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(options_.recv_timeout_ms);
  while (missing > 0) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) {
      return Status::DeadlineExceeded(
          "shard " + std::to_string(shard_) + ": " + std::to_string(missing) +
          " row slice(s) of round " + std::to_string(msg.round) +
          " never arrived");
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
    if (Epoch(sm) == Epoch(msg)) {
      TFSN_RETURN_NOT_OK(AdoptSlices(sm, &missing));
    } else {
      BufferSlice(std::move(sm));
    }
  }
  return Status::OK();
}

void ShardWorker::HandleEvalStep(const Message& msg) {
  if (!run_active_ || msg.run != run_) return;  // stale epoch: drop
  // Validate the whole step first; after this the selection cannot fail.
  if (Status st = ValidateStep(msg); !st.ok()) {
    ReplyError(msg, MsgType::kCandidateReply, st);
    return;
  }
  if (msg.round == 0 || msg.wave != wave_) ResetWave(msg.wave);
  round_ = msg.round;
  if (Status st = AbsorbNewMembers(msg); !st.ok()) {
    // Teams may now name members without a slice: drop the wave.
    ResetWave(msg.wave);
    // No reply when the run was aborted mid-wait — the coordinator is gone.
    if (run_active_) ReplyError(msg, MsgType::kCandidateReply, st);
    return;
  }

  // Local candidates — owned holders of the skill, not in the team,
  // compatible with every member — are the per-shard fragment of the
  // single-node candidate order, and the local best merged with its peers
  // reproduces the global pick. RANDOM replies the count only: the
  // coordinator draws the rank.
  const size_t n = msg.seeds.size();
  Message reply;
  reply.counts.assign(n, 0);
  reply.best_ids.assign(n, kInvalidNode);
  reply.best_scores.assign(n, 0);
  for (std::vector<NodeId>& c : candidates_) c.clear();
  const std::vector<NodeId>& mine = universe_by_shard_[shard_];
  if (!mine.empty()) {
    SliceRows rows(*this);
    std::vector<uint32_t> local;
    size_t rest_at = 0;
    for (size_t j = 0; j < n; ++j) {
      const uint32_t pos = msg.seeds[j] % kWaveSeeds;
      const std::span<const Member> team(teams_[pos]);
      const std::span<const SkillId> rest(msg.rest.data() + rest_at,
                                          msg.rest_counts[j]);
      rest_at += msg.rest_counts[j];
      local.clear();
      rows.Candidates(msg.skills[j], team, &local);
      const UserPick best =
          BestCandidate(rows, user_policy_, team, local, rest, pool_cap_);
      reply.counts[j] = local.size();
      if (best.id != kInvalidNode) {
        reply.best_ids[j] = mine[best.id];
        reply.best_scores[j] = best.score;
      }
      if (user_policy_ == UserPolicy::kRandom) {
        for (uint32_t i : local) candidates_[pos].push_back(mine[i]);
      }
    }
  }
  Reply(msg, MsgType::kCandidateReply, std::move(reply));
}

void ShardWorker::HandleCountLe(const Message& msg) {
  if (!run_active_ || msg.run != run_ || msg.wave != wave_ ||
      msg.round != round_) {
    return;  // stale probe; the coordinator's gather will time out
  }
  if (Status st = ValidateSeeds(msg, &msg.args); !st.ok()) {
    ReplyError(msg, MsgType::kCountReply, st);
    return;
  }
  // Each seed's candidates <= its threshold id.
  Message reply;
  for (size_t j = 0; j < msg.seeds.size(); ++j) {
    const std::vector<NodeId>& c = candidates_[msg.seeds[j] % kWaveSeeds];
    const auto x =
        static_cast<NodeId>(std::min<uint64_t>(msg.args[j], kInvalidNode));
    reply.counts.push_back(static_cast<uint64_t>(
        std::upper_bound(c.begin(), c.end(), x) - c.begin()));
  }
  Reply(msg, MsgType::kCountReply, std::move(reply));
}

void ShardWorker::HandleCostEval(const Message& msg) {
  if (!run_active_ || msg.run != run_) return;
  uint64_t total = 0;
  for (uint32_t size : msg.team_sizes) total += size;
  const bool in_range =
      std::all_of(msg.team.begin(), msg.team.end(),
                  [&](NodeId x) { return x < graph_.num_nodes(); });
  if (total != msg.team.size() || !in_range) {
    ReplyError(msg, MsgType::kCostReply,
               Status::InvalidArgument("malformed team list"));
    return;
  }
  ResetWave(msg.wave);  // the waves are over: release their slices
  Message reply;
  size_t at = 0;
  for (uint32_t size : msg.team_sizes) {
    const std::span<const NodeId> team(msg.team.data() + at, size);
    at += size;
    for (NodeId x : team) {
      if (plan_.ShardOf(x) != shard_) continue;
      const auto& row = oracle_->GetRow(x);
      reply.members.push_back(x);
      for (NodeId y : team) reply.dists.push_back(x == y ? 0 : row.dist[y]);
    }
  }
  Reply(msg, MsgType::kCostReply, std::move(reply));
}

void ShardWorker::Reply(const Message& req, MsgType type, Message msg) {
  msg.type = type;
  msg.src = shard_;
  msg.run = req.run;
  msg.wave = req.wave;
  msg.round = req.round;
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
