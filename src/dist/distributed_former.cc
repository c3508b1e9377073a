#include "src/dist/distributed_former.h"

#include <algorithm>
#include <chrono>
#include <string>

#include "src/team/cost.h"
#include "src/util/logging.h"

namespace tfsn {

DistributedFormer::DistributedFormer(const SignedGraph& graph,
                                     const SkillAssignment& skills,
                                     const SkillCompatibilityIndex* index,
                                     GreedyParams params, DistOptions options)
    : graph_(graph),
      skills_(skills),
      index_(index),
      params_(params),
      options_(std::move(options)) {
  TFSN_CHECK(options_.num_shards >= 1);
  TFSN_CHECK(options_.oracle_factory != nullptr);
  if (params_.skill_policy == SkillPolicy::kLeastCompatible) {
    TFSN_CHECK(index != nullptr);
  }
  plan_ = ShardPlan(options_.strategy, graph.num_nodes(), options_.num_shards);
  {
    std::unique_ptr<CompatibilityOracle> probe =
        options_.oracle_factory(graph);
    TFSN_CHECK(probe != nullptr);
    sbph_ = probe->kind() == CompatKind::kSBPH;
  }
  transport_ = std::make_unique<InProcessTransport>(options_.num_shards);
  ShardWorkerOptions wopts;
  wopts.recv_timeout_ms = options_.recv_timeout_ms;
  all_shards_.reserve(options_.num_shards);
  for (uint32_t t = 0; t < options_.num_shards; ++t) {
    workers_.push_back(std::make_unique<ShardWorker>(
        t, graph, skills, plan_, transport_.get(), options_.oracle_factory,
        wopts));
    all_shards_.push_back(t);
  }
  threads_.reserve(workers_.size());
  for (auto& w : workers_) {
    threads_.emplace_back([worker = w.get()] { worker->Run(); });
  }
}

DistributedFormer::~DistributedFormer() {
  transport_->Close();
  for (std::thread& t : threads_) t.join();
}

Status DistributedFormer::Broadcast(Message msg) {
  msg.src = transport_->coordinator();
  for (uint32_t t = 0; t < options_.num_shards; ++t) {
    TFSN_RETURN_NOT_OK(transport_->Send(msg.src, t, msg));
  }
  return Status::OK();
}

void DistributedFormer::AbortRun(uint32_t run) {
  Message abort;
  abort.type = MsgType::kAbort;
  abort.run = run;
  abort.src = transport_->coordinator();
  // Best effort: a worker that misses the abort drops the run's remaining
  // traffic by epoch check anyway.
  for (uint32_t t = 0; t < options_.num_shards; ++t) {
    (void)transport_->Send(abort.src, t, abort);
  }
}

Result<std::vector<Message>> DistributedFormer::Gather(
    uint32_t run, uint32_t seed, uint32_t step, MsgType want,
    const std::vector<uint32_t>& from) {
  const uint32_t num_shards = options_.num_shards;
  std::vector<Message> replies(num_shards);
  std::vector<uint8_t> got(num_shards, 0);
  size_t remaining = from.size();
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(options_.recv_timeout_ms);
  while (remaining > 0) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) {
      return Status::DeadlineExceeded(
          std::string("gather timeout waiting for ") + MsgTypeName(want) +
          " (run " + std::to_string(run) + ", step " + std::to_string(step) +
          ", " + std::to_string(remaining) + " shard(s) missing)");
    }
    const int64_t remaining_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
            .count() +
        1;
    Message m;
    TFSN_RETURN_NOT_OK(
        transport_->Recv(transport_->coordinator(), remaining_ms, &m));
    // Drop anything from another epoch (e.g. replies that straggled in
    // after an aborted run) or of an unexpected type.
    if (m.run != run || m.seed != seed || m.step != step) continue;
    if (m.type != want) continue;
    if (m.src >= num_shards || got[m.src] != 0) continue;
    if (m.status != StatusCode::kOk) {
      return Status(m.status,
                    "shard " + std::to_string(m.src) + ": " + m.error);
    }
    got[m.src] = 1;
    replies[m.src] = std::move(m);
    --remaining;
  }
  return replies;
}

Result<NodeId> DistributedFormer::ResolveRank(
    uint32_t run, uint32_t seed_idx, uint32_t step, uint64_t k,
    const std::vector<uint64_t>& counts, FormCommStats* acc) {
  const uint32_t num_shards = options_.num_shards;
  if (plan_.IdOrderedByShard()) {
    // Range plan: shard order is id order, so the global rank maps to a
    // (shard, local rank) pair by prefix sums — one extra round.
    uint64_t prefix = 0;
    for (uint32_t t = 0; t < num_shards; ++t) {
      if (k < prefix + counts[t]) {
        Message pick;
        pick.type = MsgType::kPickRank;
        pick.src = transport_->coordinator();
        pick.run = run;
        pick.seed = seed_idx;
        pick.step = step;
        pick.arg = k - prefix;
        TFSN_RETURN_NOT_OK(transport_->Send(pick.src, t, pick));
        ++acc->rounds;
        TFSN_ASSIGN_OR_RETURN(
            std::vector<Message> replies,
            Gather(run, seed_idx, step, MsgType::kPickReply, {t}));
        return static_cast<NodeId>(replies[t].best_id);
      }
      prefix += counts[t];
    }
    return Status::Internal("rank " + std::to_string(k) +
                            " exceeds the gathered candidate count");
  }
  // Hash plan: ownership interleaves the id space, so binary-search the
  // smallest id x with |candidates <= x| >= k + 1 — O(log n) rounds of
  // S constant-size messages each.
  uint64_t lo = 0;
  uint64_t hi = graph_.num_nodes() == 0 ? 0 : graph_.num_nodes() - 1;
  while (lo < hi) {
    const uint64_t mid = lo + (hi - lo) / 2;
    Message probe;
    probe.type = MsgType::kCountLe;
    probe.run = run;
    probe.seed = seed_idx;
    probe.step = step;
    probe.arg = mid;
    TFSN_RETURN_NOT_OK(Broadcast(probe));
    ++acc->rounds;
    TFSN_ASSIGN_OR_RETURN(
        std::vector<Message> replies,
        Gather(run, seed_idx, step, MsgType::kCountReply, all_shards_));
    uint64_t le = 0;
    for (uint32_t t = 0; t < num_shards; ++t) le += replies[t].count;
    if (le >= k + 1) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return static_cast<NodeId>(lo);
}

Result<std::pair<uint32_t, uint64_t>> DistributedFormer::EvalCost(
    uint32_t run, uint32_t seed_idx, uint32_t step,
    const std::vector<NodeId>& team, FormCommStats* acc) {
  Message ev;
  ev.type = MsgType::kCostEval;
  ev.run = run;
  ev.seed = seed_idx;
  ev.step = step;
  ev.team = team;
  TFSN_RETURN_NOT_OK(Broadcast(ev));
  ++acc->rounds;
  TFSN_ASSIGN_OR_RETURN(
      std::vector<Message> replies,
      Gather(run, seed_idx, step, MsgType::kCostReply, all_shards_));

  // Assemble the directed distance matrix D[i][j] = dist(row(team[i]),
  // team[j]) from the owners' rows; every member is owned by exactly one
  // responding shard.
  const size_t team_size = team.size();
  std::vector<uint32_t> dist_matrix(team_size * team_size, 0);
  std::vector<uint8_t> have(team_size, 0);
  for (uint32_t t = 0; t < options_.num_shards; ++t) {
    const Message& r = replies[t];
    if (r.members.size() * team_size != r.dists.size()) {
      return Status::Internal("shard " + std::to_string(t) +
                              ": malformed cost reply");
    }
    for (size_t mi = 0; mi < r.members.size(); ++mi) {
      const NodeId x = r.members[mi];
      const auto it = std::lower_bound(team.begin(), team.end(), x);
      if (it == team.end() || *it != x) {
        return Status::Internal("shard " + std::to_string(t) +
                                ": cost row for non-member " +
                                std::to_string(x));
      }
      const size_t i = static_cast<size_t>(it - team.begin());
      if (have[i] != 0) {
        return Status::Internal("duplicate cost row for member " +
                                std::to_string(x));
      }
      have[i] = 1;
      for (size_t j = 0; j < team_size; ++j) {
        dist_matrix[i * team_size + j] = r.dists[mi * team_size + j];
      }
    }
  }
  for (size_t i = 0; i < team_size; ++i) {
    if (have[i] == 0) {
      return Status::Internal("cost row missing for member " +
                              std::to_string(team[i]));
    }
  }

  // Exactly the single-node pair semantics: SBPH takes the min over both
  // directions, everything else reads row(team[i]) — then the shared
  // objective loops from cost.h.
  const auto pair_dist = [&](size_t i, size_t j) {
    const uint32_t fwd = dist_matrix[i * team_size + j];
    if (!sbph_) return fwd;
    return std::min(fwd, dist_matrix[j * team_size + i]);
  };
  const uint32_t cost = TeamDiameterOver(team_size, pair_dist);
  const uint64_t objective =
      params_.cost_kind == CostKind::kDiameter
          ? ObjectiveFromDiameter(cost)
          : TeamCostOver(team_size, params_.cost_kind, pair_dist);
  return std::make_pair(cost, objective);
}

Result<TeamResult> DistributedFormer::CompleteSeed(uint32_t run,
                                                   uint32_t seed_idx,
                                                   NodeId seed,
                                                   const Task& task,
                                                   Rng* seed_rng,
                                                   FormCommStats* acc) {
  TeamResult candidate;
  std::vector<NodeId> team{seed};
  SkillCoverage coverage(task);
  coverage.Cover(skills_.SkillsOf(seed));
  uint32_t step = 0;
  NodeId last_added = seed;
  while (!coverage.AllCovered()) {
    const std::vector<SkillId> uncovered = coverage.Uncovered();
    const SkillId s =
        SelectSkillByPolicy(params_.skill_policy, skills_, index_, uncovered);

    Message ev;
    ev.type = MsgType::kEvalStep;
    ev.run = run;
    ev.seed = seed_idx;
    ev.step = step;
    ev.new_member = last_added;
    ev.skill = s;
    if (params_.user_policy == UserPolicy::kMostCompatible) {
      // Skills still uncovered after s — the future-holder pool input.
      for (SkillId t : uncovered) {
        if (t != s) ev.rest.push_back(t);
      }
    }
    TFSN_RETURN_NOT_OK(Broadcast(ev));
    ++acc->steps;
    ++acc->rounds;
    TFSN_ASSIGN_OR_RETURN(
        std::vector<Message> replies,
        Gather(run, seed_idx, step, MsgType::kCandidateReply, all_shards_));

    // Merge the per-shard bests with the global order-fixed tie-break.
    NodeId v = kInvalidNode;
    switch (params_.user_policy) {
      case UserPolicy::kMinDistance: {
        uint64_t best_score = ~0ULL;
        for (uint32_t t = 0; t < options_.num_shards; ++t) {
          const Message& r = replies[t];
          if (r.has_best == 0) continue;
          if (v == kInvalidNode || r.best_score < best_score ||
              (r.best_score == best_score && r.best_id < v)) {
            best_score = r.best_score;
            v = r.best_id;
          }
        }
        break;
      }
      case UserPolicy::kMostCompatible: {
        int64_t best_score = -1;
        for (uint32_t t = 0; t < options_.num_shards; ++t) {
          const Message& r = replies[t];
          if (r.has_best == 0) continue;
          const int64_t score = static_cast<int64_t>(r.best_score);
          if (v == kInvalidNode || score > best_score ||
              (score == best_score && r.best_id < v)) {
            best_score = score;
            v = r.best_id;
          }
        }
        break;
      }
      case UserPolicy::kRandom: {
        std::vector<uint64_t> counts(options_.num_shards, 0);
        uint64_t total = 0;
        for (uint32_t t = 0; t < options_.num_shards; ++t) {
          counts[t] = replies[t].count;
          total += counts[t];
        }
        if (total > 0) {
          // One NextBounded(total) per step with a non-empty candidate
          // set — exactly the single-node path's stream consumption
          // (total equals the global candidate count: the shard lists
          // partition it).
          TFSN_CHECK(seed_rng != nullptr);
          const uint64_t k = seed_rng->NextBounded(total);
          TFSN_ASSIGN_OR_RETURN(
              v, ResolveRank(run, seed_idx, step, k, counts, acc));
        }
        break;
      }
    }
    if (v == kInvalidNode) return candidate;  // dead end, like single-node
    team.push_back(v);
    coverage.Cover(skills_.SkillsOf(v));
    last_added = v;
    ++step;
  }
  std::sort(team.begin(), team.end());
  TFSN_ASSIGN_OR_RETURN(const auto cost_obj,
                        EvalCost(run, seed_idx, step, team, acc));
  candidate.found = true;
  candidate.cost = cost_obj.first;
  candidate.objective = cost_obj.second;
  candidate.members = std::move(team);
  return candidate;
}

Result<TeamResult> DistributedFormer::Form(const Task& task, Rng* rng,
                                           FormCommStats* comm) {
  FormCommStats acc;
  const CommStats before = transport_->stats();
  const auto finish = [&] {
    acc.comm = transport_->stats() - before;
    if (comm != nullptr) *comm = acc;
  };

  TeamResult result;
  if (task.empty()) {
    result.found = true;
    finish();
    return result;
  }
  const uint32_t run = ++run_counter_;

  std::vector<SkillId> all_skills(task.skills().begin(), task.skills().end());
  const SkillId first =
      SelectSkillByPolicy(params_.skill_policy, skills_, index_, all_skills);
  std::vector<NodeId> seeds =
      GreedySeedSet(skills_, first, params_.max_seeds, rng);

  Message begin;
  begin.type = MsgType::kFormBegin;
  begin.run = run;
  begin.task_skills.assign(task.skills().begin(), task.skills().end());
  begin.user_policy = static_cast<uint8_t>(params_.user_policy);
  begin.pool_cap = params_.most_compatible_pool_cap;
  if (Status st = Broadcast(begin); !st.ok()) {
    AbortRun(run);
    finish();
    return st;
  }

  // Per-seed forked streams in seed order — the single-node consumption.
  std::vector<Rng> seed_rngs =
      ForkSeedRngs(params_.user_policy, seeds.size(), rng);

  std::vector<TeamResult> candidates;
  for (size_t i = 0; i < seeds.size(); ++i) {
    Rng* seed_rng = seed_rngs.empty() ? nullptr : &seed_rngs[i];
    Result<TeamResult> r = CompleteSeed(run, static_cast<uint32_t>(i),
                                        seeds[i], task, seed_rng, &acc);
    if (!r.ok()) {
      AbortRun(run);
      finish();
      return r.status();
    }
    if (r->found) candidates.push_back(std::move(*r));
  }
  result.seeds_tried = static_cast<uint32_t>(seeds.size());
  result.seeds_succeeded = static_cast<uint32_t>(candidates.size());

  TakeBestCandidate(candidates, &result);  // the single-node merge
  finish();
  return result;
}

}  // namespace tfsn
