#include "src/dist/distributed_former.h"

#include <algorithm>
#include <chrono>
#include <span>
#include <string>
#include <utility>

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
  plan_ = ShardPlan(graph.num_nodes(), options_.num_shards);
  {
    std::unique_ptr<CompatibilityOracle> probe = options_.oracle_factory(graph);
    TFSN_CHECK(probe != nullptr);
    sbph_ = probe->kind() == CompatKind::kSBPH;
  }
  transport_ = std::make_unique<InProcessTransport>(options_.num_shards);
  ShardWorkerOptions wopts;
  wopts.recv_timeout_ms = options_.recv_timeout_ms;
  for (uint32_t t = 0; t < options_.num_shards; ++t) {
    workers_.push_back(std::make_unique<ShardWorker>(
        t, graph, skills, plan_, transport_.get(), options_.oracle_factory,
        wopts));
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
    uint32_t run, uint32_t wave, uint32_t round, MsgType want) {
  const uint32_t num_shards = options_.num_shards;
  std::vector<Message> replies(num_shards);
  std::vector<uint8_t> got(num_shards, 0);
  size_t remaining = num_shards;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(options_.recv_timeout_ms);
  while (remaining > 0) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) {
      return Status::DeadlineExceeded(
          std::string("gather timeout waiting for ") + MsgTypeName(want) +
          " (run " + std::to_string(run) + ", wave " + std::to_string(wave) +
          ", round " + std::to_string(round) + ", " +
          std::to_string(remaining) + " shard(s) missing)");
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
    if (m.run != run || m.wave != wave || m.round != round) continue;
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

namespace {

Status MalformedReply(uint32_t shard, MsgType type) {
  return Status::Internal("shard " + std::to_string(shard) + ": malformed " +
                          MsgTypeName(type));
}

}  // namespace

Status DistributedFormer::SelectUsers(uint32_t run, uint32_t wave,
                                      uint32_t round,
                                      std::span<const SeedStep> live,
                                      std::span<Rng> rngs,
                                      std::span<NodeId> picks,
                                      FormCommStats* acc) {
  Message ev;
  ev.type = MsgType::kEvalStep;
  ev.run = run;
  ev.wave = wave;
  ev.round = round;
  // Only kMostCompatible reads the skills left after this one (its
  // future-holder pool), so only it puts them on the wire.
  const bool pool = params_.user_policy == UserPolicy::kMostCompatible;
  for (const SeedStep& s : live) {
    ev.seeds.push_back(wave * kWaveSeeds + s.slot);
    ev.new_members.push_back(s.team.back());
    ev.skills.push_back(s.skill);
    const std::span<const SkillId> rest =
        pool ? s.rest : std::span<const SkillId>();
    ev.rest.insert(ev.rest.end(), rest.begin(), rest.end());
    ev.rest_counts.push_back(static_cast<uint32_t>(rest.size()));
  }
  TFSN_RETURN_NOT_OK(Broadcast(std::move(ev)));
  ++acc->rounds;
  acc->steps += live.size();
  TFSN_ASSIGN_OR_RETURN(
      std::vector<Message> replies,
      Gather(run, wave, round, MsgType::kCandidateReply));
  for (uint32_t t = 0; t < options_.num_shards; ++t) {
    const Message& r = replies[t];
    if (r.counts.size() != live.size() || r.best_ids.size() != live.size() ||
        r.best_scores.size() != live.size()) {
      return MalformedReply(t, MsgType::kCandidateReply);
    }
  }
  if (params_.user_policy == UserPolicy::kRandom) {
    return PickRandom(run, wave, round, live, rngs, replies, picks, acc);
  }
  // Merge each seed's per-shard bests with the global order-fixed
  // tie-break.
  const bool min_score = params_.user_policy == UserPolicy::kMinDistance;
  for (size_t j = 0; j < live.size(); ++j) {
    uint64_t best_score = 0;
    for (uint32_t t = 0; t < options_.num_shards; ++t) {
      const NodeId id = replies[t].best_ids[j];
      if (id == kInvalidNode) continue;
      const uint64_t score = replies[t].best_scores[j];
      const bool better = min_score ? score < best_score : score > best_score;
      if (picks[j] == kInvalidNode || better ||
          (score == best_score && id < picks[j])) {
        best_score = score;
        picks[j] = id;
      }
    }
  }
  return Status::OK();
}

Status DistributedFormer::PickRandom(uint32_t run, uint32_t wave,
                                     uint32_t round,
                                     std::span<const SeedStep> live,
                                     std::span<Rng> rngs,
                                     const std::vector<Message>& replies,
                                     std::span<NodeId> picks,
                                     FormCommStats* acc) {
  const uint32_t num_shards = options_.num_shards;
  // One NextBounded(total) per seed with a non-empty candidate set —
  // exactly the single-node path's stream consumption (total equals the
  // seed's global candidate count: the shard lists partition it).
  struct Draw {
    size_t j;    // position in `live`
    uint64_t k;  // global rank, ascending id
  };
  std::vector<Draw> draws;
  for (size_t j = 0; j < live.size(); ++j) {
    uint64_t total = 0;
    for (uint32_t t = 0; t < num_shards; ++t) total += replies[t].counts[j];
    if (total == 0) continue;
    TFSN_CHECK(live[j].slot < rngs.size());
    draws.push_back({j, rngs[live[j].slot].NextBounded(total)});
  }

  // Ownership interleaves the id space, so binary-search each seed's
  // smallest id x with |candidates <= x| >= k + 1. The searches advance in
  // lockstep — one round of S messages per level, O(log n) levels.
  const uint64_t n = graph_.num_nodes();
  std::vector<uint64_t> lo(draws.size(), 0);
  std::vector<uint64_t> hi(draws.size(), n == 0 ? 0 : n - 1);
  for (;;) {
    Message probe;
    probe.type = MsgType::kCountLe;
    probe.run = run;
    probe.wave = wave;
    probe.round = round;
    std::vector<size_t> open;
    for (size_t d = 0; d < draws.size(); ++d) {
      if (lo[d] >= hi[d]) continue;
      open.push_back(d);
      probe.seeds.push_back(wave * kWaveSeeds + live[draws[d].j].slot);
      probe.args.push_back(lo[d] + (hi[d] - lo[d]) / 2);
    }
    if (open.empty()) break;
    TFSN_RETURN_NOT_OK(Broadcast(std::move(probe)));
    ++acc->rounds;
    TFSN_ASSIGN_OR_RETURN(
        std::vector<Message> counted,
        Gather(run, wave, round, MsgType::kCountReply));
    for (uint32_t t = 0; t < num_shards; ++t) {
      if (counted[t].counts.size() != open.size()) {
        return MalformedReply(t, MsgType::kCountReply);
      }
    }
    for (size_t q = 0; q < open.size(); ++q) {
      const size_t d = open[q];
      const uint64_t mid = lo[d] + (hi[d] - lo[d]) / 2;
      uint64_t le = 0;
      for (uint32_t t = 0; t < num_shards; ++t) le += counted[t].counts[q];
      if (le >= draws[d].k + 1) {
        hi[d] = mid;
      } else {
        lo[d] = mid + 1;
      }
    }
  }
  for (size_t d = 0; d < draws.size(); ++d) {
    picks[draws[d].j] = static_cast<NodeId>(lo[d]);
  }
  return Status::OK();
}

Status DistributedFormer::EvalCosts(uint32_t run, uint32_t wave,
                                    std::vector<TeamResult>* teams,
                                    FormCommStats* acc) {
  Message ev;
  ev.type = MsgType::kCostEval;
  ev.run = run;
  ev.wave = wave;
  for (const TeamResult& r : *teams) {
    ev.team.insert(ev.team.end(), r.members.begin(), r.members.end());
    ev.team_sizes.push_back(static_cast<uint32_t>(r.members.size()));
  }
  TFSN_RETURN_NOT_OK(Broadcast(std::move(ev)));
  ++acc->rounds;
  TFSN_ASSIGN_OR_RETURN(
      std::vector<Message> replies,
      Gather(run, wave, 0, MsgType::kCostReply));

  // Each owner lists, team after team, the members it owns and their
  // directed distance rows. The plan is replicated, so the coordinator
  // knows whose reply holds row i of every team and reads them in order;
  // the listed ids must match, so an owner that disagrees on ownership or
  // row order yields a typed error, never a wrong cost.
  std::vector<size_t> row(options_.num_shards, 0);
  std::vector<size_t> at(options_.num_shards, 0);
  std::vector<uint32_t> dist_matrix;
  for (TeamResult& r : *teams) {
    const std::vector<NodeId>& team = r.members;
    const size_t k = team.size();
    dist_matrix.assign(k * k, 0);
    for (size_t i = 0; i < k; ++i) {
      const uint32_t t = plan_.ShardOf(team[i]);
      const Message& reply = replies[t];
      if (row[t] == reply.members.size() || reply.members[row[t]] != team[i]) {
        return Status::Internal("shard " + std::to_string(t) +
                                ": cost row missing for member " +
                                std::to_string(team[i]));
      }
      if (reply.dists.size() - at[t] < k) {
        return MalformedReply(t, MsgType::kCostReply);
      }
      std::copy_n(reply.dists.begin() + at[t], k, dist_matrix.begin() + i * k);
      ++row[t];
      at[t] += k;
    }
    // Exactly the single-node pair semantics: SBPH takes the min over
    // both directions, everything else reads row(team[i]) — then the
    // shared objective loops from cost.h.
    const auto pair_dist = [&](size_t i, size_t j) {
      const uint32_t fwd = dist_matrix[i * k + j];
      if (!sbph_) return fwd;
      return std::min(fwd, dist_matrix[j * k + i]);
    };
    r.cost = TeamDiameterOver(k, pair_dist);
    r.objective = params_.cost_kind == CostKind::kDiameter
                      ? ObjectiveFromDiameter(r.cost)
                      : TeamCostOver(k, params_.cost_kind, pair_dist);
  }
  // Rows left over are for nodes the shard does not own or for no member.
  for (uint32_t t = 0; t < options_.num_shards; ++t) {
    if (row[t] != replies[t].members.size() ||
        at[t] != replies[t].dists.size()) {
      return MalformedReply(t, MsgType::kCostReply);
    }
  }
  return Status::OK();
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
  // Per-seed forked streams in seed order — the single-node consumption.
  std::vector<Rng> seed_rngs =
      ForkSeedRngs(params_.user_policy, seeds.size(), rng);

  Message begin;
  begin.type = MsgType::kFormBegin;
  begin.run = run;
  begin.task_skills.assign(task.skills().begin(), task.skills().end());
  begin.user_policy = static_cast<uint8_t>(params_.user_policy);
  begin.pool_cap = params_.most_compatible_pool_cap;
  Status st = Broadcast(std::move(begin));

  // Each wave runs through the shared completion loop, one message round
  // per loop round. Found teams are appended in seed order: the
  // single-node merge order.
  std::vector<TeamResult> candidates;
  std::vector<std::vector<NodeId>> teams;
  const uint32_t waves =
      static_cast<uint32_t>((seeds.size() + kWaveSeeds - 1) / kWaveSeeds);
  for (uint32_t wave = 0; st.ok() && wave < waves; ++wave) {
    const size_t offset = size_t{wave} * kWaveSeeds;
    const size_t count = std::min<size_t>(kWaveSeeds, seeds.size() - offset);
    const std::span<Rng> rngs =
        seed_rngs.empty() ? std::span<Rng>()
                          : std::span<Rng>(seed_rngs).subspan(offset, count);
    teams.assign(count, {});
    uint32_t round = 0;
    st = CompleteSeeds(
        skills_, index_, params_.skill_policy, task,
        std::span<const NodeId>(seeds).subspan(offset, count),
        [](NodeId v) { return v; },
        [&](std::span<const SeedStep> live, std::span<NodeId> picks) {
          return SelectUsers(run, wave, round++, live, rngs, picks, &acc);
        },
        std::span(teams));
    if (!st.ok()) break;
    for (std::vector<NodeId>& team : teams) {
      if (team.empty()) continue;
      TeamResult& found = candidates.emplace_back();
      found.found = true;
      found.members = std::move(team);
    }
  }
  if (st.ok() && !candidates.empty()) {
    st = EvalCosts(run, waves, &candidates, &acc);
  }
  if (!st.ok()) {
    AbortRun(run);
    finish();
    return st;
  }
  result.seeds_tried = static_cast<uint32_t>(seeds.size());
  result.seeds_succeeded = static_cast<uint32_t>(candidates.size());

  TakeBestCandidate(candidates, &result);  // the single-node merge
  finish();
  return result;
}

}  // namespace tfsn
