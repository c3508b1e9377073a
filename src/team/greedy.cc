#include "src/team/greedy.h"

#include <algorithm>
#include <bit>
#include <span>

#include "src/graph/bfs.h"
#include "src/team/cost.h"
#include "src/team/greedy_step.h"
#include "src/util/logging.h"
#include "src/util/parallel.h"

namespace tfsn {

const char* SkillPolicyName(SkillPolicy p) {
  switch (p) {
    case SkillPolicy::kRarest: return "Rarest";
    case SkillPolicy::kLeastCompatible: return "LeastCompatible";
  }
  return "?";
}

const char* UserPolicyName(UserPolicy p) {
  switch (p) {
    case UserPolicy::kMinDistance: return "MinDistance";
    case UserPolicy::kMostCompatible: return "MostCompatible";
    case UserPolicy::kRandom: return "Random";
  }
  return "?";
}

SkillId SelectSkillByPolicy(SkillPolicy policy, const SkillAssignment& skills,
                            const SkillCompatibilityIndex* index,
                            const std::vector<SkillId>& uncovered) {
  TFSN_CHECK(!uncovered.empty());
  if (policy == SkillPolicy::kLeastCompatible) TFSN_CHECK(index != nullptr);
  SkillId best = uncovered[0];
  for (SkillId s : uncovered) {
    switch (policy) {
      case SkillPolicy::kRarest:
        if (skills.Frequency(s) < skills.Frequency(best)) best = s;
        break;
      case SkillPolicy::kLeastCompatible:
        if (index->Degree(s) < index->Degree(best)) best = s;
        break;
    }
  }
  return best;
}

std::vector<NodeId> GreedySeedSet(const SkillAssignment& skills,
                                  SkillId first_skill, uint32_t max_seeds,
                                  Rng* rng) {
  auto holders = skills.Holders(first_skill);
  std::vector<NodeId> seeds(holders.begin(), holders.end());
  if (max_seeds > 0 && seeds.size() > max_seeds) {
    TFSN_CHECK(rng != nullptr);
    std::vector<uint32_t> picks = rng->SampleWithoutReplacement(
        static_cast<uint32_t>(seeds.size()), max_seeds);
    std::sort(picks.begin(), picks.end());
    std::vector<NodeId> sampled;
    sampled.reserve(picks.size());
    for (uint32_t p : picks) sampled.push_back(seeds[p]);
    seeds.swap(sampled);
  }
  return seeds;
}

std::vector<NodeId> FutureHolderPool(const SkillAssignment& skills,
                                     std::span<const SkillId> rest,
                                     uint32_t cap) {
  std::vector<NodeId> pool;
  for (SkillId s : rest) {
    auto hs = skills.Holders(s);
    pool.insert(pool.end(), hs.begin(), hs.end());
  }
  std::sort(pool.begin(), pool.end());
  pool.erase(std::unique(pool.begin(), pool.end()), pool.end());
  if (cap == 0 || pool.size() <= cap) return pool;
  // Deterministic thinning: keep an evenly spaced subset.
  std::vector<NodeId> thin;
  thin.reserve(cap);
  const double step = static_cast<double>(pool.size()) / cap;
  for (uint32_t i = 0; i < cap; ++i) {
    thin.push_back(pool[static_cast<size_t>(i * step)]);
  }
  return thin;
}

std::vector<Rng> ForkSeedRngs(UserPolicy policy, size_t num_seeds, Rng* rng) {
  std::vector<Rng> streams;
  if (policy != UserPolicy::kRandom) return streams;
  TFSN_CHECK(rng != nullptr);
  streams.reserve(num_seeds);
  for (size_t i = 0; i < num_seeds; ++i) streams.push_back(rng->Fork());
  return streams;
}

void TakeBestCandidate(std::span<const TeamResult> candidates,
                       TeamResult* result) {
  const TeamResult* best = nullptr;
  for (const TeamResult& c : candidates) {
    if (best == nullptr || c.objective < best->objective ||
        (c.objective == best->objective &&
         c.members.size() < best->members.size())) {
      best = &c;
    }
  }
  if (best == nullptr) return;
  result->found = true;
  result->members = best->members;
  result->cost = best->cost;
  result->objective = best->objective;
}

namespace {

// The dense task view as a row-access policy (greedy_step.h). Candidate
// filtering is an AND-fold of 64-bit pair-row words, kMinDistance reads
// packed uint16 distances, and kMostCompatible's pool is an OR of holder
// masks thinned by rank-select and scored by popcount. Local ids ascend
// with global ids, so every scan visits candidates in the oracle path's
// order. One instance per seed worker: the buffers are scratch.
class ViewRows {
 public:
  using Member = uint32_t;

  explicit ViewRows(const TaskCompatView& view)
      : view_(view), sbph_(view.kind() == CompatKind::kSBPH) {}

  NodeId Global(uint32_t v) const { return view_.GlobalOf(v); }

  void Candidates(SkillId skill, std::span<const uint32_t> team,
                  std::vector<uint32_t>* out) {
    const size_t words = view_.words();
    auto holders = view_.HolderMask(view_.TaskSkillPos(skill));
    cand_mask_.assign(holders.begin(), holders.end());
    for (uint32_t x : team) {
      auto row = view_.PairRow(x);
      for (size_t w = 0; w < words; ++w) cand_mask_[w] &= row[w];
    }
    for (uint32_t x : team) {
      cand_mask_[x >> 6] &= ~(uint64_t{1} << (x & 63));
    }
    AppendSetBits(cand_mask_, out);
  }

  uint32_t Distance(uint32_t x, uint32_t v) const {
    const uint16_t packed =
        sbph_ ? std::min(view_.DistRow(x)[v], view_.DistRow(v)[x])
              : view_.DistRow(x)[v];
    return TaskCompatView::Widen(packed);
  }

  void SetPool(std::span<const SkillId> rest, uint32_t cap) {
    const size_t words = view_.words();
    pool_mask_.assign(words, 0);
    for (SkillId t : rest) {
      auto mask = view_.HolderMask(view_.TaskSkillPos(t));
      for (size_t w = 0; w < words; ++w) pool_mask_[w] |= mask[w];
    }
    const uint64_t pool_size = CountSetBits(pool_mask_);
    if (cap == 0 || pool_size <= cap) return;
    // Evenly spaced thinning by rank-select on the mask: the selected
    // ranks floor(i * step) are exactly the elements FutureHolderPool
    // picks from its sorted vector, without materializing it.
    const double step = static_cast<double>(pool_size) / cap;
    pool_.clear();
    uint32_t i = 0;
    uint64_t rank = 0;  // set bits before the current word
    for (size_t w = 0; w < words && i < cap; ++w) {
      uint64_t bits = pool_mask_[w];
      const uint64_t count = static_cast<uint64_t>(std::popcount(bits));
      uint64_t consumed = 0;  // bits cleared from this word so far
      while (i < cap) {
        const uint64_t target =
            static_cast<uint64_t>(static_cast<uint32_t>(i) * step);
        if (target >= rank + count) break;
        // Drop set bits below the target rank, then take the lowest.
        for (; rank + consumed < target; ++consumed) bits &= bits - 1;
        pool_.push_back(static_cast<uint32_t>(w * 64 + std::countr_zero(bits)));
        ++i;
      }
      rank += count;
    }
    std::fill(pool_mask_.begin(), pool_mask_.end(), 0);
    for (uint32_t v : pool_) pool_mask_[v >> 6] |= uint64_t{1} << (v & 63);
  }

  uint64_t PoolScore(uint32_t v) const {
    auto row = view_.DirRow(v);
    uint64_t score = 0;
    for (size_t w = 0; w < row.size(); ++w) {
      score += static_cast<uint64_t>(std::popcount(row[w] & pool_mask_[w]));
    }
    return score;
  }

 private:
  const TaskCompatView& view_;
  const bool sbph_;
  std::vector<uint64_t> cand_mask_;
  std::vector<uint64_t> pool_mask_;
  std::vector<uint32_t> pool_;
};

// The oracle as a row-access policy: the reference path, and the only one
// for graphs too large for the view. Ids are global node ids; every pair
// question is one oracle lookup.
class OracleRows {
 public:
  using Member = uint32_t;

  OracleRows(CompatibilityOracle* oracle, const SkillAssignment& skills)
      : oracle_(oracle), skills_(skills) {}

  NodeId Global(NodeId v) const { return v; }

  void Candidates(SkillId skill, std::span<const NodeId> team,
                  std::vector<uint32_t>* out) {
    for (NodeId v : skills_.Holders(skill)) {
      if (std::find(team.begin(), team.end(), v) != team.end()) continue;
      if (std::all_of(team.begin(), team.end(),
                      [&](NodeId x) { return oracle_->Compatible(x, v); })) {
        out->push_back(v);
      }
    }
  }

  uint32_t Distance(NodeId x, NodeId v) { return oracle_->Distance(x, v); }

  void SetPool(std::span<const SkillId> rest, uint32_t cap) {
    pool_ = FutureHolderPool(skills_, rest, cap);
  }

  uint64_t PoolScore(NodeId v) {
    const auto& row = oracle_->GetRow(v);
    uint64_t score = 0;
    for (NodeId w : pool_) score += row.comp[w] != 0;
    return score;
  }

 private:
  CompatibilityOracle* oracle_;
  const SkillAssignment& skills_;
  std::vector<NodeId> pool_;
};

// An in-process engine's seed: CompleteSeeds over a wave of one, selecting
// through SelectUserOver on the seed's own rng stream, then the team's
// diameter and objective over the accessor's pair distances. found ==
// false at a dead end.
template <typename Rows>
TeamResult CompleteSeed(Rows& rows, const SkillAssignment& skills,
                        const SkillCompatibilityIndex* index,
                        const GreedyParams& params, const Task& task,
                        uint32_t seed, Rng* rng) {
  std::vector<uint32_t> team;
  std::vector<uint32_t> scratch;
  const Status st = CompleteSeeds(
      skills, index, params.skill_policy, task, std::span(&seed, 1),
      [&rows](uint32_t v) { return rows.Global(v); },
      [&](std::span<const SeedStep> live, std::span<uint32_t> picks) {
        for (size_t j = 0; j < live.size(); ++j) {
          picks[j] = SelectUserOver(rows, params, live[j].skill, live[j].team,
                                    live[j].rest, rng, &scratch);
        }
        return Status::OK();
      },
      std::span(&team, 1));
  TFSN_CHECK(st.ok());  // this selector cannot fail
  TeamResult candidate;
  if (team.empty()) return candidate;
  const auto dist = [&](size_t i, size_t j) {
    return rows.Distance(team[i], team[j]);
  };
  candidate.found = true;
  candidate.cost = TeamDiameterOver(team.size(), dist);
  candidate.objective =
      params.cost_kind == CostKind::kDiameter
          ? ObjectiveFromDiameter(candidate.cost)
          : TeamCostOver(team.size(), params.cost_kind, dist);
  candidate.members.reserve(team.size());
  for (uint32_t id : team) candidate.members.push_back(rows.Global(id));
  return candidate;
}

}  // namespace

GreedyTeamFormer::GreedyTeamFormer(CompatibilityOracle* oracle,
                                   const SkillAssignment& skills,
                                   const SkillCompatibilityIndex* index,
                                   GreedyParams params)
    : oracle_(oracle), skills_(skills), index_(index), params_(params) {
  TFSN_CHECK(oracle != nullptr);
  if (params_.skill_policy == SkillPolicy::kLeastCompatible) {
    TFSN_CHECK(index != nullptr);
  }
}

// Runs the seed loop of Algorithm 2 and collects every successful candidate
// team into `sink` (members sorted, costs evaluated). Returns (seeds tried,
// seeds succeeded).
std::pair<uint32_t, uint32_t> GreedyTeamFormer::EnumerateCandidates(
    const Task& task, Rng* rng, const TaskCompatView* shared_view,
    std::vector<TeamResult>* sink) {
  // Initial skill (line 3) over the whole task.
  std::vector<SkillId> all_skills(task.skills().begin(), task.skills().end());
  const SkillId first =
      SelectSkillByPolicy(params_.skill_policy, skills_, index_, all_skills);

  // Seed set: holders of the initial skill, optionally capped by sampling.
  std::vector<NodeId> seeds =
      GreedySeedSet(skills_, first, params_.max_seeds, rng);

  // Dense path: materialize the task-local view once (its row fetch doubles
  // as the cache prewarm). A caller-supplied view already paid for that,
  // over a possibly larger universe. The oracle serves only kOracle and the
  // tasks whose view cannot be represented; the path never changes the
  // results, only how they are computed.
  std::unique_ptr<TaskCompatView> owned_view;
  const TaskCompatView* view = shared_view;
  if (view == nullptr && params_.eval_path != GreedyEvalPath::kOracle) {
    owned_view =
        TaskCompatView::Build(oracle_, skills_, task,
                              std::max<uint32_t>(1, params_.prefetch_threads));
    view = owned_view.get();
  }
  if (view == nullptr && params_.prefetch_threads > 0) {
    // Oracle path: warm the row cache for the whole holder universe so the
    // misses are computed by parallel workers instead of serially on first
    // use.
    oracle_->StreamRows(HolderUniverse(skills_, task.skills()),
                        params_.prefetch_threads,
                        [](size_t, const CompatibilityOracle::Row&) {});
  }

  std::vector<Rng> seed_rngs =
      ForkSeedRngs(params_.user_policy, seeds.size(), rng);
  auto seed_rng_at = [&](size_t i) -> Rng* {
    return seed_rngs.empty() ? nullptr : &seed_rngs[i];
  };

  // Per-seed result slots merged in seed order: a deterministic reduction
  // no matter how many workers ran the loop.
  std::vector<TeamResult> slots(seeds.size());
  if (view != nullptr) {
    TFSN_DCHECK(view->kind() == oracle_->kind());
    const uint32_t threads =
        params_.seed_threads == 1 ? 1 : ResolveThreads(params_.seed_threads);
    ParallelForEach(seeds.size(), threads, [&](uint64_t i) {
      const uint32_t seed_local = view->LocalOf(seeds[i]);
      // Every holder of a task skill is in the view universe — also when
      // the view was supplied by a caller for a superset task.
      TFSN_CHECK(seed_local != kNoLocalId);
      ViewRows rows(*view);
      slots[i] = CompleteSeed(rows, skills_, index_, params_, task,
                              seed_local, seed_rng_at(i));
    });
  } else {
    // One oracle instance is not thread-safe (GetRow pins rows into
    // instance-local state), so the oracle path stays serial.
    OracleRows rows(oracle_, skills_);
    for (size_t i = 0; i < seeds.size(); ++i) {
      slots[i] = CompleteSeed(rows, skills_, index_, params_, task, seeds[i],
                              seed_rng_at(i));
    }
  }

  uint32_t succeeded = 0;
  for (TeamResult& slot : slots) {
    if (!slot.found) continue;
    ++succeeded;
    sink->push_back(std::move(slot));
  }
  return {static_cast<uint32_t>(seeds.size()), succeeded};
}

TeamResult GreedyTeamFormer::Form(const Task& task, Rng* rng) {
  return FormImpl(task, rng, nullptr);
}

TeamResult GreedyTeamFormer::FormWithView(const TaskCompatView& view,
                                          const Task& task, Rng* rng) {
  return FormImpl(task, rng, &view);
}

TeamResult GreedyTeamFormer::FormImpl(const Task& task, Rng* rng,
                                      const TaskCompatView* shared_view) {
  TeamResult result;
  if (task.empty()) {
    result.found = true;
    return result;
  }
  std::vector<TeamResult> candidates;
  auto [tried, succeeded] =
      EnumerateCandidates(task, rng, shared_view, &candidates);
  result.seeds_tried = tried;
  result.seeds_succeeded = succeeded;
  TakeBestCandidate(candidates, &result);
  return result;
}

std::vector<TeamResult> GreedyTeamFormer::FormTopK(const Task& task,
                                                   uint32_t k, Rng* rng) {
  std::vector<TeamResult> candidates;
  if (task.empty() || k == 0) return candidates;
  EnumerateCandidates(task, rng, nullptr, &candidates);
  std::sort(candidates.begin(), candidates.end(),
            [](const TeamResult& a, const TeamResult& b) {
              if (a.objective != b.objective) return a.objective < b.objective;
              if (a.members.size() != b.members.size()) {
                return a.members.size() < b.members.size();
              }
              return a.members < b.members;
            });
  // Deduplicate identical member sets (different seeds can converge).
  candidates.erase(std::unique(candidates.begin(), candidates.end(),
                               [](const TeamResult& a, const TeamResult& b) {
                                 return a.members == b.members;
                               }),
                   candidates.end());
  if (candidates.size() > k) candidates.resize(k);
  return candidates;
}

bool TaskSkillsCompatible(const SkillCompatibilityIndex& index,
                          const Task& task) {
  auto skills = task.skills();
  for (size_t i = 0; i < skills.size(); ++i) {
    for (size_t j = i + 1; j < skills.size(); ++j) {
      if (!index.SkillsCompatible(skills[i], skills[j])) return false;
    }
  }
  return true;
}

bool TaskSkillsCompatibleExact(CompatibilityOracle* oracle,
                               const SkillAssignment& skills,
                               const Task& task) {
  auto task_skills = task.skills();
  for (size_t i = 0; i < task_skills.size(); ++i) {
    for (size_t j = i + 1; j < task_skills.size(); ++j) {
      auto hs = skills.Holders(task_skills[i]);
      auto ht = skills.Holders(task_skills[j]);
      if (hs.empty() || ht.empty()) return false;
      // Fetch rows from the smaller side.
      if (ht.size() < hs.size()) std::swap(hs, ht);
      bool found = false;
      for (NodeId u : hs) {
        const auto& row = oracle->GetRow(u);
        for (NodeId v : ht) {
          // comp[u] itself covers the self-compatibility case (u == v).
          if (row.comp[v]) {
            found = true;
            break;
          }
        }
        if (found) break;
      }
      if (!found) return false;
    }
  }
  return true;
}

bool TaskSkillsCompatibleExact(const TaskCompatView& view) {
  auto task_skills = view.task().skills();
  const size_t words = view.words();
  std::vector<uint32_t> side;
  for (size_t i = 0; i < task_skills.size(); ++i) {
    for (size_t j = i + 1; j < task_skills.size(); ++j) {
      size_t pi = i, pj = j;
      if (view.HolderCount(pi) == 0 || view.HolderCount(pj) == 0) return false;
      // Same smaller-side rule as the oracle overload (it decides which
      // direction the SBPH raw rows are consulted in).
      if (view.HolderCount(pj) < view.HolderCount(pi)) std::swap(pi, pj);
      auto target_mask = view.HolderMask(pj);
      side.clear();
      AppendSetBits(view.HolderMask(pi), &side);
      bool found = false;
      for (uint32_t u : side) {
        auto row = view.DirRow(u);
        for (size_t w = 0; w < words; ++w) {
          // Bit u of target_mask covers the self-compatibility case.
          if ((row[w] & target_mask[w]) != 0) {
            found = true;
            break;
          }
        }
        if (found) break;
      }
      if (!found) return false;
    }
  }
  return true;
}

}  // namespace tfsn
