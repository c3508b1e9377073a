// Algorithm 2's greedy step and per-seed completion loop, written once.
//
// "Select user" (lines 9-10) picks, among the holders of the chosen skill
// that are compatible with every current team member, the one the user
// policy prefers. It runs over a row-access policy, one per engine:
//
//   * the dense task view (greedy.cc, the default in-process path);
//   * the oracle (greedy.cc, the reference path and the only one for
//     graphs too large for the view);
//   * a shard worker's universe slice (src/dist/shard_worker.cc).
//
// The completion loop (lines 4-11) repeats "select skill, select user"
// from each seed until the task is covered. CompleteSeeds runs it as
// rounds over a wave of seeds, and the engine supplies the user selection
// for a round: the in-process engines call it with one seed at a time and
// select through SelectUserOver, and the sharded coordinator
// (src/dist/distributed_former.cc) calls it once per wave of kWaveSeeds and
// selects with one broadcast/gather round over its shards.
//
// Because the loop and the policies below exist once and every accessor
// answers the same pair questions, the engines pick the same users bit for
// bit, as TeamDiameterOver/TeamCostOver (cost.h) do for the objectives.
//
// A row-access policy `Rows` provides:
//
//   using Member = ...;
//       How the accessor addresses a team member.
//   void Candidates(SkillId skill, std::span<const Member> team,
//                   std::vector<uint32_t>* out);
//       Appends the holders of `skill` that are not in `team` and are
//       compatible with every member of it, as candidate ids, in ascending
//       global-id order.
//   uint32_t Distance(const Member& x, uint32_t v);
//       Pair distance between member x and candidate v, as
//       CompatibilityOracle::Distance returns it (x != v).
//   void SetPool(std::span<const SkillId> rest, uint32_t cap);
//       kMostCompatible's future-holder pool: the holders of `rest`,
//       thinned to `cap` exactly as FutureHolderPool does (0 = no cap).
//   uint64_t PoolScore(uint32_t v);
//       Pool members that v's directional row marks compatible.

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/skills/skills.h"
#include "src/team/greedy.h"
#include "src/util/logging.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace tfsn {

/// Seeds per wave of the sharded coordinator: wave w holds the run's seeds
/// [w * kWaveSeeds, (w + 1) * kWaveSeeds), which take their greedy steps
/// together, one message round per step. A shard worker holds row slices
/// for one wave's members at a time, so this bounds its slice memory.
inline constexpr uint32_t kWaveSeeds = 64;

/// A user policy's choice among the candidates: the candidate id
/// (kInvalidNode when there is none) and its score — the worst distance
/// to the team for kMinDistance, the pool score for kMostCompatible.
struct UserPick {
  uint32_t id = kInvalidNode;
  uint64_t score = 0;
};

/// The deterministic user policies over `candidates` (ascending global-id
/// order): kMinDistance takes the first strict minimum of the worst
/// distance to the team, abandoning a candidate as soon as its partial
/// worst reaches the best so far (a pure pruning: the winner always runs
/// to completion, so its score is exact); kMostCompatible takes the first
/// maximum pool score. kRandom picks nothing here — its one draw covers
/// the whole candidate list, which a shard only holds part of.
template <typename Rows>
UserPick BestCandidate(Rows& rows, UserPolicy policy,
                       std::span<const typename Rows::Member> team,
                       std::span<const uint32_t> candidates,
                       std::span<const SkillId> rest, uint32_t pool_cap) {
  UserPick best;
  if (candidates.empty()) return best;
  switch (policy) {
    case UserPolicy::kMinDistance:
      best.score = ~uint64_t{0};
      for (uint32_t v : candidates) {
        uint32_t worst = 0;
        for (const auto& x : team) {
          worst = std::max(worst, rows.Distance(x, v));
          if (worst >= best.score) break;
        }
        if (worst < best.score) best = {v, worst};
      }
      break;
    case UserPolicy::kMostCompatible:
      rows.SetPool(rest, pool_cap);
      for (uint32_t v : candidates) {
        const uint64_t score = rows.PoolScore(v);
        if (best.id == kInvalidNode || score > best.score) best = {v, score};
      }
      break;
    case UserPolicy::kRandom:
      break;
  }
  return best;
}

/// "Select user" (lines 9-10): a holder of `skill` compatible with all of
/// `team`, by the configured user policy, or kInvalidNode when none is.
/// kRandom consumes exactly one rng->NextBounded(|candidates|) draw, and
/// only when there is a candidate. `candidates` is caller-owned scratch.
template <typename Rows>
uint32_t SelectUserOver(Rows& rows, const GreedyParams& params, SkillId skill,
                        std::span<const typename Rows::Member> team,
                        std::span<const SkillId> rest, Rng* rng,
                        std::vector<uint32_t>* candidates) {
  candidates->clear();
  rows.Candidates(skill, team, candidates);
  if (candidates->empty()) return kInvalidNode;
  if (params.user_policy == UserPolicy::kRandom) {
    TFSN_CHECK(rng != nullptr);
    return (*candidates)[rng->NextBounded(candidates->size())];
  }
  return BestCandidate(rows, params.user_policy, team, *candidates, rest,
                       params.most_compatible_pool_cap)
      .id;
}

/// One live seed's greedy step, as CompleteSeeds hands it to the user
/// selection of a round.
struct SeedStep {
  /// The seed's position in CompleteSeeds' `seeds`.
  uint32_t slot;
  /// The seed's team in the order added: the seed first, the member the
  /// previous round added last.
  std::span<const uint32_t> team;
  /// The skill to fill (line 8), chosen by SelectSkillByPolicy.
  SkillId skill;
  /// The task skills still uncovered after `skill`, ascending:
  /// kMostCompatible's future-holder pool.
  std::span<const SkillId> rest;
};

/// Algorithm 2's completion loop (lines 4-11) over a wave of seeds. Each
/// seed first covers its own skills; a seed that covers the task is done.
/// Then, in round k, every seed still live takes its k-th step together:
/// `select(steps, picks)` receives the live seeds' steps in seed order and
/// sets picks[j] (which arrives as kInvalidNode) to the user steps[j]'s
/// seed adds. kInvalidNode is a dead end and drops that seed alone. A
/// selector error ends the loop and is returned unchanged.
///
/// Member ids are the engine's (view-local or global, ascending with
/// global ids); `global(id)` maps one to its NodeId to read its skills.
/// Each completed team is written, members ascending, to teams[slot];
/// a dead-ended seed leaves its slot empty. `teams` is parallel to
/// `seeds`.
template <typename Global, typename Select>
Status CompleteSeeds(const SkillAssignment& skills,
                     const SkillCompatibilityIndex* index, SkillPolicy policy,
                     const Task& task, std::span<const uint32_t> seeds,
                     Global global, Select select,
                     std::span<std::vector<uint32_t>> teams) {
  TFSN_CHECK(teams.size() == seeds.size());
  struct Live {
    uint32_t slot;
    SkillCoverage coverage;
    std::vector<SkillId> rest;
  };
  std::vector<Live> live;
  for (uint32_t i = 0; i < seeds.size(); ++i) {
    teams[i].assign(1, seeds[i]);
    SkillCoverage coverage(task);
    coverage.Cover(skills.SkillsOf(global(seeds[i])));
    if (!coverage.AllCovered()) live.push_back({i, std::move(coverage), {}});
  }
  std::vector<SeedStep> steps;
  std::vector<uint32_t> picks;
  while (!live.empty()) {
    steps.clear();
    for (Live& s : live) {
      const std::vector<SkillId> uncovered = s.coverage.Uncovered();
      const SkillId skill =
          SelectSkillByPolicy(policy, skills, index, uncovered);
      s.rest.clear();
      for (SkillId t : uncovered) {
        if (t != skill) s.rest.push_back(t);
      }
      steps.push_back({s.slot, teams[s.slot], skill, s.rest});
    }
    picks.assign(live.size(), kInvalidNode);
    TFSN_RETURN_NOT_OK(select(std::span<const SeedStep>(steps),
                              std::span<uint32_t>(picks)));
    size_t kept = 0;
    for (size_t j = 0; j < live.size(); ++j) {
      std::vector<uint32_t>& team = teams[live[j].slot];
      if (picks[j] == kInvalidNode) {
        team.clear();
        continue;
      }
      team.push_back(picks[j]);
      live[j].coverage.Cover(skills.SkillsOf(global(picks[j])));
      if (live[j].coverage.AllCovered()) {
        std::sort(team.begin(), team.end());
        continue;
      }
      if (kept != j) live[kept] = std::move(live[j]);
      ++kept;
    }
    live.erase(live.begin() + static_cast<std::ptrdiff_t>(kept), live.end());
  }
  return Status::OK();
}

}  // namespace tfsn
