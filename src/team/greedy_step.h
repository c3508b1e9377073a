// Algorithm 2's greedy step, written once over a row-access policy.
//
// "Select user" (lines 9-10) picks, among the holders of the chosen skill
// that are compatible with every current team member, the one the user
// policy prefers. The per-seed completion loop (lines 4-11) repeats "select
// skill, select user" from one seed until the task is covered. Three
// engines run this code, each through its own accessor:
//
//   * the dense task view (greedy.cc, the default in-process path);
//   * the oracle (greedy.cc, the reference path and the only one for
//     graphs too large for the view);
//   * a shard worker's universe slice (src/dist/shard_worker.cc, selection
//     only; the coordinator runs the loop as messages).
//
// Because the policies below exist once and every accessor answers the
// same pair questions, the engines pick the same users bit for bit, as
// TeamDiameterOver/TeamCostOver (cost.h) do for the objectives.
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
//
// The completion loop additionally needs `Member == uint32_t` (members are
// former candidates) and `NodeId Global(uint32_t id)`; ids must ascend
// with global ids.

#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "src/skills/skills.h"
#include "src/team/cost.h"
#include "src/team/greedy.h"
#include "src/util/logging.h"
#include "src/util/rng.h"

namespace tfsn {

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

/// Greedy completion of one seed: cover the seed's skills, then select a
/// skill (line 8) and a user until the task is covered. Returns the team
/// with members sorted by global id and its cost and objective evaluated,
/// or found == false at a dead end.
template <typename Rows>
TeamResult CompleteSeedOver(Rows& rows, const SkillAssignment& skills,
                            const SkillCompatibilityIndex* index,
                            const GreedyParams& params, const Task& task,
                            uint32_t seed, Rng* rng) {
  static_assert(std::is_same_v<typename Rows::Member, uint32_t>);
  TeamResult candidate;
  std::vector<uint32_t> team{seed};
  std::vector<uint32_t> scratch;
  SkillCoverage coverage(task);
  coverage.Cover(skills.SkillsOf(rows.Global(seed)));
  while (!coverage.AllCovered()) {
    const std::vector<SkillId> uncovered = coverage.Uncovered();
    const SkillId s =
        SelectSkillByPolicy(params.skill_policy, skills, index, uncovered);
    // Skills still uncovered after s is handled; used by kMostCompatible.
    std::vector<SkillId> rest;
    for (SkillId t : uncovered) {
      if (t != s) rest.push_back(t);
    }
    const uint32_t v =
        SelectUserOver(rows, params, s, team, rest, rng, &scratch);
    if (v == kInvalidNode) return candidate;
    team.push_back(v);
    coverage.Cover(skills.SkillsOf(rows.Global(v)));
  }
  // Ids ascend with global ids, so this is also the global-id order.
  std::sort(team.begin(), team.end());
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

}  // namespace tfsn
