// Algorithm 2 of the paper: generic greedy team formation with pluggable
// skill-selection and user-selection policies.
//
// The algorithm seeds a candidate team with each holder of an initial skill
// and then repeatedly (a) picks an uncovered skill by the skill policy and
// (b) adds a holder of that skill compatible with every current member,
// chosen by the user policy — until the task is covered or no compatible
// holder exists. The best-cost candidate team over all seeds is returned.
//
// Named configurations from the paper's evaluation:
//   LCMD   — least-compatible skill first, minimum-distance user.
//   LCMC   — least-compatible skill first, most-compatible user.
//   RANDOM — least-compatible skill first, uniformly random compatible user.
// plus the rarest-skill variants of [Lappas et al. 2009].

#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/compat/compatibility.h"
#include "src/compat/skill_index.h"
#include "src/skills/skills.h"
#include "src/team/cost.h"
#include "src/team/task_view.h"
#include "src/util/rng.h"

namespace tfsn {

/// Policy for "Select skill" (lines 3 and 8 of Algorithm 2).
enum class SkillPolicy : uint8_t {
  /// Fewest holders first, as in the unsigned problem [9].
  kRarest,
  /// Smallest compatibility degree cd(s) first (needs a
  /// SkillCompatibilityIndex).
  kLeastCompatible,
};

/// Policy for "Select user" (line 9 of Algorithm 2).
enum class UserPolicy : uint8_t {
  /// Minimizes the maximum distance to the current team (i.e. the team
  /// diameter after insertion).
  kMinDistance,
  /// Maximizes the number of compatible users among the holders of the
  /// still-uncovered skills (greedy for feasibility).
  kMostCompatible,
  /// Uniformly random compatible holder (the paper's RANDOM baseline).
  kRandom,
};

const char* SkillPolicyName(SkillPolicy p);
const char* UserPolicyName(UserPolicy p);

/// "Select skill" (lines 3 and 8 of Algorithm 2) as a free function: the
/// first skill of `uncovered` (ascending) with the strictly smallest
/// priority — holder frequency (kRarest) or index degree
/// (kLeastCompatible; `index` must be non-null then). The sharded
/// coordinator (src/dist/) replicates the single-node skill choice through
/// this exact function; `uncovered` must be non-empty.
SkillId SelectSkillByPolicy(SkillPolicy policy, const SkillAssignment& skills,
                            const SkillCompatibilityIndex* index,
                            const std::vector<SkillId>& uncovered);

/// The seed set of Algorithm 2's outer loop: holders of `first_skill`
/// (ascending), sampled without replacement down to `max_seeds` when the
/// cap is exceeded (0 = no cap; `rng` must be non-null when sampling
/// happens — it consumes exactly one SampleWithoutReplacement draw then).
/// Shared by the single-node and sharded formers so both consume the same
/// rng stream.
std::vector<NodeId> GreedySeedSet(const SkillAssignment& skills,
                                  SkillId first_skill, uint32_t max_seeds,
                                  Rng* rng);

/// kMostCompatible's future-holder pool: the holders of `rest`, sorted and
/// deduplicated, then — when more than `cap` > 0 — thinned to the evenly
/// spaced subset at ranks floor(i * |pool| / cap). The dense view's
/// rank-select thinning replicates this arithmetic bit for bit.
std::vector<NodeId> FutureHolderPool(const SkillAssignment& skills,
                                     std::span<const SkillId> rest,
                                     uint32_t cap);

/// How Form/FormTopK evaluate compatibility inside the seed loop. Every
/// path returns bit-identical results.
enum class GreedyEvalPath : uint8_t {
  /// The default; selects the same path as kView.
  kAuto,
  /// Build the task-local dense view (task_view.h). Falls back to the
  /// oracle only when the view cannot be represented — 2^15 - 1 or more
  /// nodes (distances overflow uint16), or a view over
  /// TaskCompatView::kDefaultMaxBytes — or the task_view.build_fail fault
  /// fires.
  kView,
  /// Consume the oracle pair by pair: the reference path.
  kOracle,
};

/// Tuning for the greedy former.
struct GreedyParams {
  SkillPolicy skill_policy = SkillPolicy::kLeastCompatible;
  UserPolicy user_policy = UserPolicy::kMinDistance;
  /// Cap on seed users tried for the initial skill (0 = all holders). The
  /// paper iterates all holders; the cap keeps dense skills tractable.
  uint32_t max_seeds = 0;
  /// kMostCompatible only: cap on future-holder candidates examined per
  /// compatibility count (0 = all).
  uint32_t most_compatible_pool_cap = 256;
  /// When nonzero, Form/FormTopK first batch-prefetch the oracle rows of
  /// every holder of the task's skills (the row working set of the greedy
  /// search) with this many workers via CompatibilityOracle::GetRows —
  /// warming the shared row cache in parallel instead of computing rows
  /// one by one inside the seed loop. 0 disables prefetching; results are
  /// identical either way. On the view path the same worker count fetches
  /// the rows the view is materialized from (0 = one worker — the rows are
  /// needed regardless).
  uint32_t prefetch_threads = 0;
  /// Workers for the seed loop on the view path (each seed's greedy
  /// completion is independent and the view is immutable). 1 = serial,
  /// 0 = hardware concurrency / TFSN_THREADS. Results are bit-identical
  /// for every setting: per-seed outcomes land in per-seed slots merged in
  /// seed order, and the RANDOM policy draws from per-seed forked streams.
  /// The oracle fallback path always runs serially (one oracle instance is
  /// not thread-safe).
  uint32_t seed_threads = 1;
  /// Evaluation path selection (see GreedyEvalPath).
  GreedyEvalPath eval_path = GreedyEvalPath::kAuto;
  /// Objective used to pick the best candidate team across seeds (the
  /// paper uses the diameter). The kMinDistance user policy always greedily
  /// bounds the diameter; this only changes the final argmin.
  CostKind cost_kind = CostKind::kDiameter;
};

/// Outcome of one team-formation run.
struct TeamResult {
  /// True when a team covering the task with all-pairs compatibility was
  /// found.
  bool found = false;
  /// Team members (sorted by id) when found.
  std::vector<NodeId> members;
  /// Cost(X): max pairwise relation distance; kUnreachable when some pair
  /// has no finite relation distance.
  uint32_t cost = 0;
  /// Value of the configured cost objective (equals `cost` for kDiameter).
  uint64_t objective = 0;
  /// Number of seed users attempted.
  uint32_t seeds_tried = 0;
  /// Seeds whose greedy completion succeeded.
  uint32_t seeds_succeeded = 0;
};

/// The kDiameter objective of a team with this diameter (the mapping
/// TeamCost applies), so candidate evaluation derives the objective from
/// its one pairwise sweep.
inline uint64_t ObjectiveFromDiameter(uint32_t diameter) {
  return diameter == kUnreachable ? std::numeric_limits<uint64_t>::max()
                                  : diameter;
}

/// The RANDOM user policy's per-seed streams: one Rng::Fork per seed, in
/// seed order, so every engine and seed-thread count consumes the same
/// stream. Empty, with `rng` untouched, for the other user policies.
std::vector<Rng> ForkSeedRngs(UserPolicy policy, size_t num_seeds, Rng* rng);

/// Algorithm 2's merge over the seeds' candidate teams: the first one with
/// the strictly smallest objective, ties going to the smaller team, is
/// copied into *result (members, cost, objective, found). *result is left
/// as it is when `candidates` is empty.
void TakeBestCandidate(std::span<const TeamResult> candidates,
                       TeamResult* result);

/// Greedy team former bound to one (graph, skills, relation) triple.
class GreedyTeamFormer {
 public:
  /// `index` is required when any policy is kLeastCompatible or when using
  /// MAX-bound helpers; may be nullptr otherwise. All referees must outlive
  /// the former.
  GreedyTeamFormer(CompatibilityOracle* oracle, const SkillAssignment& skills,
                   const SkillCompatibilityIndex* index, GreedyParams params);

  /// Runs Algorithm 2 on `task`. `rng` drives seed sampling and the RANDOM
  /// user policy (must be non-null when either is in play).
  TeamResult Form(const Task& task, Rng* rng);

  /// Like Form but returns up to `k` *distinct* candidate teams (one per
  /// successful seed), sorted by the configured cost objective ascending —
  /// top-k team enumeration in the spirit of Kargar & An (CIKM'11).
  ///
  /// Ties break differently from Form: equal objectives go to the smaller
  /// team, then to the lexicographically smaller member ids, where Form
  /// keeps the first such team in seed order. So FormTopK(task, 1) may
  /// return a different team of the same objective than Form, which is
  /// the answer every engine (view, oracle, sharded) reproduces.
  std::vector<TeamResult> FormTopK(const Task& task, uint32_t k, Rng* rng);

  /// Forms a team for `task` evaluating against a caller-supplied view
  /// whose task skills are a superset of `task`'s (and that was built over
  /// this former's oracle and skills). The serving layer's batching
  /// scheduler builds one view for a group of requests with overlapping
  /// skill footprints and runs every member task against it; because the
  /// greedy loop only ever consults the view through the member task's own
  /// holder masks and pair rows — whose bits are global-graph properties,
  /// ordered by global id in every universe — the result is bit-identical
  /// to Form() on the same task for every policy and relation, including
  /// the rng stream consumed. The view's extra candidates are never
  /// touched.
  TeamResult FormWithView(const TaskCompatView& view, const Task& task,
                          Rng* rng);

  const GreedyParams& params() const { return params_; }

 private:
  /// Seed loop shared by Form/FormTopK/FormWithView. When `shared_view`
  /// is non-null it is used as-is (no build, no prefetch); its task must
  /// cover `task`'s skills.
  std::pair<uint32_t, uint32_t> EnumerateCandidates(
      const Task& task, Rng* rng, const TaskCompatView* shared_view,
      std::vector<TeamResult>* sink);

  /// Common body of Form and FormWithView.
  TeamResult FormImpl(const Task& task, Rng* rng,
                      const TaskCompatView* shared_view);

  CompatibilityOracle* oracle_;
  const SkillAssignment& skills_;
  const SkillCompatibilityIndex* index_;
  GreedyParams params_;
};

/// MAX bound of Figure 2(a): true iff every pair of task skills is
/// compatible per the index — a necessary condition for any compatible
/// team (based on skills, not users; a rough upper bound). Exact only when
/// the index was built from all sources.
bool TaskSkillsCompatible(const SkillCompatibilityIndex& index,
                          const Task& task);

/// Exact MAX bound: for every pair of task skills checks directly whether
/// some compatible holder pair exists (including one user holding both).
/// Streams cached oracle rows with early exit, so solvable tasks are cheap.
bool TaskSkillsCompatibleExact(CompatibilityOracle* oracle,
                               const SkillAssignment& skills,
                               const Task& task);

/// Dense-view variant of the exact MAX bound for view.task(): the holder
/// streams become word-AND intersections of holder masks against raw-row
/// bits. Bit-identical verdict to the oracle overload.
bool TaskSkillsCompatibleExact(const TaskCompatView& view);

}  // namespace tfsn
