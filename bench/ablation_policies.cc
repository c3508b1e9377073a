// Ablation studies for the design choices called out in DESIGN.md:
//   A1. skill policy (rarest vs least-compatible) x user policy grid —
//       extends the paper's "the two best algorithms select the least
//       compatible skill" claim with the full 2x3 grid;
//   A2. seed-cap sweep — how many seed users Algorithm 2 needs before
//       success saturates;
//   A3. SBPH depth cap — how path-length bounding trades compatibility
//       recall for runtime;
//   A4. greedy vs exact optimality gap on small instances.

#include <cstdio>

#include "bench_common.h"
#include "src/compat/skill_index.h"
#include "src/compat/stats.h"
#include "src/exp/experiments.h"
#include "src/gen/generators.h"
#include "src/skills/skill_generator.h"
#include "src/team/cost.h"
#include "src/team/exact.h"
#include "src/team/greedy.h"
#include "src/team/refine.h"
#include "src/util/table.h"
#include "src/util/timer.h"

namespace tfsn {
namespace {

struct Accumulator {
  uint32_t solved = 0;
  uint32_t total = 0;
  double diameter_sum = 0;
  void Record(bool found, uint32_t cost) {
    ++total;
    if (found) {
      ++solved;
      if (cost != kUnreachable) diameter_sum += cost;
    }
  }
  double pct() const { return total ? 100.0 * solved / total : 0; }
  double avg_diameter() const { return solved ? diameter_sum / solved : 0; }
};

void PolicyGrid(const Dataset& ds, CompatKind kind, uint32_t num_tasks,
                uint64_t seed) {
  std::printf("\n[A1] policy grid on %s under %s (k=5, %u tasks)\n",
              ds.name.c_str(), CompatKindName(kind), num_tasks);
  auto oracle = MakeOracle(ds.graph, kind);
  Rng index_rng(seed);
  SkillCompatibilityIndex index(oracle.get(), ds.skills, 200, &index_rng);
  Rng task_rng(seed + 1);
  auto tasks = RandomTasks(ds.skills, 5, num_tasks, &task_rng);

  TextTable table({"skill policy", "user policy", "solved %", "avg diam"});
  for (SkillPolicy sp : {SkillPolicy::kRarest, SkillPolicy::kLeastCompatible}) {
    for (UserPolicy up : {UserPolicy::kMinDistance, UserPolicy::kMostCompatible,
                          UserPolicy::kRandom}) {
      GreedyParams params;
      params.skill_policy = sp;
      params.user_policy = up;
      params.max_seeds = 10;
      GreedyTeamFormer former(oracle.get(), ds.skills, &index, params);
      Accumulator acc;
      Rng rng(seed + 2);
      for (const Task& task : tasks) {
        TeamResult r = former.Form(task, &rng);
        acc.Record(r.found, r.cost);
      }
      table.AddRow({SkillPolicyName(sp), UserPolicyName(up),
                    TextTable::Fmt(acc.pct(), 0),
                    TextTable::Fmt(acc.avg_diameter(), 2)});
    }
  }
  std::fputs(table.ToString().c_str(), stdout);
}

void SeedCapSweep(const Dataset& ds, CompatKind kind, uint32_t num_tasks,
                  uint64_t seed) {
  std::printf("\n[A2] seed-cap sweep on %s under %s (LCMD, k=5)\n",
              ds.name.c_str(), CompatKindName(kind));
  auto oracle = MakeOracle(ds.graph, kind);
  Rng index_rng(seed);
  SkillCompatibilityIndex index(oracle.get(), ds.skills, 200, &index_rng);
  Rng task_rng(seed + 1);
  auto tasks = RandomTasks(ds.skills, 5, num_tasks, &task_rng);

  TextTable table({"max seeds", "solved %", "avg diam"});
  for (uint32_t cap : {1u, 2u, 5u, 10u, 25u}) {
    GreedyParams params;
    params.skill_policy = SkillPolicy::kLeastCompatible;
    params.user_policy = UserPolicy::kMinDistance;
    params.max_seeds = cap;
    GreedyTeamFormer former(oracle.get(), ds.skills, &index, params);
    Accumulator acc;
    Rng rng(seed + 2);
    Timer timer;
    for (const Task& task : tasks) {
      TeamResult r = former.Form(task, &rng);
      acc.Record(r.found, r.cost);
    }
    table.AddRow({std::to_string(cap), TextTable::Fmt(acc.pct(), 0),
                  TextTable::Fmt(acc.avg_diameter(), 2)});
    std::fprintf(stderr, "  [A2] max seeds %u: %.2fs\n", cap,
                 timer.Seconds());
  }
  std::fputs(table.ToString().c_str(), stdout);
}

void SbphDepthSweep(const Dataset& ds, uint64_t seed) {
  std::printf("\n[A3] SBPH depth cap on %s: compatible pairs found\n",
              ds.name.c_str());
  TextTable table({"depth cap", "comp. users %", "avg distance"});
  for (uint32_t depth : {2u, 4u, 6u, 8u, 1000u}) {
    OracleParams params;
    params.sbph_max_depth = depth;
    auto oracle = MakeOracle(ds.graph, CompatKind::kSBPH, params);
    Rng rng(seed);
    Timer timer;
    CompatPairStats stats = ComputeCompatPairStats(oracle.get(), 150, &rng);
    const std::string cap =
        depth >= 1000 ? std::string("inf") : std::to_string(depth);
    table.AddRow({cap, TextTable::Fmt(stats.compatible_fraction * 100.0, 2),
                  TextTable::Fmt(stats.avg_distance, 2)});
    std::fprintf(stderr, "  [A3] depth cap %s: %.2fs\n", cap.c_str(),
                 timer.Seconds());
  }
  std::fputs(table.ToString().c_str(), stdout);
}

void RefinementAblation(const Dataset& ds, CompatKind kind,
                        uint32_t num_tasks, uint64_t seed) {
  std::printf(
      "\n[A5] team refinement on %s under %s (k=5, sum-of-pairs cost)\n",
      ds.name.c_str(), CompatKindName(kind));
  auto oracle = MakeOracle(ds.graph, kind);
  Rng index_rng(seed);
  SkillCompatibilityIndex index(oracle.get(), ds.skills, 200, &index_rng);
  Rng task_rng(seed + 1);
  auto tasks = RandomTasks(ds.skills, 5, num_tasks, &task_rng);

  TextTable table({"base algorithm", "teams", "cost before", "cost after",
                   "removals", "swaps"});
  for (UserPolicy up : {UserPolicy::kMinDistance, UserPolicy::kRandom}) {
    GreedyParams params;
    params.skill_policy = SkillPolicy::kLeastCompatible;
    params.user_policy = up;
    params.max_seeds = 10;
    params.cost_kind = CostKind::kSumOfPairs;
    GreedyTeamFormer former(oracle.get(), ds.skills, &index, params);
    RefineOptions refine;
    refine.cost_kind = CostKind::kSumOfPairs;
    Rng rng(seed + 2);
    double before = 0, after = 0;
    uint32_t solved = 0, removed = 0, swapped = 0;
    for (const Task& task : tasks) {
      TeamResult team = former.Form(task, &rng);
      if (!team.found) continue;
      ++solved;
      RefinementResult refined =
          RefineTeam(oracle.get(), ds.skills, task, team.members, refine);
      before += static_cast<double>(refined.cost_before);
      after += static_cast<double>(refined.cost_after);
      removed += refined.members_removed;
      swapped += refined.swaps_applied;
    }
    if (solved == 0) continue;
    table.AddRow({UserPolicyName(up), std::to_string(solved),
                  TextTable::Fmt(before / solved, 2),
                  TextTable::Fmt(after / solved, 2), std::to_string(removed),
                  std::to_string(swapped)});
  }
  std::fputs(table.ToString().c_str(), stdout);
}

void GreedyVsExact(uint64_t seed) {
  std::printf(
      "\n[A4] greedy vs exact optimality gap (random 40-node instances)\n");
  Rng master(seed);
  uint32_t greedy_solved = 0, exact_solved = 0, optimal_hits = 0;
  double gap_sum = 0;
  uint32_t both = 0;
  const uint32_t kTrials = 40;
  for (uint32_t t = 0; t < kTrials; ++t) {
    Rng graph_rng = master.Fork();
    SignedGraph g = RandomConnectedGnm(40, 110, 0.25, &graph_rng);
    ZipfSkillParams sp;
    sp.num_skills = 10;
    SkillAssignment sa = ZipfSkills(40, sp, &graph_rng);
    auto oracle = MakeOracle(g, CompatKind::kSPM);
    Rng rng = master.Fork();
    SkillCompatibilityIndex index(oracle.get(), sa, 0, &rng);
    GreedyParams params;
    params.skill_policy = SkillPolicy::kLeastCompatible;
    params.user_policy = UserPolicy::kMinDistance;
    GreedyTeamFormer former(oracle.get(), sa, &index, params);
    Task task = RandomTask(sa, 4, &rng);
    TeamResult greedy = former.Form(task, &rng);
    ExactResult exact = SolveExact(oracle.get(), sa, task);
    greedy_solved += greedy.found;
    exact_solved += exact.found;
    if (greedy.found && exact.found) {
      ++both;
      gap_sum += static_cast<double>(greedy.cost) -
                 static_cast<double>(exact.cost);
      optimal_hits += greedy.cost == exact.cost;
    }
  }
  std::printf("  greedy solved %u/%u, exact solved %u/%u\n", greedy_solved,
              kTrials, exact_solved, kTrials);
  if (both > 0) {
    std::printf("  greedy matches optimum %u/%u; mean diameter gap %.2f\n",
                optimal_hits, both, gap_sum / both);
  }
}

}  // namespace
}  // namespace tfsn

int main(int argc, char** argv) {
  tfsn::Flags flags(argc, argv);
  auto datasets =
      tfsn::bench::LoadDatasets(flags, /*default_scale=*/0.08, "epinions");
  uint32_t tasks = static_cast<uint32_t>(flags.GetInt("tasks", 40));
  uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 7));

  tfsn::bench::PrintHeader("Ablations");
  for (const tfsn::Dataset& ds : datasets) {
    tfsn::PolicyGrid(ds, tfsn::CompatKind::kSPM, tasks, seed);
    tfsn::SeedCapSweep(ds, tfsn::CompatKind::kSPM, tasks, seed);
    tfsn::SbphDepthSweep(ds, seed);
    tfsn::RefinementAblation(ds, tfsn::CompatKind::kSPM, tasks, seed);
  }
  tfsn::GreedyVsExact(seed);
  return 0;
}
