// Tests for Algorithm 2 (greedy team formation) and its shared seed
// completion loop, the exact solver, the unsigned RarestFirst baseline,
// and the cost/validity helpers.

#include "src/team/greedy.h"

#include <gtest/gtest.h>

#include "src/compat/skill_index.h"
#include "src/gen/generators.h"
#include "src/graph/bfs.h"
#include "src/graph/graph_builder.h"
#include "src/graph/transform.h"
#include "src/skills/skill_generator.h"
#include "src/team/cost.h"
#include "src/team/exact.h"
#include "src/team/greedy_step.h"
#include "src/team/unsigned_tf.h"
#include "src/util/rng.h"

namespace tfsn {
namespace {

// A 6-node playground:
//   0 -(+)- 1 -(+)- 2 -(+)- 3,  0 -(-)- 4 -(+)- 5, 1 -(+)- 5
SignedGraph Playground() {
  SignedGraphBuilder b(6);
  b.AddEdge(0, 1, Sign::kPositive).CheckOK();
  b.AddEdge(1, 2, Sign::kPositive).CheckOK();
  b.AddEdge(2, 3, Sign::kPositive).CheckOK();
  b.AddEdge(0, 4, Sign::kNegative).CheckOK();
  b.AddEdge(4, 5, Sign::kPositive).CheckOK();
  b.AddEdge(1, 5, Sign::kPositive).CheckOK();
  return std::move(b.Build()).ValueOrDie();
}

SkillAssignment PlaygroundSkills() {
  // skills: 0:"a", 1:"b", 2:"c".
  // user0: a; user1: b; user2: a,c; user3: c; user4: b; user5: c.
  return std::move(SkillAssignment::Create(
                       {{0}, {1}, {0, 2}, {2}, {1}, {2}}, 3))
      .ValueOrDie();
}

GreedyParams LcmdParams() {
  GreedyParams p;
  p.skill_policy = SkillPolicy::kLeastCompatible;
  p.user_policy = UserPolicy::kMinDistance;
  return p;
}

TEST(CostTest, TeamDiameterAndCompatibility) {
  SignedGraph g = Playground();
  auto oracle = MakeOracle(g, CompatKind::kNNE);
  std::vector<NodeId> team{0, 1, 2};
  EXPECT_EQ(TeamDiameter(oracle.get(), team), 2u);
  EXPECT_TRUE(TeamCompatible(oracle.get(), team));
  std::vector<NodeId> foes{0, 4};
  EXPECT_FALSE(TeamCompatible(oracle.get(), foes));
  std::vector<NodeId> solo{3};
  EXPECT_EQ(TeamDiameter(oracle.get(), solo), 0u);
  EXPECT_TRUE(TeamCompatible(oracle.get(), solo));
}

TEST(CostTest, CoverageCheck) {
  SkillAssignment sa = PlaygroundSkills();
  Task task({0, 1, 2});
  std::vector<NodeId> covers{0, 1, 3};
  EXPECT_TRUE(TeamCoversTask(sa, task, covers));
  std::vector<NodeId> misses{0, 1};
  EXPECT_FALSE(TeamCoversTask(sa, task, misses));
}

TEST(GreedyTest, FindsValidTeamOnPlayground) {
  SignedGraph g = Playground();
  SkillAssignment sa = PlaygroundSkills();
  auto oracle = MakeOracle(g, CompatKind::kNNE);
  Rng rng(1);
  SkillCompatibilityIndex index(oracle.get(), sa, 0, &rng);
  GreedyTeamFormer former(oracle.get(), sa, &index, LcmdParams());
  Task task({0, 1, 2});
  TeamResult result = former.Form(task, &rng);
  ASSERT_TRUE(result.found);
  EXPECT_TRUE(TeamCoversTask(sa, task, result.members));
  EXPECT_TRUE(TeamCompatible(oracle.get(), result.members));
  EXPECT_EQ(result.cost, TeamDiameter(oracle.get(), result.members));
}

TEST(GreedyTest, SingleUserCoversAll) {
  SignedGraph g = Playground();
  auto sa = std::move(SkillAssignment::Create(
                          {{0, 1, 2}, {}, {}, {}, {}, {}}, 3))
                .ValueOrDie();
  auto oracle = MakeOracle(g, CompatKind::kSPA);
  Rng rng(2);
  SkillCompatibilityIndex index(oracle.get(), sa, 0, &rng);
  GreedyTeamFormer former(oracle.get(), sa, &index, LcmdParams());
  TeamResult result = former.Form(Task({0, 1, 2}), &rng);
  ASSERT_TRUE(result.found);
  EXPECT_EQ(result.members, std::vector<NodeId>{0});
  EXPECT_EQ(result.cost, 0u);
}

TEST(GreedyTest, EmptyTaskTriviallySolved) {
  SignedGraph g = Playground();
  SkillAssignment sa = PlaygroundSkills();
  auto oracle = MakeOracle(g, CompatKind::kNNE);
  Rng rng(3);
  SkillCompatibilityIndex index(oracle.get(), sa, 0, &rng);
  GreedyTeamFormer former(oracle.get(), sa, &index, LcmdParams());
  TeamResult result = former.Form(Task(), &rng);
  EXPECT_TRUE(result.found);
  EXPECT_TRUE(result.members.empty());
}

TEST(GreedyTest, InfeasibleWhenOnlyHoldersAreFoes) {
  // skill 0 only at user 0, skill 1 only at user 4; (0,4) is a negative
  // edge, so no compatible team exists under any relation.
  SignedGraph g = Playground();
  auto sa = std::move(SkillAssignment::Create(
                          {{0}, {}, {}, {}, {1}, {}}, 2))
                .ValueOrDie();
  for (CompatKind kind : AllCompatKinds()) {
    auto oracle = MakeOracle(g, kind);
    Rng rng(4);
    SkillCompatibilityIndex index(oracle.get(), sa, 0, &rng);
    GreedyTeamFormer former(oracle.get(), sa, &index, LcmdParams());
    TeamResult result = former.Form(Task({0, 1}), &rng);
    EXPECT_FALSE(result.found) << CompatKindName(kind);
    // The exact solver agrees: this is a TFSNC "no".
    ExactResult exact = SolveExact(oracle.get(), sa, Task({0, 1}));
    EXPECT_FALSE(exact.found) << CompatKindName(kind);
  }
}

TEST(GreedyTest, AllPoliciesProduceValidTeams) {
  Rng graph_rng(5);
  SignedGraph g = RandomConnectedGnm(60, 180, 0.2, &graph_rng);
  ZipfSkillParams sp;
  sp.num_skills = 15;
  SkillAssignment sa = ZipfSkills(60, sp, &graph_rng);
  auto oracle = MakeOracle(g, CompatKind::kSPO);
  Rng rng(6);
  SkillCompatibilityIndex index(oracle.get(), sa, 0, &rng);
  for (SkillPolicy skill_policy :
       {SkillPolicy::kRarest, SkillPolicy::kLeastCompatible}) {
    for (UserPolicy user_policy :
         {UserPolicy::kMinDistance, UserPolicy::kMostCompatible,
          UserPolicy::kRandom}) {
      GreedyParams params;
      params.skill_policy = skill_policy;
      params.user_policy = user_policy;
      GreedyTeamFormer former(oracle.get(), sa, &index, params);
      for (int trial = 0; trial < 5; ++trial) {
        Task task = RandomTask(sa, 4, &rng);
        TeamResult result = former.Form(task, &rng);
        if (!result.found) continue;
        EXPECT_TRUE(TeamCoversTask(sa, task, result.members))
            << SkillPolicyName(skill_policy) << "/"
            << UserPolicyName(user_policy);
        EXPECT_TRUE(TeamCompatible(oracle.get(), result.members));
      }
    }
  }
}

TEST(GreedyTest, SeedCapRespected) {
  Rng graph_rng(7);
  SignedGraph g = RandomConnectedGnm(80, 200, 0.1, &graph_rng);
  ZipfSkillParams sp;
  sp.num_skills = 5;  // dense skills -> many holders
  sp.mean_skills_per_user = 2.0;
  SkillAssignment sa = ZipfSkills(80, sp, &graph_rng);
  auto oracle = MakeOracle(g, CompatKind::kNNE);
  Rng rng(8);
  SkillCompatibilityIndex index(oracle.get(), sa, 0, &rng);
  GreedyParams params = LcmdParams();
  params.max_seeds = 3;
  GreedyTeamFormer former(oracle.get(), sa, &index, params);
  TeamResult result = former.Form(RandomTask(sa, 3, &rng), &rng);
  EXPECT_LE(result.seeds_tried, 3u);
}

TEST(GreedyTest, GreedyNeverBeatsExact) {
  // Property: on instances where both succeed, greedy cost >= exact cost;
  // and greedy success implies exact success.
  Rng master(9);
  for (int trial = 0; trial < 6; ++trial) {
    Rng graph_rng = master.Fork();
    SignedGraph g = RandomConnectedGnm(25, 60, 0.25, &graph_rng);
    ZipfSkillParams sp;
    sp.num_skills = 8;
    SkillAssignment sa = ZipfSkills(25, sp, &graph_rng);
    auto oracle = MakeOracle(g, CompatKind::kSPM);
    Rng rng = master.Fork();
    SkillCompatibilityIndex index(oracle.get(), sa, 0, &rng);
    GreedyTeamFormer former(oracle.get(), sa, &index, LcmdParams());
    Task task = RandomTask(sa, 3, &rng);
    TeamResult greedy = former.Form(task, &rng);
    ExactResult exact = SolveExact(oracle.get(), sa, task);
    if (greedy.found) {
      ASSERT_TRUE(exact.found);
      EXPECT_GE(greedy.cost, exact.cost);
    }
  }
}

TEST(ExactTest, FeasibilityOnlyStopsEarly) {
  Rng graph_rng(10);
  SignedGraph g = RandomConnectedGnm(30, 80, 0.2, &graph_rng);
  ZipfSkillParams sp;
  sp.num_skills = 6;
  SkillAssignment sa = ZipfSkills(30, sp, &graph_rng);
  auto oracle = MakeOracle(g, CompatKind::kNNE);
  Rng rng(11);
  Task task = RandomTask(sa, 3, &rng);
  ExactParams feasibility;
  feasibility.feasibility_only = true;
  ExactResult fast = SolveExact(oracle.get(), sa, task, feasibility);
  ExactResult full = SolveExact(oracle.get(), sa, task);
  EXPECT_EQ(fast.found, full.found);
  if (full.found) {
    EXPECT_LE(fast.expansions, full.expansions);
    EXPECT_GE(fast.cost, full.cost);
  }
}

TEST(ExactTest, OptimalTeamIsValid) {
  Rng graph_rng(12);
  SignedGraph g = RandomConnectedGnm(24, 60, 0.3, &graph_rng);
  ZipfSkillParams sp;
  sp.num_skills = 8;
  SkillAssignment sa = ZipfSkills(24, sp, &graph_rng);
  auto oracle = MakeOracle(g, CompatKind::kSPO);
  Rng rng(13);
  for (int trial = 0; trial < 5; ++trial) {
    Task task = RandomTask(sa, 3, &rng);
    ExactResult exact = SolveExact(oracle.get(), sa, task);
    if (!exact.found) continue;
    EXPECT_TRUE(TeamCoversTask(sa, task, exact.members));
    EXPECT_TRUE(TeamCompatible(oracle.get(), exact.members));
    EXPECT_EQ(exact.cost, TeamDiameter(oracle.get(), exact.members));
  }
}

TEST(ExactTest, BudgetExhaustionReported) {
  Rng graph_rng(14);
  SignedGraph g = RandomConnectedGnm(60, 200, 0.1, &graph_rng);
  ZipfSkillParams sp;
  sp.num_skills = 4;
  sp.mean_skills_per_user = 2.0;
  SkillAssignment sa = ZipfSkills(60, sp, &graph_rng);
  auto oracle = MakeOracle(g, CompatKind::kNNE);
  Rng rng(15);
  ExactParams params;
  params.expansion_budget = 1;  // only the root call fits
  ExactResult r = SolveExact(oracle.get(), sa, RandomTask(sa, 4, &rng), params);
  EXPECT_TRUE(r.exhausted);
}

TEST(RarestFirstTest, CoversTaskIgnoringSigns) {
  SignedGraph g = Playground();
  SkillAssignment sa = PlaygroundSkills();
  UnsignedTeamResult r = RarestFirst(IgnoreSigns(g), sa, Task({0, 1, 2}));
  ASSERT_TRUE(r.found);
  EXPECT_TRUE(TeamCoversTask(sa, Task({0, 1, 2}), r.members));
}

TEST(RarestFirstTest, MayReturnIncompatibleTeam) {
  // The Table 3 phenomenon: RarestFirst on the unsigned view can return
  // teams that violate compatibility in the signed graph.
  SignedGraphBuilder b(2);
  b.AddEdge(0, 1, Sign::kNegative).CheckOK();
  SignedGraph g = std::move(b.Build()).ValueOrDie();
  auto sa = std::move(SkillAssignment::Create({{0}, {1}}, 2)).ValueOrDie();
  UnsignedTeamResult r = RarestFirst(IgnoreSigns(g), sa, Task({0, 1}));
  ASSERT_TRUE(r.found);
  auto oracle = MakeOracle(g, CompatKind::kNNE);
  EXPECT_FALSE(TeamCompatible(oracle.get(), r.members));
}

TEST(RarestFirstTest, FailsOnDisconnectedDeleteNegative) {
  // Deleting the negative bridge makes skill 1's only holder unreachable.
  SignedGraphBuilder b(3);
  b.AddEdge(0, 1, Sign::kPositive).CheckOK();
  b.AddEdge(1, 2, Sign::kNegative).CheckOK();
  SignedGraph g = std::move(b.Build()).ValueOrDie();
  auto sa = std::move(SkillAssignment::Create({{0}, {}, {1}}, 2)).ValueOrDie();
  UnsignedTeamResult r = RarestFirst(DeleteNegativeEdges(g), sa, Task({0, 1}));
  EXPECT_FALSE(r.found);
}

TEST(RarestFirstTest, EmptyTask) {
  SignedGraph g = Playground();
  SkillAssignment sa = PlaygroundSkills();
  UnsignedTeamResult r = RarestFirst(g, sa, Task());
  EXPECT_TRUE(r.found);
  EXPECT_TRUE(r.members.empty());
}

TEST(RarestFirstTest, MissingSkillFails) {
  SignedGraph g = Playground();
  auto sa = std::move(SkillAssignment::Create(
                          {{0}, {}, {}, {}, {}, {}}, 2))
                .ValueOrDie();
  UnsignedTeamResult r = RarestFirst(g, sa, Task({0, 1}));
  EXPECT_FALSE(r.found);
}

TEST(MaxBoundTest, TaskSkillsCompatible) {
  SignedGraph g = Playground();
  SkillAssignment sa = PlaygroundSkills();
  auto oracle = MakeOracle(g, CompatKind::kNNE);
  Rng rng(16);
  SkillCompatibilityIndex index(oracle.get(), sa, 0, &rng);
  EXPECT_TRUE(TaskSkillsCompatible(index, Task({0, 1, 2})));
  // The MAX bound dominates actual solvability: whenever the greedy former
  // finds a team, the bound must hold.
  GreedyTeamFormer former(oracle.get(), sa, &index, LcmdParams());
  TeamResult result = former.Form(Task({0, 1, 2}), &rng);
  if (result.found) {
    EXPECT_TRUE(TaskSkillsCompatible(index, Task({0, 1, 2})));
  }
}

TEST(PolicyNamesTest, Stable) {
  EXPECT_STREQ(SkillPolicyName(SkillPolicy::kRarest), "Rarest");
  EXPECT_STREQ(SkillPolicyName(SkillPolicy::kLeastCompatible),
               "LeastCompatible");
  EXPECT_STREQ(UserPolicyName(UserPolicy::kMinDistance), "MinDistance");
  EXPECT_STREQ(UserPolicyName(UserPolicy::kMostCompatible), "MostCompatible");
  EXPECT_STREQ(UserPolicyName(UserPolicy::kRandom), "Random");
}

// ---------------------------------------------------------------------------
// CompleteSeeds: the one completion loop, driven by a scripted selector
// ---------------------------------------------------------------------------

// Eight users over four skills, with distinct holder counts so that the
// kRarest order is 3 (2 holders) < 2 (3) < 0 (4) < 1 (5). User 6 holds
// every skill.
SkillAssignment LoopSkills() {
  return std::move(SkillAssignment::Create({{0},
                                            {0, 1},
                                            {0},
                                            {1},
                                            {1, 2},
                                            {2, 3},
                                            {0, 1, 2, 3},
                                            {1}},
                                           4))
      .ValueOrDie();
}

// What the selector was shown for one live seed.
struct SeenStep {
  uint32_t slot;
  std::vector<uint32_t> team;
  SkillId skill;
  std::vector<SkillId> rest;
};

// Runs CompleteSeeds under kRarest over global ids, with a selector that
// records every round's steps and answers from `script` (one pick per live
// seed per round, in order).
Status RunScript(const SkillAssignment& skills, const Task& task,
                 const std::vector<uint32_t>& seeds,
                 const std::vector<std::vector<uint32_t>>& script,
                 std::vector<std::vector<SeenStep>>* rounds,
                 std::vector<std::vector<uint32_t>>* teams) {
  teams->assign(seeds.size(), {});
  return CompleteSeeds(
      skills, nullptr, SkillPolicy::kRarest, task, seeds,
      [](uint32_t v) { return v; },
      [&](std::span<const SeedStep> live, std::span<uint32_t> picks) {
        std::vector<SeenStep>& seen = rounds->emplace_back();
        for (const SeedStep& s : live) {
          seen.push_back({s.slot, {s.team.begin(), s.team.end()}, s.skill,
                          {s.rest.begin(), s.rest.end()}});
        }
        const size_t round = rounds->size() - 1;
        if (round >= script.size() || script[round].size() != live.size()) {
          return Status::Internal("script has no answer for this round");
        }
        for (size_t j = 0; j < live.size(); ++j) {
          EXPECT_EQ(picks[j], kInvalidNode) << "picks arrive unset";
          picks[j] = script[round][j];
        }
        return Status::OK();
      },
      std::span(*teams));
}

TEST(CompleteSeedsTest, CoveringSeedCompletesWithoutCallingTheSelector) {
  const SkillAssignment skills = LoopSkills();
  std::vector<std::vector<SeenStep>> rounds;
  std::vector<std::vector<uint32_t>> teams;
  const Status st =
      RunScript(skills, Task({0, 1, 2, 3}), {6}, {}, &rounds, &teams);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_TRUE(rounds.empty());
  EXPECT_EQ(teams, (std::vector<std::vector<uint32_t>>{{6}}));
}

TEST(CompleteSeedsTest, SelectorSeesLiveSeedsInSeedOrderWithSkillAndRest) {
  const SkillAssignment skills = LoopSkills();
  // Round 0: seeds 0, 1 and 3 are live (seed 6 covers the task). Round 1:
  // seed 1 has dead-ended, the others each add user 5 first.
  std::vector<std::vector<SeenStep>> rounds;
  std::vector<std::vector<uint32_t>> teams;
  const Status st = RunScript(skills, Task({0, 1, 2, 3}), {0, 1, 6, 3},
                              {{5, kInvalidNode, 5}, {7, 2}}, &rounds, &teams);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_EQ(rounds.size(), 2u);

  // Each step's skill is SelectSkillByPolicy's choice over the seed's
  // uncovered skills, and its rest is the uncovered skills without it.
  const auto expect_step = [&](const SeenStep& seen, uint32_t slot,
                               const std::vector<uint32_t>& team,
                               const std::vector<SkillId>& uncovered) {
    SCOPED_TRACE("slot " + std::to_string(slot));
    EXPECT_EQ(seen.slot, slot);
    EXPECT_EQ(seen.team, team);
    const SkillId skill =
        SelectSkillByPolicy(SkillPolicy::kRarest, skills, nullptr, uncovered);
    EXPECT_EQ(seen.skill, skill);
    std::vector<SkillId> rest;
    for (SkillId t : uncovered) {
      if (t != skill) rest.push_back(t);
    }
    EXPECT_EQ(seen.rest, rest);
  };
  ASSERT_EQ(rounds[0].size(), 3u);
  expect_step(rounds[0][0], 0, {0}, {1, 2, 3});
  expect_step(rounds[0][1], 1, {1}, {2, 3});
  expect_step(rounds[0][2], 3, {3}, {0, 2, 3});
  ASSERT_EQ(rounds[1].size(), 2u);
  expect_step(rounds[1][0], 0, {0, 5}, {1});
  expect_step(rounds[1][1], 3, {3, 5}, {0});
  // The rarest of the uncovered skills, by hand.
  EXPECT_EQ(rounds[0][0].skill, 3u);
  EXPECT_EQ(rounds[0][0].rest, (std::vector<SkillId>{1, 2}));
}

TEST(CompleteSeedsTest, DeadEndDropsOnlyThatSeed) {
  const SkillAssignment skills = LoopSkills();
  std::vector<std::vector<SeenStep>> rounds;
  std::vector<std::vector<uint32_t>> teams;
  const Status st = RunScript(skills, Task({0, 1, 2, 3}), {0, 1, 6, 3},
                              {{5, kInvalidNode, 5}, {7, 2}}, &rounds, &teams);
  ASSERT_TRUE(st.ok()) << st.ToString();
  // Slot 1 dead-ended in round 0: its slot is empty and round 1 no longer
  // shows it. The others complete, members ascending, in their own slots.
  EXPECT_EQ(teams, (std::vector<std::vector<uint32_t>>{
                       {0, 5, 7}, {}, {6}, {2, 3, 5}}));
  ASSERT_EQ(rounds.size(), 2u);
  for (const SeenStep& seen : rounds[1]) EXPECT_NE(seen.slot, 1u);
}

TEST(CompleteSeedsTest, SelectorErrorComesBackUnchanged) {
  const SkillAssignment skills = LoopSkills();
  std::vector<std::vector<uint32_t>> teams(2);
  uint32_t calls = 0;
  const Status st = CompleteSeeds(
      skills, nullptr, SkillPolicy::kRarest, Task({0, 1, 2, 3}),
      std::vector<uint32_t>{0, 3}, [](uint32_t v) { return v; },
      [&](std::span<const SeedStep> live, std::span<uint32_t> picks) {
        if (++calls == 2) {
          return Status::DeadlineExceeded("shard 2 never answered");
        }
        for (size_t j = 0; j < live.size(); ++j) picks[j] = 5;
        return Status::OK();
      },
      std::span(teams));
  EXPECT_EQ(calls, 2u);
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(st.message(), "shard 2 never answered");
}

}  // namespace
}  // namespace tfsn
