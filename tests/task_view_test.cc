// Tests for the task-local dense compatibility view (task_view.h) and the
// greedy former's view fast path: the view must reproduce the oracle's
// pair semantics bit for bit, Form/FormTopK must return identical results
// on the view and oracle paths for every policy combination, the
// cache-only view must match the full view whenever the rows it read were
// cached, and the parallel seed loop must be deterministic across thread
// counts.

#include "src/team/task_view.h"

#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/compat/skill_index.h"
#include "src/compat/threshold.h"
#include "src/gen/generators.h"
#include "src/graph/graph_builder.h"
#include "src/skills/skill_generator.h"
#include "src/team/cost.h"
#include "src/team/greedy.h"
#include "src/util/rng.h"

namespace tfsn {
namespace {

struct Instance {
  SignedGraph graph;
  SkillAssignment skills;
};

Instance MakeInstance(uint32_t n, uint64_t edges, double neg_fraction,
                      uint32_t num_skills, uint64_t seed) {
  Rng rng(seed);
  Instance inst{RandomConnectedGnm(n, edges, neg_fraction, &rng), {}};
  ZipfSkillParams sp;
  sp.num_skills = num_skills;
  inst.skills = ZipfSkills(n, sp, &rng);
  return inst;
}

void ExpectSameResult(const TeamResult& a, const TeamResult& b,
                      const std::string& what) {
  EXPECT_EQ(a.found, b.found) << what;
  EXPECT_EQ(a.members, b.members) << what;
  EXPECT_EQ(a.cost, b.cost) << what;
  EXPECT_EQ(a.objective, b.objective) << what;
  EXPECT_EQ(a.seeds_tried, b.seeds_tried) << what;
  EXPECT_EQ(a.seeds_succeeded, b.seeds_succeeded) << what;
}

TEST(TaskViewTest, MatchesOraclePairSemanticsForAllKinds) {
  Instance inst = MakeInstance(40, 100, 0.25, 10, 21);
  Rng task_rng(5);
  for (CompatKind kind : AllCompatKinds()) {
    auto oracle = MakeOracle(inst.graph, kind);
    Task task = RandomTask(inst.skills, 4, &task_rng);
    auto view = TaskCompatView::Build(oracle.get(), inst.skills, task);
    ASSERT_NE(view, nullptr) << CompatKindName(kind);
    EXPECT_EQ(view->kind(), kind);
    const uint32_t m = view->size();
    ASSERT_GT(m, 0u);
    for (uint32_t a = 0; a < m; ++a) {
      const NodeId ga = view->GlobalOf(a);
      EXPECT_EQ(view->LocalOf(ga), a);
      const auto& row = oracle->GetRow(ga);
      for (uint32_t b = 0; b < m; ++b) {
        const NodeId gb = view->GlobalOf(b);
        EXPECT_EQ(view->PairCompatible(a, b), oracle->Compatible(ga, gb))
            << CompatKindName(kind) << " pair (" << ga << "," << gb << ")";
        EXPECT_EQ(view->PairDistance(a, b), oracle->Distance(ga, gb))
            << CompatKindName(kind) << " pair (" << ga << "," << gb << ")";
        // Directional raw-row bits mirror GetRow exactly.
        EXPECT_EQ(TestBit(view->DirRow(a), b), row.comp[gb] != 0);
      }
    }
  }
}

TEST(TaskViewTest, HolderMasksMatchAssignment) {
  Instance inst = MakeInstance(50, 130, 0.2, 8, 33);
  auto oracle = MakeOracle(inst.graph, CompatKind::kNNE);
  Rng task_rng(7);
  Task task = RandomTask(inst.skills, 5, &task_rng);
  auto view = TaskCompatView::Build(oracle.get(), inst.skills, task);
  ASSERT_NE(view, nullptr);
  auto task_skills = task.skills();
  for (size_t p = 0; p < task_skills.size(); ++p) {
    EXPECT_EQ(view->TaskSkillPos(task_skills[p]), p);
    auto holders = inst.skills.Holders(task_skills[p]);
    EXPECT_EQ(view->HolderCount(p), holders.size());
    std::vector<uint32_t> locals;
    AppendSetBits(view->HolderMask(p), &locals);
    ASSERT_EQ(locals.size(), holders.size());
    for (size_t i = 0; i < holders.size(); ++i) {
      EXPECT_EQ(view->GlobalOf(locals[i]), holders[i]);
    }
  }
  // The universe is exactly the union of the holder lists, sorted.
  std::vector<NodeId> expect;
  for (SkillId s : task_skills) {
    auto hs = inst.skills.Holders(s);
    expect.insert(expect.end(), hs.begin(), hs.end());
  }
  std::sort(expect.begin(), expect.end());
  expect.erase(std::unique(expect.begin(), expect.end()), expect.end());
  EXPECT_EQ(std::vector<NodeId>(view->universe().begin(),
                                view->universe().end()),
            expect);
}

TEST(TaskViewTest, ThresholdOracleCustomKernelSupported) {
  Instance inst = MakeInstance(36, 90, 0.3, 8, 43);
  auto oracle = MakeThresholdOracle(inst.graph, 0.75);
  Rng task_rng(9);
  Task task = RandomTask(inst.skills, 4, &task_rng);
  auto view = TaskCompatView::Build(oracle.get(), inst.skills, task);
  ASSERT_NE(view, nullptr);
  for (uint32_t a = 0; a < view->size(); ++a) {
    for (uint32_t b = 0; b < view->size(); ++b) {
      EXPECT_EQ(view->PairCompatible(a, b),
                oracle->Compatible(view->GlobalOf(a), view->GlobalOf(b)));
      EXPECT_EQ(view->PairDistance(a, b),
                oracle->Distance(view->GlobalOf(a), view->GlobalOf(b)));
    }
  }
}

TEST(TaskViewTest, UnreachablePairsWidenToOracleSentinel) {
  // Two positive components with no connecting edge: cross-component NNE
  // pairs are compatible but at infinite distance.
  SignedGraphBuilder b(4);
  b.AddEdge(0, 1, Sign::kPositive).CheckOK();
  b.AddEdge(2, 3, Sign::kPositive).CheckOK();
  SignedGraph g = std::move(b.Build()).ValueOrDie();
  auto sa = std::move(SkillAssignment::Create({{0}, {0}, {1}, {1}}, 2))
                .ValueOrDie();
  auto oracle = MakeOracle(g, CompatKind::kNNE);
  auto view = TaskCompatView::Build(oracle.get(), sa, Task({0, 1}));
  ASSERT_NE(view, nullptr);
  const uint32_t l0 = view->LocalOf(0), l2 = view->LocalOf(2);
  EXPECT_TRUE(view->PairCompatible(l0, l2));
  EXPECT_EQ(view->PairDistance(l0, l2), kUnreachable);
  std::vector<uint32_t> team{l0, l2};
  EXPECT_EQ(TeamDiameter(*view, team), kUnreachable);
  std::vector<NodeId> global_team{0, 2};
  EXPECT_EQ(TeamDiameter(oracle.get(), global_team), kUnreachable);
}

TEST(TaskViewTest, CostOverloadsMatchOracle) {
  Instance inst = MakeInstance(45, 120, 0.25, 8, 55);
  Rng rng(11);
  for (CompatKind kind :
       {CompatKind::kSPM, CompatKind::kSBPH, CompatKind::kNNE}) {
    auto oracle = MakeOracle(inst.graph, kind);
    Task task = RandomTask(inst.skills, 5, &rng);
    auto view = TaskCompatView::Build(oracle.get(), inst.skills, task);
    ASSERT_NE(view, nullptr);
    for (int trial = 0; trial < 10; ++trial) {
      // Random teams drawn from the universe.
      std::vector<uint32_t> locals;
      std::vector<NodeId> globals;
      const uint32_t team_size =
          2 + static_cast<uint32_t>(rng.NextBounded(4));
      for (uint32_t i = 0; i < team_size; ++i) {
        const uint32_t l =
            static_cast<uint32_t>(rng.NextBounded(view->size()));
        locals.push_back(l);
        globals.push_back(view->GlobalOf(l));
      }
      EXPECT_EQ(TeamDiameter(*view, locals),
                TeamDiameter(oracle.get(), globals));
      EXPECT_EQ(TeamCompatible(*view, locals),
                TeamCompatible(oracle.get(), globals));
      for (CostKind cost_kind : {CostKind::kDiameter, CostKind::kSumOfPairs,
                                 CostKind::kCenterStar}) {
        EXPECT_EQ(TeamCost(*view, locals, cost_kind),
                  TeamCost(oracle.get(), globals, cost_kind));
      }
    }
  }
}

TEST(TaskViewTest, ExactMaxBoundMatchesOracle) {
  Instance inst = MakeInstance(40, 95, 0.35, 10, 77);
  Rng rng(13);
  for (CompatKind kind :
       {CompatKind::kSPA, CompatKind::kSBPH, CompatKind::kNNE}) {
    auto oracle = MakeOracle(inst.graph, kind);
    for (int trial = 0; trial < 8; ++trial) {
      Task task = RandomTask(inst.skills, 4, &rng);
      auto view = TaskCompatView::Build(oracle.get(), inst.skills, task);
      ASSERT_NE(view, nullptr);
      EXPECT_EQ(TaskSkillsCompatibleExact(*view),
                TaskSkillsCompatibleExact(oracle.get(), inst.skills, task))
          << CompatKindName(kind);
    }
  }
}

TEST(TaskViewTest, BuildFallsBackOnTinyBudget) {
  Instance inst = MakeInstance(30, 70, 0.2, 6, 91);
  auto oracle = MakeOracle(inst.graph, CompatKind::kNNE);
  Rng rng(15);
  Task task = RandomTask(inst.skills, 3, &rng);
  EXPECT_EQ(TaskCompatView::Build(oracle.get(), inst.skills, task,
                                  /*threads=*/1, /*max_bytes=*/16),
            nullptr);
}

// ---------------------------------------------------------------------------
// Former equivalence: view path vs oracle path
// ---------------------------------------------------------------------------

GreedyParams PathParams(SkillPolicy sp, UserPolicy up, GreedyEvalPath path) {
  GreedyParams p;
  p.skill_policy = sp;
  p.user_policy = up;
  p.eval_path = path;
  return p;
}

TEST(GreedyViewEquivalenceTest, FormIdenticalAcrossAllPolicyCombos) {
  Instance inst = MakeInstance(42, 116, 0.25, 12, 101);
  for (CompatKind kind : AllCompatKinds()) {
    // A depth-bounded exact-SBP search and a sampled index keep this
    // combo sweep affordable (under TSan especially); both paths share
    // the oracle and the index, so equivalence is unaffected.
    OracleParams oracle_params;
    oracle_params.sbp.max_depth = 6;
    auto oracle = MakeOracle(inst.graph, kind, oracle_params);
    Rng index_rng(3);
    SkillCompatibilityIndex index(oracle.get(), inst.skills,
                                  kind == CompatKind::kSBP ? 12 : 0,
                                  &index_rng);
    for (SkillPolicy sp :
         {SkillPolicy::kRarest, SkillPolicy::kLeastCompatible}) {
      for (UserPolicy up :
           {UserPolicy::kMinDistance, UserPolicy::kMostCompatible,
            UserPolicy::kRandom}) {
        GreedyTeamFormer view_former(
            oracle.get(), inst.skills, &index, PathParams(sp, up,
                                                          GreedyEvalPath::kView));
        GreedyTeamFormer oracle_former(
            oracle.get(), inst.skills, &index,
            PathParams(sp, up, GreedyEvalPath::kOracle));
        Rng task_rng(17);
        for (int trial = 0; trial < 4; ++trial) {
          Task task = RandomTask(inst.skills, 4, &task_rng);
          Rng rng_a(1000 + trial), rng_b(1000 + trial);
          TeamResult via_view = view_former.Form(task, &rng_a);
          TeamResult via_oracle = oracle_former.Form(task, &rng_b);
          ExpectSameResult(via_view, via_oracle,
                           std::string(CompatKindName(kind)) + "/" +
                               SkillPolicyName(sp) + "/" + UserPolicyName(up));
        }
      }
    }
  }
}

TEST(GreedyViewEquivalenceTest, FormIdenticalWithSeedCapAndCostKinds) {
  Instance inst = MakeInstance(60, 170, 0.2, 8, 111);
  auto oracle = MakeOracle(inst.graph, CompatKind::kSPM);
  Rng index_rng(4);
  SkillCompatibilityIndex index(oracle.get(), inst.skills, 0, &index_rng);
  for (CostKind cost_kind : {CostKind::kDiameter, CostKind::kSumOfPairs,
                             CostKind::kCenterStar}) {
    GreedyParams base = PathParams(SkillPolicy::kLeastCompatible,
                                   UserPolicy::kMinDistance,
                                   GreedyEvalPath::kView);
    base.max_seeds = 4;
    base.cost_kind = cost_kind;
    GreedyParams oracle_params = base;
    oracle_params.eval_path = GreedyEvalPath::kOracle;
    GreedyTeamFormer view_former(oracle.get(), inst.skills, &index, base);
    GreedyTeamFormer oracle_former(oracle.get(), inst.skills, &index,
                                   oracle_params);
    Rng task_rng(19);
    for (int trial = 0; trial < 5; ++trial) {
      Task task = RandomTask(inst.skills, 5, &task_rng);
      Rng rng_a(2000 + trial), rng_b(2000 + trial);
      ExpectSameResult(view_former.Form(task, &rng_a),
                       oracle_former.Form(task, &rng_b),
                       CostKindName(cost_kind));
    }
  }
}

TEST(GreedyViewEquivalenceTest, MostCompatiblePoolThinningIdentical) {
  // A tiny pool cap forces the deterministic thinning branch on every
  // step (the default cap of 256 is never reached on test-sized graphs).
  Instance inst = MakeInstance(70, 200, 0.2, 9, 161);
  auto oracle = MakeOracle(inst.graph, CompatKind::kSPO);
  Rng index_rng(9);
  SkillCompatibilityIndex index(oracle.get(), inst.skills, 0, &index_rng);
  for (uint32_t cap : {3u, 7u, 16u}) {
    GreedyParams view_params = PathParams(
        SkillPolicy::kRarest, UserPolicy::kMostCompatible,
        GreedyEvalPath::kView);
    view_params.most_compatible_pool_cap = cap;
    GreedyParams oracle_params = view_params;
    oracle_params.eval_path = GreedyEvalPath::kOracle;
    GreedyTeamFormer view_former(oracle.get(), inst.skills, &index,
                                 view_params);
    GreedyTeamFormer oracle_former(oracle.get(), inst.skills, &index,
                                   oracle_params);
    Rng task_rng(41);
    for (int trial = 0; trial < 5; ++trial) {
      Task task = RandomTask(inst.skills, 5, &task_rng);
      Rng rng_a(6000 + trial), rng_b(6000 + trial);
      ExpectSameResult(view_former.Form(task, &rng_a),
                       oracle_former.Form(task, &rng_b),
                       "pool_cap=" + std::to_string(cap));
    }
  }
}

TEST(GreedyViewEquivalenceTest, FormTopKIdentical) {
  Instance inst = MakeInstance(55, 150, 0.25, 10, 121);
  for (CompatKind kind : {CompatKind::kSPO, CompatKind::kSBPH}) {
    auto oracle = MakeOracle(inst.graph, kind);
    Rng index_rng(5);
    SkillCompatibilityIndex index(oracle.get(), inst.skills, 0, &index_rng);
    GreedyTeamFormer view_former(
        oracle.get(), inst.skills, &index,
        PathParams(SkillPolicy::kLeastCompatible, UserPolicy::kMinDistance,
                   GreedyEvalPath::kView));
    GreedyTeamFormer oracle_former(
        oracle.get(), inst.skills, &index,
        PathParams(SkillPolicy::kLeastCompatible, UserPolicy::kMinDistance,
                   GreedyEvalPath::kOracle));
    Rng task_rng(23);
    for (int trial = 0; trial < 4; ++trial) {
      Task task = RandomTask(inst.skills, 4, &task_rng);
      Rng rng_a(3000 + trial), rng_b(3000 + trial);
      auto via_view = view_former.FormTopK(task, 5, &rng_a);
      auto via_oracle = oracle_former.FormTopK(task, 5, &rng_b);
      ASSERT_EQ(via_view.size(), via_oracle.size()) << CompatKindName(kind);
      for (size_t i = 0; i < via_view.size(); ++i) {
        EXPECT_EQ(via_view[i].members, via_oracle[i].members);
        EXPECT_EQ(via_view[i].cost, via_oracle[i].cost);
        EXPECT_EQ(via_view[i].objective, via_oracle[i].objective);
      }
    }
  }
}

TEST(GreedyViewEquivalenceTest, DefaultFallsBackOnLargeGraphAndStaysIdentical) {
  // At 2^15 - 1 nodes finite distances may overflow the view's uint16
  // cells, so the view cannot be represented: the default path must fall
  // back to the oracle and return the reference path's results. A sparse
  // graph and a few dozen skill holders keep the rows cheap.
  constexpr uint32_t kNodes = 32767;
  Rng rng(171);
  SignedGraph graph = RandomConnectedGnm(kNodes, 40000, 0.2, &rng);
  std::vector<std::vector<SkillId>> user_skills(kNodes);
  for (NodeId u = 0; u < kNodes; u += 397) {
    const SkillId s = (u / 397) % 5;
    user_skills[u].push_back(s);
    if (u % 3 == 0) user_skills[u].push_back((s + 2) % 5);
  }
  auto skills = SkillAssignment::Create(std::move(user_skills), 5);
  ASSERT_TRUE(skills.ok());
  auto oracle = MakeOracle(graph, CompatKind::kSPM);
  const Task task({0, 1, 2});
  EXPECT_EQ(TaskCompatView::BuildFromUniverse(
                oracle.get(), *skills, task,
                HolderUniverse(*skills, task.skills())),
            nullptr);
  int found = 0;
  for (UserPolicy up : {UserPolicy::kMinDistance, UserPolicy::kMostCompatible,
                        UserPolicy::kRandom}) {
    GreedyParams by_default;  // eval_path left at its default
    by_default.skill_policy = SkillPolicy::kRarest;
    by_default.user_policy = up;
    by_default.max_seeds = 6;
    GreedyParams oracle_params = by_default;
    oracle_params.eval_path = GreedyEvalPath::kOracle;
    GreedyTeamFormer former(oracle.get(), *skills, nullptr, by_default);
    GreedyTeamFormer reference(oracle.get(), *skills, nullptr, oracle_params);
    Rng task_rng(43);
    for (int trial = 0; trial < 3; ++trial) {
      Task t = RandomTask(*skills, 3, &task_rng);
      Rng rng_a(7000 + trial), rng_b(7000 + trial);
      const TeamResult expected = reference.Form(t, &rng_b);
      ExpectSameResult(former.Form(t, &rng_a), expected,
                       std::string("large-graph fallback/") +
                           UserPolicyName(up));
      found += expected.found ? 1 : 0;
    }
  }
  EXPECT_GT(found, 0);  // the comparison covered real teams
}

// ---------------------------------------------------------------------------
// Cache-only view: the same lazy view over a peek-only row source
// ---------------------------------------------------------------------------

std::vector<NodeId> AllNodes(const SignedGraph& g) {
  std::vector<NodeId> all(g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) all[u] = u;
  return all;
}

// Computes the rows of `sources` into the oracle's cache. StreamRows pins
// nothing once it returns, so later cache reads decode afresh.
void WarmRows(CompatibilityOracle* oracle, std::span<const NodeId> sources) {
  oracle->StreamRows(sources, 1, [](size_t, const CompatRow&) {});
}

std::unique_ptr<TaskCompatView> CacheOnlyView(CompatibilityOracle* oracle,
                                              const SkillAssignment& skills,
                                              const Task& task) {
  return TaskCompatView::BuildFromCachedRows(
      oracle, skills, task, HolderUniverse(skills, task.skills()),
      TaskCompatView::kDefaultMaxBytes);
}

TEST(CacheOnlyViewTest, WarmCacheMatchesFullViewForEveryPolicyAndKind) {
  Instance inst = MakeInstance(36, 96, 0.25, 10, 181);
  std::vector<std::pair<std::string, std::unique_ptr<CompatibilityOracle>>>
      oracles;
  for (CompatKind kind : AllCompatKinds()) {
    OracleParams params;
    params.sbp.max_depth = 6;  // keeps exact SBP affordable
    oracles.emplace_back(CompatKindName(kind),
                         MakeOracle(inst.graph, kind, params));
  }
  oracles.emplace_back("threshold", MakeThresholdOracle(inst.graph, 0.75));
  for (auto& [name, oracle] : oracles) {
    WarmRows(oracle.get(), AllNodes(inst.graph));
    Rng index_rng(3);
    SkillCompatibilityIndex index(
        oracle.get(), inst.skills,
        oracle->kind() == CompatKind::kSBP ? 12 : 0, &index_rng);
    const uint64_t computed = oracle->rows_computed();
    for (SkillPolicy sp :
         {SkillPolicy::kRarest, SkillPolicy::kLeastCompatible}) {
      for (UserPolicy up :
           {UserPolicy::kMinDistance, UserPolicy::kMostCompatible,
            UserPolicy::kRandom}) {
        GreedyTeamFormer former(oracle.get(), inst.skills, &index,
                                PathParams(sp, up, GreedyEvalPath::kView));
        Rng task_rng(29);
        for (int trial = 0; trial < 3; ++trial) {
          Task task = RandomTask(inst.skills, 4, &task_rng);
          auto full = TaskCompatView::Build(oracle.get(), inst.skills, task);
          auto cached = CacheOnlyView(oracle.get(), inst.skills, task);
          ASSERT_NE(full, nullptr);
          ASSERT_NE(cached, nullptr);
          Rng rng_a(8000 + trial), rng_b(8000 + trial);
          const std::string what = name + "/" + SkillPolicyName(sp) + "/" +
                                   UserPolicyName(up);
          ExpectSameResult(former.FormWithView(*cached, task, &rng_a),
                           former.FormWithView(*full, task, &rng_b), what);
          EXPECT_FALSE(cached->missed_rows()) << what;
        }
      }
    }
    EXPECT_EQ(oracle->rows_computed(), computed) << name;
  }
}

TEST(CacheOnlyViewTest, ColdCacheComputesNothingAndFlagsTheView) {
  Instance inst = MakeInstance(40, 100, 0.25, 10, 187);
  for (CompatKind kind : {CompatKind::kSPA, CompatKind::kSPM,
                          CompatKind::kSBPH, CompatKind::kNNE}) {
    auto oracle = MakeOracle(inst.graph, kind);
    GreedyTeamFormer former(
        oracle.get(), inst.skills, nullptr,
        PathParams(SkillPolicy::kRarest, UserPolicy::kMinDistance,
                   GreedyEvalPath::kView));
    Rng task_rng(13);
    Task task = RandomTask(inst.skills, 4, &task_rng);
    auto view = CacheOnlyView(oracle.get(), inst.skills, task);
    ASSERT_NE(view, nullptr) << CompatKindName(kind);
    Rng rng(5);
    former.FormWithView(*view, task, &rng);
    EXPECT_EQ(oracle->rows_computed(), 0u) << CompatKindName(kind);
    EXPECT_EQ(oracle->row_cache()->SnapshotCounters().insertions, 0u);
    EXPECT_TRUE(view->missed_rows()) << CompatKindName(kind);
  }
}

TEST(CacheOnlyViewTest, MissingRowTheSeedLoopNeverReadsKeepsTheAnswerExact) {
  // Two components, 0-1-2 and 5-6. Skill 0 is held by node 0 alone, so
  // under kRarest node 0 is the only seed; skill 1 is held by node 1 and
  // by node 5, which is compatible with nobody in the other component.
  // Node 5 is never a member or a candidate, so the seed loop never
  // reads its row: with only that row missing, the cache-only answer is
  // the exact one and the view stays unflagged.
  SignedGraphBuilder b(7);
  b.AddEdge(0, 1, Sign::kPositive).CheckOK();
  b.AddEdge(1, 2, Sign::kPositive).CheckOK();
  b.AddEdge(5, 6, Sign::kPositive).CheckOK();
  SignedGraph g = std::move(b.Build()).ValueOrDie();
  auto skills = std::move(SkillAssignment::Create(
                              {{0}, {1}, {}, {}, {}, {1}, {}}, 2))
                    .ValueOrDie();
  const Task task({0, 1});
  for (CompatKind kind : {CompatKind::kDPE, CompatKind::kSPA,
                          CompatKind::kSPM, CompatKind::kSPO,
                          CompatKind::kSBP}) {
    auto oracle = MakeOracle(g, kind);
    WarmRows(oracle.get(), std::vector<NodeId>{0, 1, 2, 3, 4, 6});
    auto reference_oracle = MakeOracle(g, kind);
    for (UserPolicy up : {UserPolicy::kMinDistance,
                          UserPolicy::kMostCompatible, UserPolicy::kRandom}) {
      const GreedyParams params =
          PathParams(SkillPolicy::kRarest, up, GreedyEvalPath::kView);
      GreedyTeamFormer former(oracle.get(), skills, nullptr, params);
      GreedyTeamFormer reference(reference_oracle.get(), skills, nullptr,
                                 params);
      auto view = CacheOnlyView(oracle.get(), skills, task);
      ASSERT_NE(view, nullptr);
      Rng rng_a(9), rng_b(9);
      const TeamResult expected = reference.Form(task, &rng_b);
      const std::string what =
          std::string(CompatKindName(kind)) + "/" + UserPolicyName(up);
      EXPECT_TRUE(expected.found) << what;
      ExpectSameResult(former.FormWithView(*view, task, &rng_a), expected,
                       what);
      EXPECT_FALSE(view->missed_rows()) << what;
    }
    EXPECT_EQ(oracle->PeekRow(5), nullptr);  // still never computed
  }
}

TEST(CacheOnlyViewTest, DecodesOnlyTheRowsTheSeedLoopTouches) {
  // A compressed cache holding every row: the cache-only view decodes a
  // row when the seed loop first touches it, not the whole universe up
  // front.
  Instance inst = MakeInstance(150, 450, 0.2, 6, 191);
  RowCacheOptions options;
  options.max_bytes = 0;
  options.compress = true;
  auto cache = std::make_shared<RowCache>(options);
  auto oracle = MakeOracle(inst.graph, CompatKind::kSPM, OracleParams{}, cache);
  WarmRows(oracle.get(), AllNodes(inst.graph));
  GreedyParams params = PathParams(SkillPolicy::kRarest,
                                   UserPolicy::kMinDistance,
                                   GreedyEvalPath::kView);
  params.max_seeds = 4;
  GreedyTeamFormer former(oracle.get(), inst.skills, nullptr, params);
  Rng task_rng(17);
  const Task task = RandomTask(inst.skills, 3, &task_rng);

  const uint64_t before = cache->SnapshotCounters().decodes;
  auto view = CacheOnlyView(oracle.get(), inst.skills, task);
  ASSERT_NE(view, nullptr);
  Rng rng_a(4);
  const TeamResult via_cache = former.FormWithView(*view, task, &rng_a);
  const uint64_t decodes = cache->SnapshotCounters().decodes - before;
  EXPECT_GT(decodes, 0u);
  EXPECT_LT(decodes, view->size());
  EXPECT_FALSE(view->missed_rows());

  Rng rng_b(4);
  ExpectSameResult(via_cache, former.Form(task, &rng_b), "compressed cache");
}

// ---------------------------------------------------------------------------
// Thread determinism of the parallel seed loop
// ---------------------------------------------------------------------------

TEST(GreedySeedThreadsTest, ResultsIdenticalAcrossThreadCounts) {
  Instance inst = MakeInstance(120, 360, 0.2, 10, 141);
  for (CompatKind kind : {CompatKind::kSPM, CompatKind::kNNE}) {
    auto oracle = MakeOracle(inst.graph, kind);
    Rng index_rng(7);
    SkillCompatibilityIndex index(oracle.get(), inst.skills, 0, &index_rng);
    for (UserPolicy up : {UserPolicy::kMinDistance, UserPolicy::kMostCompatible,
                          UserPolicy::kRandom}) {
      Rng task_rng(31);
      std::vector<Task> tasks;
      for (int t = 0; t < 3; ++t) {
        tasks.push_back(RandomTask(inst.skills, 5, &task_rng));
      }
      std::vector<TeamResult> reference;
      for (uint32_t threads : {1u, 2u, 8u}) {
        GreedyParams params = PathParams(SkillPolicy::kLeastCompatible, up,
                                         GreedyEvalPath::kView);
        params.seed_threads = threads;
        GreedyTeamFormer former(oracle.get(), inst.skills, &index, params);
        for (size_t t = 0; t < tasks.size(); ++t) {
          Rng rng(5000 + static_cast<uint64_t>(t));
          TeamResult result = former.Form(tasks[t], &rng);
          if (threads == 1) {
            reference.push_back(result);
          } else {
            ExpectSameResult(result, reference[t],
                             std::string(CompatKindName(kind)) + "/" +
                                 UserPolicyName(up) + "/threads=" +
                                 std::to_string(threads));
          }
        }
      }
    }
  }
}

TEST(GreedySeedThreadsTest, FormTopKIdenticalAcrossThreadCounts) {
  Instance inst = MakeInstance(100, 300, 0.25, 8, 151);
  auto oracle = MakeOracle(inst.graph, CompatKind::kNNE);
  Rng index_rng(8);
  SkillCompatibilityIndex index(oracle.get(), inst.skills, 0, &index_rng);
  Rng task_rng(37);
  Task task = RandomTask(inst.skills, 5, &task_rng);
  std::vector<TeamResult> reference;
  for (uint32_t threads : {1u, 2u, 8u}) {
    GreedyParams params = PathParams(SkillPolicy::kRarest,
                                     UserPolicy::kRandom, GreedyEvalPath::kView);
    params.seed_threads = threads;
    GreedyTeamFormer former(oracle.get(), inst.skills, &index, params);
    Rng rng(61);
    auto teams = former.FormTopK(task, 6, &rng);
    if (threads == 1) {
      reference = teams;
      EXPECT_FALSE(reference.empty());
    } else {
      ASSERT_EQ(teams.size(), reference.size()) << threads;
      for (size_t i = 0; i < teams.size(); ++i) {
        EXPECT_EQ(teams[i].members, reference[i].members) << threads;
        EXPECT_EQ(teams[i].objective, reference[i].objective) << threads;
      }
    }
  }
}

}  // namespace
}  // namespace tfsn
