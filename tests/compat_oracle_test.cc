// Property suite over all compatibility oracles: the Section 2 axioms
// (positive-edge compatibility, negative-edge incompatibility, reflexivity,
// symmetry) and the Proposition 3.5 inclusion chain, checked on a family
// of random signed graphs.

#include "src/compat/compatibility.h"

#include <gtest/gtest.h>

#include "paper_figures.h"
#include "src/compat/stats.h"
#include "src/gen/generators.h"
#include "src/graph/bfs.h"
#include "src/util/rng.h"

namespace tfsn {
namespace {

// ---------------------------------------------------------------------------
// Axioms, parameterized over (kind, graph seed)
// ---------------------------------------------------------------------------

struct AxiomCase {
  CompatKind kind;
  uint64_t seed;
  double neg_fraction;
};

class OracleAxiomTest : public testing::TestWithParam<AxiomCase> {};

TEST_P(OracleAxiomTest, SatisfiesCompatibilityAxioms) {
  const AxiomCase& param = GetParam();
  Rng rng(param.seed);
  SignedGraph g = RandomConnectedGnm(28, 64, param.neg_fraction, &rng);
  auto oracle = MakeOracle(g, param.kind);

  // Positive edge compatibility & negative edge incompatibility.
  for (const SignedEdge& e : g.Edges()) {
    if (e.sign == Sign::kPositive) {
      EXPECT_TRUE(oracle->Compatible(e.u, e.v))
          << CompatKindName(param.kind) << ": positive edge (" << e.u << ","
          << e.v << ") must be compatible";
    } else {
      EXPECT_FALSE(oracle->Compatible(e.u, e.v))
          << CompatKindName(param.kind) << ": negative edge (" << e.u << ","
          << e.v << ") must be incompatible";
    }
  }
  // Reflexivity and symmetry.
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_TRUE(oracle->Compatible(u, u));
  }
  for (NodeId u = 0; u < g.num_nodes(); u += 2) {
    for (NodeId v = u + 1; v < g.num_nodes(); v += 3) {
      EXPECT_EQ(oracle->Compatible(u, v), oracle->Compatible(v, u))
          << CompatKindName(param.kind) << " symmetry at (" << u << "," << v
          << ")";
    }
  }
}

std::vector<AxiomCase> AxiomCases() {
  std::vector<AxiomCase> cases;
  for (CompatKind kind : AllCompatKinds()) {
    for (uint64_t seed : {11ULL, 22ULL, 33ULL}) {
      for (double neg : {0.15, 0.45}) {
        cases.push_back({kind, seed, neg});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, OracleAxiomTest, testing::ValuesIn(AxiomCases()),
    [](const testing::TestParamInfo<AxiomCase>& info) {
      return std::string(CompatKindName(info.param.kind)) + "_s" +
             std::to_string(info.param.seed) + "_n" +
             std::to_string(static_cast<int>(info.param.neg_fraction * 100));
    });

// ---------------------------------------------------------------------------
// Proposition 3.5 inclusion chain
// ---------------------------------------------------------------------------

class InclusionChainTest : public testing::TestWithParam<uint64_t> {};

TEST_P(InclusionChainTest, Proposition35Holds) {
  Rng rng(GetParam());
  SignedGraph g = RandomConnectedGnm(26, 60, 0.3, &rng);
  // DPE ⊆ SPA ⊆ SPM ⊆ SPO ⊆ SBP ⊆ NNE, plus SBPH ⊆ SBP.
  auto dpe = MakeOracle(g, CompatKind::kDPE);
  auto spa = MakeOracle(g, CompatKind::kSPA);
  auto spm = MakeOracle(g, CompatKind::kSPM);
  auto spo = MakeOracle(g, CompatKind::kSPO);
  auto sbph = MakeOracle(g, CompatKind::kSBPH);
  auto sbp = MakeOracle(g, CompatKind::kSBP);
  auto nne = MakeOracle(g, CompatKind::kNNE);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (u == v) continue;
      bool in_dpe = dpe->Compatible(u, v);
      bool in_spa = spa->Compatible(u, v);
      bool in_spm = spm->Compatible(u, v);
      bool in_spo = spo->Compatible(u, v);
      bool in_sbph = sbph->Compatible(u, v);
      bool in_sbp = sbp->Compatible(u, v);
      bool in_nne = nne->Compatible(u, v);
      EXPECT_LE(in_dpe, in_spa) << "DPE ⊆ SPA at (" << u << "," << v << ")";
      EXPECT_LE(in_spa, in_spm) << "SPA ⊆ SPM at (" << u << "," << v << ")";
      EXPECT_LE(in_spm, in_spo) << "SPM ⊆ SPO at (" << u << "," << v << ")";
      EXPECT_LE(in_spo, in_sbp) << "SPO ⊆ SBP at (" << u << "," << v << ")";
      EXPECT_LE(in_sbph, in_sbp) << "SBPH ⊆ SBP at (" << u << "," << v << ")";
      EXPECT_LE(in_sbp, in_nne) << "SBP ⊆ NNE at (" << u << "," << v << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, InclusionChainTest,
                         testing::Values(7ULL, 77ULL, 777ULL, 7777ULL));

// ---------------------------------------------------------------------------
// Targeted oracle behaviour
// ---------------------------------------------------------------------------

TEST(OracleTest, KindAndNames) {
  Rng rng(1);
  SignedGraph g = RandomConnectedGnm(10, 15, 0.2, &rng);
  for (CompatKind kind : AllCompatKinds()) {
    auto oracle = MakeOracle(g, kind);
    EXPECT_EQ(oracle->kind(), kind);
  }
  CompatKind parsed;
  EXPECT_TRUE(ParseCompatKind("spm", &parsed));
  EXPECT_EQ(parsed, CompatKind::kSPM);
  EXPECT_TRUE(ParseCompatKind("SBPH", &parsed));
  EXPECT_EQ(parsed, CompatKind::kSBPH);
  EXPECT_FALSE(ParseCompatKind("nope", &parsed));
}

TEST(OracleTest, Figure1aPerKind) {
  SignedGraph g = testgraphs::Figure1a();
  using namespace testgraphs;
  EXPECT_FALSE(MakeOracle(g, CompatKind::kDPE)->Compatible(kU, kV));
  EXPECT_FALSE(MakeOracle(g, CompatKind::kSPA)->Compatible(kU, kV));
  EXPECT_FALSE(MakeOracle(g, CompatKind::kSPM)->Compatible(kU, kV));
  EXPECT_FALSE(MakeOracle(g, CompatKind::kSPO)->Compatible(kU, kV));
  EXPECT_TRUE(MakeOracle(g, CompatKind::kSBPH)->Compatible(kU, kV));
  EXPECT_TRUE(MakeOracle(g, CompatKind::kSBP)->Compatible(kU, kV));
  EXPECT_TRUE(MakeOracle(g, CompatKind::kNNE)->Compatible(kU, kV));
}

TEST(OracleTest, Figure1bSbphRowIsDirectional) {
  // From u the heuristic misses the balanced path (the paper's point); from
  // v it happens to find one, which is why the SBPH *relation* is defined
  // as the symmetric closure of the directional search.
  SignedGraph g = testgraphs::Figure1b();
  using namespace testgraphs;
  auto sbph = MakeOracle(g, CompatKind::kSBPH);
  EXPECT_EQ(sbph->GetRow(kBU).comp[kBV], 0);
  EXPECT_NE(sbph->GetRow(kBV).comp[kBU], 0);
  EXPECT_TRUE(sbph->Compatible(kBU, kBV));
  EXPECT_TRUE(MakeOracle(g, CompatKind::kSBP)->Compatible(kBU, kBV));
}

TEST(OracleTest, TwoSidedTrapSbphStrictlyInsideSbp) {
  // With the trap on both endpoints the heuristic misses the pair from
  // either direction while exact SBP finds it: SBPH ⊊ SBP as a relation.
  SignedGraph g = testgraphs::TwoSidedPrefixTrap();
  using namespace testgraphs;
  auto sbph = MakeOracle(g, CompatKind::kSBPH);
  EXPECT_EQ(sbph->GetRow(kGU).comp[kGV], 0);
  EXPECT_EQ(sbph->GetRow(kGV).comp[kGU], 0);
  EXPECT_FALSE(sbph->Compatible(kGU, kGV));
  auto sbp = MakeOracle(g, CompatKind::kSBP);
  EXPECT_TRUE(sbp->Compatible(kGU, kGV));
  // The witness is the long all-positive chord-free path of length 7.
  EXPECT_EQ(sbp->Distance(kGU, kGV), 7u);
}

TEST(OracleTest, DistanceSemantics) {
  SignedGraph g = testgraphs::Figure1a();
  using namespace testgraphs;
  // SP-style distance is the plain shortest-path length.
  EXPECT_EQ(MakeOracle(g, CompatKind::kSPO)->Distance(kU, kV), 2u);
  EXPECT_EQ(MakeOracle(g, CompatKind::kNNE)->Distance(kU, kV), 2u);
  // SBP distance is the length of the shortest balanced positive path.
  EXPECT_EQ(MakeOracle(g, CompatKind::kSBP)->Distance(kU, kV), 4u);
  EXPECT_EQ(MakeOracle(g, CompatKind::kSBPH)->Distance(kU, kV), 4u);
  // Self distance is zero everywhere.
  for (CompatKind kind : AllCompatKinds()) {
    EXPECT_EQ(MakeOracle(g, kind)->Distance(kV, kV), 0u);
  }
}

TEST(OracleTest, SbpDistanceAtLeastShortestPath) {
  Rng rng(83);
  SignedGraph g = RandomConnectedGnm(24, 55, 0.3, &rng);
  auto sbp = MakeOracle(g, CompatKind::kSBP);
  auto dist0 = BfsDistances(g, 0);
  const auto& row = sbp->GetRow(0);
  for (NodeId v = 1; v < g.num_nodes(); ++v) {
    if (row.comp[v]) {
      EXPECT_GE(row.dist[v], dist0[v]);
    }
  }
}

TEST(OracleTest, RowCacheAvoidsRecomputation) {
  Rng rng(89);
  SignedGraph g = RandomConnectedGnm(30, 60, 0.3, &rng);
  auto oracle = MakeOracle(g, CompatKind::kSPM);
  oracle->GetRow(3);
  oracle->GetRow(3);
  oracle->Compatible(3, 7);
  oracle->Distance(3, 9);
  EXPECT_EQ(oracle->rows_computed(), 1u);
  oracle->GetRow(4);
  EXPECT_EQ(oracle->rows_computed(), 2u);
}

TEST(OracleTest, RowCacheEvictsWhenFull) {
  Rng rng(97);
  SignedGraph g = RandomConnectedGnm(30, 60, 0.3, &rng);
  RowCacheOptions small;
  small.max_rows = 2;
  small.max_bytes = 0;
  small.shards = 1;
  auto oracle = MakeOracle(g, CompatKind::kSPO, OracleParams{},
                           std::make_shared<RowCache>(small));
  oracle->GetRow(0);
  oracle->GetRow(1);
  oracle->GetRow(2);  // evicts 0
  EXPECT_EQ(oracle->rows_computed(), 3u);
  oracle->GetRow(1);  // still cached
  EXPECT_EQ(oracle->rows_computed(), 3u);
  oracle->GetRow(0);  // recomputed
  EXPECT_EQ(oracle->rows_computed(), 4u);
  // Results identical after eviction round-trips.
  const auto& row = oracle->GetRow(0);
  auto fresh = MakeOracle(g, CompatKind::kSPO);
  EXPECT_EQ(row.comp, fresh->GetRow(0).comp);
  EXPECT_EQ(row.dist, fresh->GetRow(0).dist);
}

TEST(OracleTest, AllPositiveGraphEverythingCompatible) {
  Rng rng(101);
  SignedGraph g = RandomConnectedGnm(20, 50, 0.0, &rng);
  for (CompatKind kind : AllCompatKinds()) {
    if (kind == CompatKind::kDPE) continue;  // DPE needs direct edges
    auto oracle = MakeOracle(g, kind);
    for (NodeId u = 0; u < 6; ++u) {
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        EXPECT_TRUE(oracle->Compatible(u, v))
            << CompatKindName(kind) << " (" << u << "," << v << ")";
      }
    }
  }
}

TEST(CompatStatsTest, FullVsSampledConsistent) {
  Rng rng(103);
  SignedGraph g = RandomConnectedGnm(60, 150, 0.3, &rng);
  auto oracle = MakeOracle(g, CompatKind::kSPM);
  Rng stats_rng(1);
  CompatPairStats full = ComputeCompatPairStats(oracle.get(), 0, &stats_rng);
  EXPECT_EQ(full.sources_used, 60u);
  EXPECT_EQ(full.pairs_seen, 60u * 59u);
  CompatPairStats sampled =
      ComputeCompatPairStats(oracle.get(), 20, &stats_rng);
  EXPECT_EQ(sampled.sources_used, 20u);
  EXPECT_NEAR(sampled.compatible_fraction, full.compatible_fraction, 0.2);
}

TEST(CompatStatsTest, StrictnessOrderOnRandomGraph) {
  // Table 2 shape: compatible fraction grows along the relaxation chain.
  Rng rng(107);
  SignedGraph g = RandomConnectedGnm(60, 180, 0.25, &rng);
  Rng stats_rng(2);
  double spa = ComputeCompatPairStats(MakeOracle(g, CompatKind::kSPA).get(),
                                      0, &stats_rng)
                   .compatible_fraction;
  double spm = ComputeCompatPairStats(MakeOracle(g, CompatKind::kSPM).get(),
                                      0, &stats_rng)
                   .compatible_fraction;
  double spo = ComputeCompatPairStats(MakeOracle(g, CompatKind::kSPO).get(),
                                      0, &stats_rng)
                   .compatible_fraction;
  double nne = ComputeCompatPairStats(MakeOracle(g, CompatKind::kNNE).get(),
                                      0, &stats_rng)
                   .compatible_fraction;
  EXPECT_LE(spa, spm);
  EXPECT_LE(spm, spo);
  EXPECT_LE(spo, nne + 1e-12);
}

}  // namespace
}  // namespace tfsn
