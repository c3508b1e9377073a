// Extension experiments beyond the paper's evaluation (its Section 7 names
// these as future work):
//   E1. edge-sign prediction from compatibility structure — leave-one-out
//       accuracy of three predictors per dataset;
//   E2. balance-based two-faction clustering — frustration/polarization of
//       each dataset;
//   E3. threshold sweep — how the fraction of compatible pairs decays as
//       the positive-path-score threshold θ tightens from SPO to SPA.

#include <cstdio>

#include "bench_common.h"
#include "src/compat/stats.h"
#include "src/compat/threshold.h"
#include "src/ext/balance_clustering.h"
#include "src/ext/sign_prediction.h"
#include "src/util/table.h"
#include "src/util/timer.h"

namespace tfsn {
namespace {

void SignPredictionExperiment(const Dataset& ds, uint32_t samples,
                              uint64_t seed) {
  std::printf("\n[E1] sign prediction on %s (%u hidden edges)\n",
              ds.name.c_str(), samples);
  TextTable table(
      {"predictor", "accuracy %", "coverage %", "evaluated", "abstained"});
  for (SignPredictor p :
       {SignPredictor::kTriadBalance, SignPredictor::kMajorityShortestPath,
        SignPredictor::kSbph}) {
    Rng rng(seed);
    SignPredictionReport report = EvaluateSignPredictor(ds.graph, p, samples,
                                                        &rng);
    double coverage =
        100.0 * report.evaluated / (report.evaluated + report.abstained);
    table.AddRow({SignPredictorName(p),
                  TextTable::Fmt(report.accuracy() * 100.0, 1),
                  TextTable::Fmt(coverage, 1),
                  std::to_string(report.evaluated),
                  std::to_string(report.abstained)});
  }
  std::fputs(table.ToString().c_str(), stdout);
  std::printf("  baseline: always-positive = %.1f%% accuracy\n",
              (1.0 - ds.graph.negative_fraction()) * 100.0);
}

void ClusteringExperiment(const Dataset& ds, uint64_t seed) {
  std::printf("\n[E2] two-faction clustering on %s\n", ds.name.c_str());
  ClusteringOptions options;
  options.seed = seed;
  Timer timer;
  FactionClustering c = ClusterFactions(ds.graph);
  std::printf(
      "  frustration %llu / %llu edges, polarization %.3f, imbalance %.2f, "
      "exact: %s\n",
      static_cast<unsigned long long>(c.frustration),
      static_cast<unsigned long long>(ds.graph.num_edges()),
      PolarizationScore(ds.graph, c), FactionImbalance(c),
      c.exact ? "yes" : "no");
  std::fprintf(stderr, "  [E2] %.2fs\n", timer.Seconds());
}

void ThresholdSweep(const Dataset& ds, uint32_t sources, uint64_t seed) {
  std::printf("\n[E3] threshold sweep on %s (θ: SPO -> SPA)\n",
              ds.name.c_str());
  TextTable table({"theta", "comp. users %", "avg distance"});
  for (double theta : {0.0, 0.25, 0.5, 0.75, 0.9, 1.0}) {
    auto oracle = MakeThresholdOracle(ds.graph, theta);
    Rng rng(seed);
    CompatPairStats stats = ComputeCompatPairStats(oracle.get(), sources, &rng);
    table.AddRow({TextTable::Fmt(theta, 2),
                  TextTable::Fmt(stats.compatible_fraction * 100.0, 2),
                  TextTable::Fmt(stats.avg_distance, 2)});
  }
  std::fputs(table.ToString().c_str(), stdout);
}

}  // namespace
}  // namespace tfsn

int main(int argc, char** argv) {
  tfsn::Flags flags(argc, argv);
  auto datasets = tfsn::bench::LoadDatasets(flags, /*default_scale=*/0.1,
                                            "slashdot,epinions");
  uint32_t samples = static_cast<uint32_t>(flags.GetInt("samples", 120));
  uint32_t sources = static_cast<uint32_t>(flags.GetInt("sources", 150));
  uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 7));

  tfsn::bench::PrintHeader("Extension experiments (paper future work)");
  for (const tfsn::Dataset& ds : datasets) {
    tfsn::SignPredictionExperiment(ds, samples, seed);
    tfsn::ClusteringExperiment(ds, seed);
    tfsn::ThresholdSweep(ds, sources, seed);
  }
  return 0;
}
