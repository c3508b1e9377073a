// Reproduces Table 2: comparison of compatibility relations — percentage of
// compatible user pairs, percentage of compatible skill pairs, and average
// distance between compatible users, for SPA / SPM / SPO / SBPH / SBP / NNE
// on each dataset. SBP (exact) runs on Slashdot-scale graphs, as in the
// paper; on large graphs pair statistics are estimated from sampled sources
// (--sources, --sbp_sources to tune; --sources=0 for exact).
//
// --threads=N computes rows on N workers sharing one row cache (0 =
// hardware concurrency / TFSN_THREADS); --threads=1,2,4 additionally
// sweeps the listed counts and prints per-count wall clock plus speedup
// over the first entry. --cache-mb (or --cache_mb) bounds the shared row
// cache.
//
// Paper reference (Slashdot): comp.users 44.72 / 55.72 / 72.45 / 97.85 /
// 99.38 / 99.64; avg distance 4.13 / 4.37 / 4.57 / 4.95 / 4.97 / 4.53.
// Expected shape: monotone growth along the relaxation chain, SBP ≈ NNE,
// distance grows with relaxation except NNE dips, SBP-SBPH gap small.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "src/exp/experiments.h"
#include "src/util/table.h"
#include "src/util/timer.h"

int main(int argc, char** argv) {
  tfsn::Flags flags(argc, argv);
  auto datasets = tfsn::bench::LoadDatasets(
      flags, /*default_scale=*/1.0, "slashdot,epinions,wikipedia");

  tfsn::Table2Options options;
  options.sample_sources =
      static_cast<uint32_t>(flags.GetInt("sources", 300));
  options.sbp_sample_sources =
      static_cast<uint32_t>(flags.GetInt("sbp_sources", 40));
  options.seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
  // Accept both spellings so the bench and tfsn_cli share one knob name.
  options.cache_bytes =
      static_cast<size_t>(flags.Has("cache-mb") ? flags.GetInt("cache-mb", 256)
                                                : flags.GetInt("cache_mb", 256))
      << 20;
  if (flags.Has("include_sbp")) {
    options.include_sbp = flags.GetBool("include_sbp");
  }
  options.oracle.sbp.max_depth =
      static_cast<uint32_t>(flags.GetInt("sbp_depth", 14));
  options.oracle.sbp.expansion_budget =
      static_cast<uint64_t>(flags.GetInt("sbp_budget", 200000));

  std::vector<uint32_t> thread_counts = tfsn::bench::ThreadSweepOf(flags);
  options.threads = thread_counts[0];

  tfsn::bench::PrintHeader("Table 2: Comparison of compatibility relations");
  for (const tfsn::Dataset& ds : datasets) {
    std::printf("\n--- %s (%u users, %llu edges) ---\n", ds.name.c_str(),
                ds.graph.num_nodes(),
                static_cast<unsigned long long>(ds.graph.num_edges()));
    tfsn::Timer run_timer;
    auto cells = tfsn::RunTable2(ds, options);
    double baseline_seconds = run_timer.Seconds();
    tfsn::TextTable table(
        {"metric", "SPA", "SPM", "SPO", "SBPH", "SBP", "NNE"});
    auto find = [&cells](tfsn::CompatKind kind) -> const tfsn::Table2Cell* {
      for (const auto& c : cells) {
        if (c.kind == kind) return &c;
      }
      return nullptr;
    };
    auto row_of = [&](const char* label, auto getter) {
      std::vector<std::string> row{label};
      for (tfsn::CompatKind kind :
           {tfsn::CompatKind::kSPA, tfsn::CompatKind::kSPM,
            tfsn::CompatKind::kSPO, tfsn::CompatKind::kSBPH,
            tfsn::CompatKind::kSBP, tfsn::CompatKind::kNNE}) {
        const tfsn::Table2Cell* cell = find(kind);
        row.push_back(cell ? tfsn::TextTable::Fmt(getter(*cell)) : "-");
      }
      return row;
    };
    table.AddRow(row_of("comp. users %",
                        [](const tfsn::Table2Cell& c) { return c.comp_users_pct; }));
    table.AddRow(row_of("comp. skills %", [](const tfsn::Table2Cell& c) {
      return c.comp_skills_pct;
    }));
    table.AddRow(row_of("avg distance",
                        [](const tfsn::Table2Cell& c) { return c.avg_distance; }));
    std::fputs(table.ToString().c_str(), stdout);
    if (flags.GetBool("csv")) std::fputs(table.ToCsv().c_str(), stdout);
    for (const auto& c : cells) {
      std::printf("  %-4s: %u sources", tfsn::CompatKindName(c.kind),
                  c.sources_used);
      std::fprintf(stderr, "  %-4s: %.2fs\n", tfsn::CompatKindName(c.kind),
                   c.seconds);
      if (c.rows_saturated > 0) {
        std::printf("  [%llu saturated rows]",
                    static_cast<unsigned long long>(c.rows_saturated));
      }
      std::printf("\n");
    }
    // SBP vs SBPH gap (the paper reports ~2.5% on Slashdot).
    const tfsn::Table2Cell* sbp = find(tfsn::CompatKind::kSBP);
    const tfsn::Table2Cell* sbph = find(tfsn::CompatKind::kSBPH);
    if (sbp != nullptr && sbph != nullptr) {
      std::printf("  SBP vs SBPH compatible-pair gap: %.2f%% (paper: ~2.5%%)\n",
                  sbp->comp_users_pct - sbph->comp_users_pct);
    }
    if (thread_counts.size() > 1) {
      std::fprintf(stderr, "  thread sweep (speedup vs --threads=%u):\n",
                   thread_counts[0]);
      std::fprintf(stderr, "    threads=%-3u %6.2fs   1.00x\n",
                   thread_counts[0], baseline_seconds);
      for (size_t i = 1; i < thread_counts.size(); ++i) {
        tfsn::Table2Options sweep_options = options;
        sweep_options.threads = thread_counts[i];
        tfsn::Timer sweep_timer;
        tfsn::RunTable2(ds, sweep_options);
        double seconds = sweep_timer.Seconds();
        std::fprintf(stderr, "    threads=%-3u %6.2fs   %.2fx\n",
                     thread_counts[i], seconds,
                     seconds > 0 ? baseline_seconds / seconds : 0.0);
      }
    }
  }
  return 0;
}
