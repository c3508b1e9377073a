// Reproduces Figure 2(a) and 2(b): team-formation algorithm comparison at
// fixed task size k=5 on the Epinions-like dataset.
//   (a) percentage of tasks solved by LCMD / LCMC / RANDOM per relation,
//       plus the MAX skill-compatibility upper bound;
//   (b) average team diameter per algorithm and relation.
//
// Expected shape (paper): LCMD ≈ LCMC success, both below MAX for strict
// relations; RANDOM trails; LCMD yields the smallest diameters.

#include <cstdio>

#include "bench_common.h"
#include "src/exp/experiments.h"
#include "src/util/table.h"
#include "src/util/timer.h"

int main(int argc, char** argv) {
  tfsn::Flags flags(argc, argv);
  auto datasets =
      tfsn::bench::LoadDatasets(flags, /*default_scale=*/0.12, "epinions");

  tfsn::TeamExperimentOptions options;
  options.task_size = static_cast<uint32_t>(flags.GetInt("k", 5));
  options.num_tasks = static_cast<uint32_t>(flags.GetInt("tasks", 50));
  options.max_seeds = static_cast<uint32_t>(flags.GetInt("max_seeds", 10));
  options.index_sample_sources =
      static_cast<uint32_t>(flags.GetInt("index_sources", 200));
  options.seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
  // Row-production and seed-loop workers (results are thread-count
  // independent either way).
  options.threads = static_cast<uint32_t>(flags.GetInt("threads", 1));
  options.seed_threads =
      static_cast<uint32_t>(flags.GetInt("seed-threads", 1));

  tfsn::bench::PrintHeader(
      "Figure 2(a)/(b): team formation algorithms, k=" +
      std::to_string(options.task_size));
  for (const tfsn::Dataset& ds : datasets) {
    std::printf("\n--- %s (%u users, %llu edges; %u tasks) ---\n",
                ds.name.c_str(), ds.graph.num_nodes(),
                static_cast<unsigned long long>(ds.graph.num_edges()),
                options.num_tasks);
    tfsn::Timer timer;
    auto rows = tfsn::RunFig2ab(ds, options);

    tfsn::TextTable solved({"compat", "LCMD", "LCMC", "RANDOM", "MAX"});
    tfsn::TextTable diameter({"compat", "LCMD", "LCMC", "RANDOM"});
    for (const auto& row : rows) {
      std::vector<std::string> s{tfsn::CompatKindName(row.kind)};
      std::vector<std::string> d{tfsn::CompatKindName(row.kind)};
      for (const auto& outcome : row.outcomes) {
        s.push_back(tfsn::TextTable::Fmt(outcome.solved_pct, 0) + "%");
        d.push_back(tfsn::TextTable::Fmt(outcome.avg_diameter, 2));
      }
      s.push_back(tfsn::TextTable::Fmt(row.max_bound_pct, 0) + "%");
      solved.AddRow(s);
      diameter.AddRow(d);
    }
    std::printf("(a) solutions found\n%s", solved.ToString().c_str());
    std::printf("(b) average team diameter\n%s", diameter.ToString().c_str());
    if (flags.GetBool("csv")) {
      std::fputs(solved.ToCsv().c_str(), stdout);
      std::fputs(diameter.ToCsv().c_str(), stdout);
    }
    std::fprintf(stderr, "(%.1fs)\n", timer.Seconds());
  }
  return 0;
}
