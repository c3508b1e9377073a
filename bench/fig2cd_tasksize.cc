// Reproduces Figure 2(c) and 2(d): LCMD success rate and average team
// diameter as the task size k grows (paper: k in 2..20 on Epinions).
//
// Expected shape: solved% falls with k — steeply for strict relations,
// roughly flat for NNE and SBPH; diameter grows with k.

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

  std::vector<uint32_t> task_sizes;
  for (const std::string& k :
       tfsn::bench::SplitCsv(flags.GetString("sizes", "2,5,10,15,20"))) {
    task_sizes.push_back(static_cast<uint32_t>(std::stoul(k)));
  }

  tfsn::bench::PrintHeader("Figure 2(c)/(d): LCMD across task sizes");
  for (const tfsn::Dataset& ds : datasets) {
    std::printf("\n--- %s (%u users, %llu edges; %u tasks per size) ---\n",
                ds.name.c_str(), ds.graph.num_nodes(),
                static_cast<unsigned long long>(ds.graph.num_edges()),
                options.num_tasks);
    tfsn::Timer timer;
    auto points = tfsn::RunFig2cd(ds, task_sizes, options);

    std::vector<std::string> header{"compat"};
    for (uint32_t k : task_sizes) header.push_back("k=" + std::to_string(k));
    tfsn::TextTable solved(header);
    tfsn::TextTable diameter(header);
    for (tfsn::CompatKind kind : options.kinds) {
      std::vector<std::string> s{tfsn::CompatKindName(kind)};
      std::vector<std::string> d{tfsn::CompatKindName(kind)};
      for (uint32_t k : task_sizes) {
        for (const auto& p : points) {
          if (p.kind == kind && p.task_size == k) {
            s.push_back(tfsn::TextTable::Fmt(p.solved_pct, 0) + "%");
            d.push_back(tfsn::TextTable::Fmt(p.avg_diameter, 2));
          }
        }
      }
      solved.AddRow(s);
      diameter.AddRow(d);
    }
    std::printf("(c) solutions found vs task size\n%s",
                solved.ToString().c_str());
    std::printf("(d) average team diameter vs task size\n%s",
                diameter.ToString().c_str());
    if (flags.GetBool("csv")) {
      std::fputs(solved.ToCsv().c_str(), stdout);
      std::fputs(diameter.ToCsv().c_str(), stdout);
    }
    std::fprintf(stderr, "(%.1fs)\n", timer.Seconds());
  }
  return 0;
}
