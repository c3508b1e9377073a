// Reproduces Table 3: comparison with unsigned team formation. RarestFirst
// [Lappas et al. 2009] runs on two unsigned versions of the network —
// signs ignored and negative edges deleted — and we report the percentage
// of returned teams that satisfy each compatibility relation.
//
// Paper reference (Epinions, k=5):
//                    SPA  SPM  SPO  SBP  NNE
//   Ignore sign       0%   2%   2%  26%  30%
//   Delete negative   0%   2%  18%  66%  76%
//
// Expected shape: most unsigned teams are incompatible under strict
// relations (0% for SPA); delete-negative dominates ignore-sign.

#include <cstdio>

#include "bench_common.h"
#include "src/exp/experiments.h"
#include "src/util/table.h"
#include "src/util/timer.h"

int main(int argc, char** argv) {
  tfsn::Flags flags(argc, argv);
  // The paper reports Epinions only; run a scaled version by default.
  auto datasets =
      tfsn::bench::LoadDatasets(flags, /*default_scale=*/0.15, "epinions");

  tfsn::Table3Options options;
  options.task_size = static_cast<uint32_t>(flags.GetInt("k", 5));
  options.num_tasks = static_cast<uint32_t>(flags.GetInt("tasks", 50));
  options.seed = static_cast<uint64_t>(flags.GetInt("seed", 7));

  tfsn::bench::PrintHeader("Table 3: Comparison with unsigned team formation");
  for (const tfsn::Dataset& ds : datasets) {
    std::printf("\n--- %s (%u users, %llu edges; k=%u, %u tasks) ---\n",
                ds.name.c_str(), ds.graph.num_nodes(),
                static_cast<unsigned long long>(ds.graph.num_edges()),
                options.task_size, options.num_tasks);
    tfsn::Timer timer;
    auto rows = tfsn::RunTable3(ds, options);
    std::vector<std::string> header{"network"};
    for (tfsn::CompatKind kind : options.kinds) {
      header.push_back(tfsn::CompatKindName(kind));
    }
    header.push_back("#teams");
    tfsn::TextTable table(header);
    for (const auto& row : rows) {
      std::vector<std::string> cells{row.network};
      for (const auto& [kind, pct] : row.compatible_pct) {
        cells.push_back(tfsn::TextTable::Fmt(pct, 0) + "%");
      }
      cells.push_back(std::to_string(row.teams_returned));
      table.AddRow(cells);
    }
    std::fputs(table.ToString().c_str(), stdout);
    if (flags.GetBool("csv")) std::fputs(table.ToCsv().c_str(), stdout);
    std::printf("(paper row: ignore 0/2/2/26/30, delete 0/2/18/66/76;"
                " SBPH stands in for SBP at this scale)\n");
    std::fprintf(stderr, "(%.1fs)\n", timer.Seconds());
  }
  return 0;
}
