// Reproduces Table 1: dataset statistics (#users, #edges, #neg edges,
// diameter, #skills) for the three synthetic dataset stand-ins.
//
// --threads=N runs the exact all-sources diameter sweep on N workers
// (0 = hardware concurrency / TFSN_THREADS); --threads=1,2,4 sweeps the
// listed counts and prints per-count wall clock plus speedup over the
// first entry, so thread scaling is directly measurable.
//
// Paper reference values:
//            Slashdot  Epinions  Wikipedia
//   #users       214    28,854      7,066
//   #edges       304   208,778    100,790
//   #neg       29.2%     16.7%      21.5%
//   diameter       9        11          7
//   #skills    1,024       523        500

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "src/exp/experiments.h"
#include "src/util/table.h"
#include "src/util/timer.h"

namespace {

// One full Table 1 pass; returns wall-clock seconds.
double RunOnce(const std::vector<tfsn::Dataset>& datasets,
               const tfsn::Flags& flags, uint32_t threads, bool print) {
  tfsn::TextTable table({"dataset", "#users", "#edges", "#neg edges",
                         "%neg", "diameter", "#skills"});
  tfsn::Timer timer;
  for (const tfsn::Dataset& ds : datasets) {
    tfsn::Table1Row row = tfsn::ComputeTable1Row(
        ds, /*exact_diameter_limit=*/2000,
        static_cast<uint64_t>(flags.GetInt("seed", 2020)), threads);
    table.AddRow({row.dataset, std::to_string(row.users),
                  std::to_string(row.edges), std::to_string(row.neg_edges),
                  tfsn::TextTable::Pct(row.neg_fraction, 1),
                  std::to_string(row.diameter) +
                      (row.diameter_exact ? "" : "~"),
                  std::to_string(row.skills)});
  }
  double seconds = timer.Seconds();
  if (print) {
    std::fputs(table.ToString().c_str(), stdout);
    if (flags.GetBool("csv")) std::fputs(table.ToCsv().c_str(), stdout);
    std::printf("(~ marks double-sweep diameter estimates)\n");
    std::fprintf(stderr, "(%.1fs total)\n", seconds);
  }
  return seconds;
}

}  // namespace

int main(int argc, char** argv) {
  tfsn::Flags flags(argc, argv);
  auto datasets = tfsn::bench::LoadDatasets(
      flags, /*default_scale=*/1.0, "slashdot,epinions,wikipedia");

  tfsn::bench::PrintHeader("Table 1: Dataset Statistics");
  std::vector<uint32_t> thread_counts = tfsn::bench::ThreadSweepOf(flags);

  double baseline = 0.0;
  for (size_t i = 0; i < thread_counts.size(); ++i) {
    double seconds = RunOnce(datasets, flags, thread_counts[i], i == 0);
    if (i == 0) {
      baseline = seconds;
      if (thread_counts.size() > 1) {
        std::fprintf(stderr, "\nthread sweep (speedup vs --threads=%u):\n",
                     thread_counts[0]);
        std::fprintf(stderr, "  threads=%-3u %6.2fs   1.00x\n",
                     thread_counts[0], seconds);
      }
    } else {
      std::fprintf(stderr, "  threads=%-3u %6.2fs   %.2fx\n",
                   thread_counts[i], seconds,
                   seconds > 0 ? baseline / seconds : 0.0);
    }
  }
  std::printf(
      "Paper: Slashdot 214/304/29.2%%/diam 9; Epinions 28854/208778/16.7%%/"
      "diam 11; Wikipedia 7066/100790/21.5%%/diam 7.\n");
  return 0;
}
