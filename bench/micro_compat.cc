// Batch-vs-scalar row construction:
//
//   micro_compat [--quick] [--sources=N]
//
// measures the bit-parallel 64-source engine (ms_signed_bfs.h) against the
// scalar per-row kernels for SPA/SPO on preferential-attachment graphs,
// printing rows/sec and the batch speedup. Single-threaded by
// construction: the speedup is pure bit-parallelism, not thread
// parallelism. --quick trims the sweep to n = 1k and 10k for CI smoke
// runs; --sources (default 128) sets the rows computed per cell.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <vector>

#include "src/compat/ms_signed_bfs.h"
#include "src/compat/row_kernels.h"
#include "src/gen/generators.h"
#include "src/util/flags.h"
#include "src/util/rng.h"
#include "src/util/timer.h"

namespace tfsn {
namespace {

struct BatchMeasurement {
  uint32_t sources = 0;
  double scalar_seconds = 0.0;
  double batch_seconds = 0.0;

  double scalar_rows_per_sec() const {
    return scalar_seconds > 0 ? sources / scalar_seconds : 0.0;
  }
  double batch_rows_per_sec() const {
    return batch_seconds > 0 ? sources / batch_seconds : 0.0;
  }
  double speedup() const {
    return batch_seconds > 0 ? scalar_seconds / batch_seconds : 0.0;
  }
};

BatchMeasurement MeasureBatchVsScalar(const SignedGraph& g, CompatKind kind,
                                      uint32_t num_sources) {
  Rng rng(19 + static_cast<uint64_t>(kind));
  std::vector<NodeId> sources =
      rng.SampleWithoutReplacement(g.num_nodes(),
                                   std::min(num_sources, g.num_nodes()));
  BatchMeasurement m;
  m.sources = static_cast<uint32_t>(sources.size());

  const RowKernelParams params;
  Timer scalar_timer;
  for (NodeId q : sources) {
    CompatRow row = ComputeCompatRow(g, kind, params, q);
    // Keeps the optimizer from discarding the row.
    if (row.comp.empty()) std::abort();
  }
  m.scalar_seconds = scalar_timer.Seconds();

  Timer batch_timer;
  for (size_t off = 0; off < sources.size(); off += kMsBfsBatchSize) {
    const size_t len = std::min(kMsBfsBatchSize, sources.size() - off);
    auto rows = ComputeCompatRowBlock(
        g, kind, std::span<const NodeId>(sources.data() + off, len));
    if (rows.size() != len) std::abort();
  }
  m.batch_seconds = batch_timer.Seconds();
  return m;
}

void RunBatchSweep(bool quick, uint32_t num_sources) {
  const std::vector<uint32_t> sizes =
      quick ? std::vector<uint32_t>{1000, 10000}
            : std::vector<uint32_t>{1000, 10000, 30000};
  std::printf(
      "batch vs scalar row construction (single thread, %u sources)\n"
      "%8s %9s %5s %14s %14s %9s\n",
      num_sources, "n", "edges", "kind", "scalar rows/s", "batch rows/s",
      "speedup");
  for (uint32_t n : sizes) {
    Rng rng(42 + n);
    const SignedGraph g = RandomPreferentialAttachment(
        n, static_cast<uint64_t>(n) * 7, 0.2, &rng);
    for (CompatKind kind : {CompatKind::kSPA, CompatKind::kSPO}) {
      const BatchMeasurement m = MeasureBatchVsScalar(g, kind, num_sources);
      std::printf("%8u %9llu %5s %14.1f %14.1f %8.2fx\n", g.num_nodes(),
                  static_cast<unsigned long long>(g.num_edges()),
                  CompatKindName(kind), m.scalar_rows_per_sec(),
                  m.batch_rows_per_sec(), m.speedup());
    }
  }
}

}  // namespace
}  // namespace tfsn

int main(int argc, char** argv) {
  tfsn::Flags flags(argc, argv);
  tfsn::RunBatchSweep(flags.GetBool("quick"),
                      static_cast<uint32_t>(flags.GetInt("sources", 128)));
  return 0;
}
