#include "src/compat/threshold.h"

#include <algorithm>

#include "src/compat/row_kernels.h"
#include "src/compat/signed_bfs.h"
#include "src/graph/bfs.h"

namespace tfsn {

double PositivePathScore(const SignedGraph& g, NodeId u, NodeId v) {
  if (u == v) return 1.0;
  SignedBfsResult r = SignedShortestPathCount(g, u);
  if (r.dist[v] == kUnreachable) return 0.0;
  double total = static_cast<double>(r.num_pos[v]) +
                 static_cast<double>(r.num_neg[v]);
  return total == 0.0 ? 0.0 : static_cast<double>(r.num_pos[v]) / total;
}

std::unique_ptr<CompatibilityOracle> MakeThresholdOracle(const SignedGraph& g,
                                                         double theta,
                                                         OracleParams params) {
  const double clamped = std::clamp(theta, 0.0, 1.0);
  // Reported as the nearest named relation for display purposes.
  CompatKind display = clamped >= 1.0   ? CompatKind::kSPA
                       : clamped >= 0.5 ? CompatKind::kSPM
                                        : CompatKind::kSPO;
  RowKernelParams kernel_params;
  kernel_params.sbp = params.sbp;
  kernel_params.sbph_max_depth = params.sbph_max_depth;
  kernel_params.threshold_theta = clamped;
  return std::make_unique<CompatibilityOracle>(
      g, display, &ComputeThresholdRow, kernel_params, nullptr);
}

}  // namespace tfsn
