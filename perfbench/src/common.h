// Shared pieces of the benchmark: command-line arguments, the per-run
// outcome, fixtures and the correctness helpers.

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/compat/compatibility.h"
#include "src/compat/skill_index.h"
#include "src/data/datasets.h"
#include "src/skills/skills.h"
#include "src/team/greedy.h"
#include "src/util/fnv1a.h"
#include "trace.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the measured window.
  double seconds = 10;
  /// true: the traced run (per-layer metrics); false: end-to-end metrics.
  bool trace = false;
  /// Tiny fixtures and streams, for the benchmark's self-test.
  bool tiny = false;
  /// Self-test only: corrupts one reference team so the correctness gate
  /// must trip.
  bool corrupt_reference = false;
  /// Directory (inside the checkout) for trace files and spill stores.
  std::string out_dir = ".bench_build";
  std::string git_sha = "unknown";
};

/// What one run measured and whether every output was correct.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;  // the first few, for the log
  /// Metric name -> value, for the metrics the workload measured; the
  /// names and units are those of BENCHMARK.json.
  std::map<std::string, double> metrics;
  /// Digest of the reference teams of the workload's input stream: equal
  /// seeds must give equal digests.
  tfsn::Fnv1a digest;

  void Fail(const std::string& what);
  void Set(const std::string& name, double value) { metrics[name] = value; }
};

/// Hardware threads (at least 1).
uint32_t Nproc();

/// Independent stream seed number `stream` derived from the run seed.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream);

/// Nearest-rank quantile of `values` (0 when empty).
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// Timed phases are cut into up to kMaxWindows consecutive windows of equal
/// count, each of at least `min_per_window` samples (so a window's p95 has
/// ten samples beyond it), and report the median over the windows: a
/// stretch of interference from other processes moves one window, not the
/// result. Window w of n samples is [n*w/k, n*(w+1)/k).
inline constexpr size_t kMaxWindows = 5;
size_t WindowCount(size_t n, size_t min_per_window);

/// Median over the windows of `values` (in time order) of each window's
/// `q` quantile.
double WindowedQuantile(const std::vector<double>& values, double q,
                        size_t min_per_window);

/// Set-up runs kSetupRuns times in a run. The first set-ups of a process
/// touch memory it has not used before and can take several times as long
/// on a VM, so the first kSetupWarmups are not counted: setup_s is the
/// median of the rest.
inline constexpr int kSetupWarmups = 2;
inline constexpr int kSetupRuns = kSetupWarmups + 5;

/// Logs the time of every set-up and sets setup_s from them.
void SetSetupSeconds(const std::vector<double>& runs, Outcome* out);

/// Seconds since `start`.
double SecondsSince(Clock::time_point start);

/// Peak resident set of this process, in MB.
double PeakRssMb();

/// Bit-identity of two teams: found, members, cost, objective and the
/// seed counters.
bool SameTeam(const tfsn::TeamResult& a, const tfsn::TeamResult& b);
void MixTeam(tfsn::Fnv1a* digest, const tfsn::TeamResult& r);

/// Soundness of a team that may differ from the exact answer: it covers
/// `task` and the exact oracle finds every member pair compatible.
bool SoundTeam(tfsn::CompatibilityOracle* exact,
               const tfsn::SkillAssignment& skills, const tfsn::Task& task,
               const tfsn::TeamResult& r);

/// Flips the reference's first team so the gate must trip (self-test).
void CorruptReference(std::vector<tfsn::TeamResult>* reference);

/// Sorted, deduplicated union of the holder universes of `tasks`: the row
/// working set of a stream.
std::vector<tfsn::NodeId> WorkingSet(const tfsn::SkillAssignment& skills,
                                     const std::vector<tfsn::Task>& tasks);

/// The Epinions fixture of the form_dense, form_sparse and serve_*
/// workloads: the synthetic Epinions graph at `scale` (0.12 is about 3.5k
/// users) with its skills, and the sampled skill-compatibility index the
/// least-compatible-first policy needs. Fixed, not seeded by the run: the
/// run seed draws the traffic. `tiny` shrinks it for the self-test.
struct EpinionsFixture {
  tfsn::Dataset ds;
  std::unique_ptr<tfsn::SkillCompatibilityIndex> index;
};
std::unique_ptr<EpinionsFixture> MakeEpinionsFixture(double scale,
                                                     bool tiny);

/// A scratch directory under the run's output directory, removed with
/// everything in it when the object goes away.
class ScratchDir {
 public:
  ScratchDir(const std::string& root, const std::string& name);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Per-layer metrics shared by every workload that forms teams through
/// GreedyTeamFormer: derived from the spans named view.prewarm, view.build
/// and greedy.seed_loop, per traced pass; the view.* metrics only when the
/// run built views of its own. `rows_computed` is the traced oracle's row
/// count over the same passes.
void SetViewAndGreedyLayers(const Tracer& tracer, double passes,
                            uint64_t rows_computed, uint64_t seeds_tried,
                            uint64_t seeds_succeeded, uint64_t universe_rows,
                            uint64_t view_bytes, Outcome* out);

/// cache.* per-layer metrics from the summed cache deltas of every span,
/// per traced pass, plus the resident size of `cache` now.
void SetCacheLayer(const Tracer& tracer, double passes,
                   const tfsn::RowCache& cache, Outcome* out);

/// Each workload: fills `out` or records failures in it.
void RunFormDense(const Args& args, Outcome* out);
void RunFormSparse(const Args& args, Outcome* out);
void RunFormSharded(const Args& args, Outcome* out);
void RunServeFlatMiss(const Args& args, Outcome* out);
void RunServeTieredHit(const Args& args, Outcome* out);

}  // namespace perfbench
