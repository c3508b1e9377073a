#include "common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string_view>
#include <thread>

#include "src/util/rng.h"

namespace perfbench {

void Outcome::Fail(const std::string& what) {
  ++failed;
  if (failures.size() < 10) failures.push_back(what);
}

uint32_t Nproc() {
  return std::max(1u, std::thread::hardware_concurrency());
}

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  uint64_t state = seed * 0x9e3779b97f4a7c15ULL + stream;
  return tfsn::SplitMix64(&state);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

size_t WindowCount(size_t n, size_t min_per_window) {
  return std::clamp<size_t>(n / std::max<size_t>(min_per_window, 1), 1,
                            kMaxWindows);
}

double WindowedQuantile(const std::vector<double>& values, double q,
                        size_t min_per_window) {
  const size_t n = values.size();
  const size_t windows = WindowCount(n, min_per_window);
  std::vector<double> per_window;
  for (size_t w = 0; w < windows; ++w) {
    per_window.push_back(
        Quantile(std::vector<double>(values.begin() + n * w / windows,
                                     values.begin() + n * (w + 1) / windows),
                 q));
  }
  return Median(per_window);
}

void SetSetupSeconds(const std::vector<double>& runs, Outcome* out) {
  std::printf("setup (first %d not counted):", kSetupWarmups);
  for (double s : runs) std::printf(" %.4f", s);
  std::printf(" s\n");
  const size_t skip = std::min<size_t>(kSetupWarmups, runs.size() - 1);
  out->Set("setup_s", Median(std::vector<double>(runs.begin() + skip,
                                                 runs.end())));
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

bool SameTeam(const tfsn::TeamResult& a, const tfsn::TeamResult& b) {
  return a.found == b.found && a.members == b.members && a.cost == b.cost &&
         a.objective == b.objective && a.seeds_tried == b.seeds_tried &&
         a.seeds_succeeded == b.seeds_succeeded;
}

void MixTeam(tfsn::Fnv1a* digest, const tfsn::TeamResult& r) {
  digest->Mix(r.found ? 1 : 0);
  digest->Mix(r.cost);
  digest->Mix(r.objective);
  digest->Mix(r.seeds_tried);
  digest->Mix(r.seeds_succeeded);
  digest->Mix(r.members.size());
  for (tfsn::NodeId m : r.members) digest->Mix(m);
}

bool SoundTeam(tfsn::CompatibilityOracle* exact,
               const tfsn::SkillAssignment& skills, const tfsn::Task& task,
               const tfsn::TeamResult& r) {
  if (!r.found) return true;  // "no team" claims nothing about pairs
  tfsn::SkillCoverage coverage(task);
  for (tfsn::NodeId m : r.members) coverage.Cover(skills.SkillsOf(m));
  if (!coverage.AllCovered()) return false;
  for (size_t i = 0; i < r.members.size(); ++i) {
    for (size_t j = i + 1; j < r.members.size(); ++j) {
      if (!exact->Compatible(r.members[i], r.members[j])) return false;
    }
  }
  return true;
}

void CorruptReference(std::vector<tfsn::TeamResult>* reference) {
  if (reference->empty()) return;
  tfsn::TeamResult& r = reference->front();
  r.found = !r.found;
  r.cost += 1;
}

std::vector<tfsn::NodeId> WorkingSet(const tfsn::SkillAssignment& skills,
                                     const std::vector<tfsn::Task>& tasks) {
  std::vector<tfsn::NodeId> rows;
  for (const tfsn::Task& task : tasks) {
    for (tfsn::SkillId s : task.skills()) {
      const auto holders = skills.Holders(s);
      rows.insert(rows.end(), holders.begin(), holders.end());
    }
  }
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  return rows;
}

std::unique_ptr<EpinionsFixture> MakeEpinionsFixture(double scale,
                                                     bool tiny) {
  auto fx = std::make_unique<EpinionsFixture>();
  tfsn::DatasetOptions options;
  options.scale = tiny ? 0.03 : scale;
  options.seed = 2020;
  fx->ds = tfsn::MakeEpinions(options);
  // The index's rows come from a private cache that is dropped once the
  // degrees are aggregated: it never shares state with the workload's.
  auto oracle = tfsn::MakeOracle(fx->ds.graph, tfsn::CompatKind::kSPM);
  tfsn::Rng rng(9);
  fx->index = std::make_unique<tfsn::SkillCompatibilityIndex>(
      oracle.get(), fx->ds.skills, tiny ? 50 : 200, &rng, Nproc());
  return fx;
}

ScratchDir::ScratchDir(const std::string& root, const std::string& name) {
  static int counter = 0;
  path_ = root + "/" + name + "-" + std::to_string(::getpid()) + "-" +
          std::to_string(counter++);
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
  std::filesystem::create_directories(path_, ec);
}

ScratchDir::~ScratchDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

void SetViewAndGreedyLayers(const Tracer& tracer, double passes,
                            uint64_t rows_computed, uint64_t seeds_tried,
                            uint64_t seeds_succeeded, uint64_t universe_rows,
                            uint64_t view_bytes, Outcome* out) {
  const std::map<std::string, double> self = tracer.SelfMs();
  auto self_ms = [&self](const char* name) {
    auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  const double builds = static_cast<double>(tracer.Count("view.build"));
  const double forms = static_cast<double>(tracer.Count("greedy.seed_loop"));

  // Row computation happens inside the row fetches: a prewarm span that
  // missed computed rows, and its time net of decoding is compute time.
  double compute_ms = 0;
  for (const Tracer::Span& s : tracer.spans()) {
    if (std::string_view(s.name) != "view.prewarm" || s.cache.misses == 0) {
      continue;
    }
    compute_ms +=
        std::chrono::duration<double, std::milli>(s.end - s.start).count() -
        static_cast<double>(s.cache.decode_ns) / 1e6;
  }
  out->Set("compat.rows_computed", static_cast<double>(rows_computed) / passes);
  out->Set("compat.compute_ms", compute_ms / passes);
  out->Set("compat.rows_per_s",
           Ratio(static_cast<double>(rows_computed), compute_ms / 1e3));

  if (builds > 0) {
    out->Set("view.builds", builds / passes);
    out->Set("view.universe_rows_mean",
             static_cast<double>(universe_rows) / builds);
    out->Set("view.prewarm_ms", self_ms("view.prewarm") / builds);
    out->Set("view.build_ms", self_ms("view.build") / builds);
    out->Set("view.bytes_mb_mean",
             static_cast<double>(view_bytes) / kMiB / builds);
  }

  out->Set("greedy.seed_loop_ms", Ratio(self_ms("greedy.seed_loop"), forms));
  out->Set("greedy.seeds_tried", static_cast<double>(seeds_tried) / passes);
  out->Set("greedy.seed_success_frac",
           Ratio(static_cast<double>(seeds_succeeded),
                 static_cast<double>(seeds_tried)));
}

void SetCacheLayer(const Tracer& tracer, double passes,
                   const tfsn::RowCache& cache, Outcome* out) {
  tfsn::RowCache::StatsSnapshot d;
  for (const Tracer::Span& s : tracer.spans()) {
    d.hits += s.cache.hits;
    d.misses += s.cache.misses;
    d.evictions += s.cache.evictions;
    d.decodes += s.cache.decodes;
    d.decode_ns += s.cache.decode_ns;
    d.spill_reads += s.cache.spill_reads;
    d.spill_writes += s.cache.spill_writes;
  }
  out->Set("cache.hit_rate", d.HitRate());
  out->Set("cache.lookups", static_cast<double>(d.lookups()) / passes);
  out->Set("cache.evictions", static_cast<double>(d.evictions) / passes);
  out->Set("cache.decodes", static_cast<double>(d.decodes) / passes);
  out->Set("cache.decode_ms",
           static_cast<double>(d.decode_ns) / 1e6 / passes);
  out->Set("cache.decode_us_per_row",
           Ratio(static_cast<double>(d.decode_ns) / 1e3,
                 static_cast<double>(d.decodes)));
  out->Set("cache.spill_reads", static_cast<double>(d.spill_reads) / passes);
  out->Set("cache.spill_writes", static_cast<double>(d.spill_writes) / passes);
  out->Set("cache.resident_mb",
           static_cast<double>(cache.stats().bytes_in_use) / kMiB);
}

}  // namespace perfbench
