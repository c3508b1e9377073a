// The three direct-formation workloads: form_dense and form_sparse call
// GreedyTeamFormer::Form on the Epinions-scale fixture, form_sharded calls
// DistributedFormer::Form on shard_scaling's random graph.
//
// No server sits in front of these engines: one caller forms one team at
// a time and waits for it (a closed loop with one client). The serve_*
// end-to-end metrics therefore read the same per-task latencies as the
// form_* ones, and serve_slo_ok_frac is the share of tasks formed within
// the workload's fixed per-task SLO.

#include <algorithm>
#include <cstdio>

#include "common.h"
#include "src/dist/distributed_former.h"
#include "src/gen/generators.h"
#include "src/serve/workload.h"
#include "src/skills/skill_generator.h"
#include "src/team/task_view.h"
#include "src/util/rng.h"

namespace perfbench {
namespace {

using tfsn::CompatKind;
using tfsn::GreedyParams;
using tfsn::GreedyTeamFormer;
using tfsn::NodeId;
using tfsn::Rng;
using tfsn::RowCache;
using tfsn::Task;
using tfsn::TeamResult;

// Per-task SLOs behind serve_slo_ok_frac, fixed at about twice each
// workload's p99 as measured at the seed commit on a 4-vCPU x86-64 VM
// (form_dense 12.6 ms, form_sparse 3.1 ms, form_sharded 28.5 ms, seed 11):
// the share reads 1 on a quiet host and falls when the tail doubles.
constexpr double kDenseSloMs = 25.0;
constexpr double kSparseSloMs = 6.0;
constexpr double kShardedSloMs = 60.0;

// At least this many timed tasks, so p95 has ten samples beyond it.
constexpr uint64_t kMinSamples = 200;

/// A seeded task stream: task i runs with Rng(rng_seeds[i]) through the
/// former numbered policy[i].
struct TaskStream {
  std::vector<Task> tasks;
  std::vector<uint64_t> rng_seeds;
  std::vector<uint8_t> policy;

  size_t size() const { return tasks.size(); }
};

GreedyParams Lcmd(uint32_t max_seeds, uint32_t seed_threads) {
  GreedyParams p;
  p.skill_policy = tfsn::SkillPolicy::kLeastCompatible;
  p.user_policy = tfsn::UserPolicy::kMinDistance;
  p.max_seeds = max_seeds;
  p.seed_threads = seed_threads;
  return p;
}

GreedyParams Lcmc(uint32_t max_seeds, uint32_t seed_threads) {
  GreedyParams p = Lcmd(max_seeds, seed_threads);
  p.user_policy = tfsn::UserPolicy::kMostCompatible;
  return p;
}

/// form_dense's stream: 5 skills drawn from the 10 most-held skills; every
/// fourth task runs LCMC (former 1), the rest LCMD (former 0).
TaskStream DenseStream(const tfsn::SkillAssignment& skills, size_t count,
                       uint64_t seed) {
  std::vector<tfsn::SkillId> by_freq;
  for (tfsn::SkillId s = 0; s < skills.num_skills(); ++s) {
    if (skills.Frequency(s) > 0) by_freq.push_back(s);
  }
  std::stable_sort(by_freq.begin(), by_freq.end(),
                   [&skills](tfsn::SkillId a, tfsn::SkillId b) {
                     return skills.Frequency(a) > skills.Frequency(b);
                   });
  by_freq.resize(std::min<size_t>(by_freq.size(), 10));
  const uint32_t k = std::min<uint32_t>(5, by_freq.size());
  TaskStream stream;
  Rng rng(DeriveSeed(seed, 1));
  for (size_t i = 0; i < count; ++i) {
    std::vector<tfsn::SkillId> picked;
    for (uint32_t p : rng.SampleWithoutReplacement(
             static_cast<uint32_t>(by_freq.size()), k)) {
      picked.push_back(by_freq[p]);
    }
    stream.tasks.emplace_back(std::move(picked));
    stream.rng_seeds.push_back(rng.Next());
    stream.policy.push_back(i % 4 == 3 ? 1 : 0);
  }
  return stream;
}

/// form_sparse's stream: Zipf(1.0) skill popularity, 3 skills per task.
TaskStream SparseStream(const tfsn::SkillAssignment& skills, size_t count,
                        uint64_t seed) {
  tfsn::serve::ZipfTaskSampler sampler(skills, 1.0);
  TaskStream stream;
  Rng rng(DeriveSeed(seed, 1));
  for (size_t i = 0; i < count; ++i) {
    stream.tasks.push_back(sampler.Sample(3, &rng));
    stream.rng_seeds.push_back(rng.Next());
    stream.policy.push_back(0);
  }
  return stream;
}

/// form_sharded's stream: uniformly random 4-skill tasks, as in
/// shard_scaling.
TaskStream ShardedStream(const tfsn::SkillAssignment& skills, size_t count,
                         uint64_t seed) {
  TaskStream stream;
  Rng rng(DeriveSeed(seed, 1));
  for (size_t i = 0; i < count; ++i) {
    stream.tasks.push_back(tfsn::RandomTask(skills, 4, &rng));
    stream.rng_seeds.push_back(rng.Next());
    stream.policy.push_back(0);
  }
  return stream;
}

/// Closed-loop timing of `form(i, &result)` over the stream, cycled, for
/// `seconds` (and at least kMinSamples tasks); every team is checked
/// against the reference. `steps(i, result)` counts the greedy work unit
/// behind form_step_us.
/// Every timing metric is the median over the loop's windows (see
/// WindowCount).
template <typename FormFn, typename StepsFn>
void TimeClosedLoop(const Args& args, const TaskStream& stream,
                    const std::vector<TeamResult>& reference, double slo_ms,
                    FormFn&& form, StepsFn&& steps, Outcome* out) {
  std::vector<double> latency_ms;
  std::vector<double> done_s;  // end of each task, from t0
  std::vector<uint64_t> units;
  const Clock::time_point t0 = Clock::now();
  const uint64_t min_samples = args.tiny ? 20 : kMinSamples;
  for (uint64_t k = 0; SecondsSince(t0) < args.seconds || k < min_samples;
       ++k) {
    const size_t i = k % stream.size();
    TeamResult r;
    const Clock::time_point start = Clock::now();
    const bool ok = form(i, &r);
    const Clock::time_point end = Clock::now();
    latency_ms.push_back(
        std::chrono::duration<double, std::milli>(end - start).count());
    done_s.push_back(std::chrono::duration<double>(end - t0).count());
    if (!ok) {
      out->Fail("task " + std::to_string(i) + ": formation error");
    } else if (!SameTeam(r, reference[i])) {
      out->Fail("task " + std::to_string(i) + ": team differs from reference");
    }
    units.push_back(steps(i, r));
  }
  const size_t n = latency_ms.size();
  out->attempted += n;
  const size_t windows = WindowCount(n, min_samples);
  std::vector<double> rate, step_us;
  double window_start = 0;
  for (size_t w = 0; w < windows; ++w) {
    const size_t lo = n * w / windows, hi = n * (w + 1) / windows;
    const double span = done_s[hi - 1] - window_start;
    window_start = done_s[hi - 1];
    uint64_t work = 0;
    for (size_t t = lo; t < hi; ++t) work += units[t];
    rate.push_back(static_cast<double>(hi - lo) / span);
    step_us.push_back(work > 0 ? span * 1e6 / static_cast<double>(work) : 0);
  }
  const double p50 = WindowedQuantile(latency_ms, 0.50, min_samples);
  const double p95 = WindowedQuantile(latency_ms, 0.95, min_samples);
  const double within = static_cast<double>(
      std::count_if(latency_ms.begin(), latency_ms.end(),
                    [slo_ms](double ms) { return ms <= slo_ms; }));
  out->Set("form_tasks_per_s", Median(rate));
  out->Set("form_p50_ms", p50);
  out->Set("form_p95_ms", p95);
  out->Set("form_step_us", Median(step_us));
  out->Set("serve_rps", Median(rate));
  out->Set("serve_p50_ms", p50);
  out->Set("serve_p95_ms", p95);
  out->Set("serve_slo_ok_frac", within / static_cast<double>(n));
  std::printf("timed: %zu tasks in %.2f s over %zu windows: %.1f tasks/s, "
              "p50 %.3f ms, p95 %.3f ms (whole run: p99 %.3f ms)\n",
              n, done_s.back(), windows, Median(rate), p50, p95,
              Quantile(latency_ms, 0.99));
}

// ---------------------------------------------------------------------------
// form_dense and form_sparse
// ---------------------------------------------------------------------------

struct DirectConfig {
  size_t stream_size;
  size_t tiny_stream_size;
  TaskStream (*make_stream)(const tfsn::SkillAssignment&, size_t, uint64_t);
  /// Former params by policy number, before seed_threads is applied.
  std::vector<GreedyParams> params;
  double slo_ms;
  bool measure_view_over_oracle;
};

/// Everything the set-up builds: fixture, index, a flat cache warmed with
/// the stream's whole row working set, and one former per policy.
struct DirectState {
  std::unique_ptr<EpinionsFixture> fx;
  TaskStream stream;
  std::shared_ptr<RowCache> cache;
  std::unique_ptr<tfsn::CompatibilityOracle> oracle;
  std::vector<std::unique_ptr<GreedyTeamFormer>> formers;
};

std::unique_ptr<DirectState> SetUpDirect(const Args& args,
                                         const DirectConfig& config) {
  auto st = std::make_unique<DirectState>();
  st->fx = MakeEpinionsFixture(0.12, args.tiny);
  st->stream = config.make_stream(
      st->fx->ds.skills,
      args.tiny ? config.tiny_stream_size : config.stream_size, args.seed);
  tfsn::RowCacheOptions cache_options;
  cache_options.max_bytes = 0;  // holds the whole working set
  st->cache = std::make_shared<RowCache>(cache_options);
  st->oracle = tfsn::MakeOracle(st->fx->ds.graph, CompatKind::kSPM,
                                tfsn::OracleParams{}, st->cache);
  st->oracle->StreamRows(WorkingSet(st->fx->ds.skills, st->stream.tasks),
                         Nproc(), [](size_t, const tfsn::CompatRow&) {});
  for (const GreedyParams& p : config.params) {
    st->formers.push_back(std::make_unique<GreedyTeamFormer>(
        st->oracle.get(), st->fx->ds.skills, st->fx->index.get(), p));
  }
  return st;
}

/// Formers over `st`'s cache with `params` altered by `edit`, one per
/// policy, each with its own oracle.
struct FormerSet {
  std::unique_ptr<tfsn::CompatibilityOracle> oracle;
  std::vector<std::unique_ptr<GreedyTeamFormer>> formers;
};

template <typename EditFn>
FormerSet MakeFormers(const DirectState& st, const DirectConfig& config,
                      EditFn&& edit) {
  FormerSet set;
  set.oracle = tfsn::MakeOracle(st.fx->ds.graph, CompatKind::kSPM,
                                tfsn::OracleParams{}, st.cache);
  for (GreedyParams p : config.params) {
    edit(&p);
    set.formers.push_back(std::make_unique<GreedyTeamFormer>(
        set.oracle.get(), st.fx->ds.skills, st.fx->index.get(), p));
  }
  return set;
}

/// The reference pass: serial GreedyTeamFormer::Form with the workload's
/// params, on the warm cache, outside every timed window.
std::vector<TeamResult> DirectReference(const Args& args,
                                        const DirectState& st,
                                        const DirectConfig& config,
                                        Outcome* out) {
  FormerSet ref = MakeFormers(st, config,
                              [](GreedyParams* p) { p->seed_threads = 1; });
  std::vector<TeamResult> reference;
  for (size_t i = 0; i < st.stream.size(); ++i) {
    Rng rng(st.stream.rng_seeds[i]);
    reference.push_back(
        ref.formers[st.stream.policy[i]]->Form(st.stream.tasks[i], &rng));
    MixTeam(&out->digest, reference.back());
  }
  if (args.corrupt_reference) CorruptReference(&reference);
  return reference;
}

void RunDirectUntraced(const Args& args, const DirectConfig& config,
                       Outcome* out) {
  std::vector<double> setup_s;
  std::unique_ptr<DirectState> st;
  for (int rep = 0; rep < kSetupRuns; ++rep) {
    st.reset();
    const Clock::time_point t0 = Clock::now();
    st = SetUpDirect(args, config);
    setup_s.push_back(SecondsSince(t0));
  }
  SetSetupSeconds(setup_s, out);
  const std::vector<TeamResult> reference =
      DirectReference(args, *st, config, out);
  TimeClosedLoop(
      args, st->stream, reference, config.slo_ms,
      [&st](size_t i, TeamResult* r) {
        Rng rng(st->stream.rng_seeds[i]);
        *r = st->formers[st->stream.policy[i]]->Form(st->stream.tasks[i],
                                                      &rng);
        return true;
      },
      [](size_t, const TeamResult& r) { return uint64_t{r.seeds_tried}; },
      out);
}

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

void RunDirectTraced(const Args& args, const DirectConfig& config,
                     Outcome* out) {
  std::unique_ptr<DirectState> st = SetUpDirect(args, config);
  const std::vector<TeamResult> reference =
      DirectReference(args, *st, config, out);
  const tfsn::SkillAssignment& skills = st->fx->ds.skills;
  tfsn::CompatibilityOracle* oracle = st->oracle.get();
  RowCache* cache = st->cache.get();

  // 1. Stage spans over whole passes of the stream, for half the window.
  // form_dense forces the view path, so the calls Form makes on it are
  // made one by one. form_sparse leaves the path to kAuto, which sends
  // most of its tasks to the oracle path: there the one span is Form.
  const bool staged =
      config.params.front().eval_path == tfsn::GreedyEvalPath::kView;
  Tracer tracer;
  uint64_t tried = 0, succeeded = 0, universe_rows = 0, view_bytes = 0;
  const uint64_t rows_before = oracle->rows_computed();
  const Clock::time_point t0 = Clock::now();
  int passes = 0;
  do {
    for (size_t i = 0; i < st->stream.size(); ++i) {
      const Task& task = st->stream.tasks[i];
      GreedyTeamFormer& former = *st->formers[st->stream.policy[i]];
      Rng rng(st->stream.rng_seeds[i]);
      const int32_t root = tracer.Open("task", -1, i);
      std::vector<NodeId> universe;
      std::vector<std::shared_ptr<const tfsn::CompatRow>> rows;
      std::unique_ptr<tfsn::TaskCompatView> view;
      TeamResult r;
      if (staged) {
        tracer.Run("view.prewarm", root, i, cache, [&] {
          universe = tfsn::HolderUniverse(skills, task.skills());
          rows = oracle->GetRows(universe, 1);
        });
        universe_rows += universe.size();
        tracer.Run("view.build", root, i, cache, [&] {
          view = tfsn::TaskCompatView::BuildFromUniverse(oracle, skills, task,
                                                         std::move(universe));
          rows.clear();
        });
      }
      tracer.Run("greedy.seed_loop", root, i, cache, [&] {
        r = view ? former.FormWithView(*view, task, &rng)
                 : former.Form(task, &rng);
      });
      tracer.Close(root);
      if (view) view_bytes += view->bytes();
      if (!SameTeam(r, reference[i])) {
        out->Fail("traced task " + std::to_string(i) + " differs");
      }
      tried += r.seeds_tried;
      succeeded += r.seeds_succeeded;
      ++out->attempted;
    }
    ++passes;
  } while (SecondsSince(t0) < args.seconds * 0.5);
  SetViewAndGreedyLayers(tracer, passes, oracle->rows_computed() - rows_before,
                         tried, succeeded, universe_rows, view_bytes, out);
  SetCacheLayer(tracer, passes, *cache, out);
  const std::string gap = tracer.CheckCoverage(0.95);
  if (!gap.empty()) out->Fail("coverage: " + gap);
  std::printf("traced: %d passes, stage coverage %.2f%% (lowest task "
              "%.2f%%)\n",
              passes, tracer.TotalCoverage() * 100.0,
              tracer.MinCoverage() * 100.0);

  // 2. Seed-loop scaling: FormWithView at 1 thread vs nproc threads, each
  // on a freshly built view (lazy rows materialize on first touch, so a
  // reused view would favour the second run), alternating which goes first.
  FormerSet one = MakeFormers(*st, config,
                              [](GreedyParams* p) { p->seed_threads = 1; });
  FormerSet many = MakeFormers(
      *st, config, [](GreedyParams* p) { p->seed_threads = Nproc(); });
  double one_ms = 0, many_ms = 0;
  const Clock::time_point t1 = Clock::now();
  for (size_t k = 0; SecondsSince(t1) < args.seconds * 0.25 ||
                     k < std::min<size_t>(8, st->stream.size());
       ++k) {
    const size_t i = k % st->stream.size();
    const Task& task = st->stream.tasks[i];
    for (int order = 0; order < 2; ++order) {
      const bool single = (order == 0) == (k % 2 == 0);
      FormerSet& set = single ? one : many;
      auto view = tfsn::TaskCompatView::Build(set.oracle.get(), skills, task);
      if (!view) continue;
      Rng rng(st->stream.rng_seeds[i]);
      const Clock::time_point start = Clock::now();
      const TeamResult r =
          set.formers[st->stream.policy[i]]->FormWithView(*view, task, &rng);
      (single ? one_ms : many_ms) += Ms(Clock::now() - start);
      if (!SameTeam(r, reference[i])) {
        out->Fail("seed-thread task " + std::to_string(i) + " differs");
      }
    }
  }
  out->Set("greedy.seed_thread_speedup", many_ms > 0 ? one_ms / many_ms : 0);

  // 3. form_sparse: forced view path vs forced oracle path, Form end to
  // end, alternating in blocks — which side of kAuto's choice wins.
  if (config.measure_view_over_oracle) {
    FormerSet view_set = MakeFormers(*st, config, [](GreedyParams* p) {
      p->eval_path = tfsn::GreedyEvalPath::kView;
    });
    FormerSet oracle_set = MakeFormers(*st, config, [](GreedyParams* p) {
      p->eval_path = tfsn::GreedyEvalPath::kOracle;
    });
    double path_ms[2] = {0, 0};
    const Clock::time_point t2 = Clock::now();
    size_t next = 0;
    do {
      for (int side = 0; side < 2; ++side) {
        FormerSet& set = side == 0 ? view_set : oracle_set;
        const Clock::time_point start = Clock::now();
        for (size_t b = 0; b < 32; ++b) {
          const size_t i = (next + b) % st->stream.size();
          Rng rng(st->stream.rng_seeds[i]);
          const TeamResult r =
              set.formers[st->stream.policy[i]]->Form(st->stream.tasks[i],
                                                      &rng);
          if (!SameTeam(r, reference[i])) {
            out->Fail("eval-path task " + std::to_string(i) + " differs");
          }
        }
        path_ms[side] += Ms(Clock::now() - start);
      }
      next += 32;
    } while (SecondsSince(t2) < args.seconds * 0.25);
    out->Set("greedy.view_over_oracle",
             path_ms[1] > 0 ? path_ms[0] / path_ms[1] : 0);
  }
  if (!tracer.WriteChromeTrace(args.out_dir + "/trace-" + args.workload +
                               ".json")) {
    out->Fail("cannot write the trace file");
  }
}

DirectConfig DenseConfig() {
  // The view path: kAuto sends tasks whose first skill is small to the
  // oracle path, which ignores seed_threads, and this workload exists to
  // measure the parallel seed loop.
  std::vector<GreedyParams> params = {Lcmd(0, Nproc()), Lcmc(0, Nproc())};
  for (GreedyParams& p : params) p.eval_path = tfsn::GreedyEvalPath::kView;
  return {384, 16, DenseStream, params, kDenseSloMs, false};
}

DirectConfig SparseConfig() {
  GreedyParams p;  // default GreedyParams: kAuto, one seed thread
  p.max_seeds = 16;
  return {1024, 64, SparseStream, {p}, kSparseSloMs, true};
}

// ---------------------------------------------------------------------------
// form_sharded
// ---------------------------------------------------------------------------

/// shard_scaling's instance: a connected G(n, 3n) graph with 20% negative
/// edges and 20 Zipf skills, fixed seed.
struct ShardedState {
  tfsn::SignedGraph graph;
  tfsn::SkillAssignment skills;
  TaskStream stream;
  std::shared_ptr<RowCache> cache;
  std::unique_ptr<tfsn::DistributedFormer> dist;
};

uint32_t ShardCount() { return std::max(1u, Nproc() - 1); }

GreedyParams ShardedParams() {
  GreedyParams p;
  p.skill_policy = tfsn::SkillPolicy::kRarest;
  p.user_policy = tfsn::UserPolicy::kMinDistance;
  return p;
}

std::unique_ptr<ShardedState> SetUpSharded(const Args& args) {
  auto st = std::make_unique<ShardedState>();
  const uint32_t n = args.tiny ? 300 : 2000;
  Rng rng(1);
  st->graph = tfsn::RandomConnectedGnm(n, uint64_t{n} * 3, 0.2, &rng);
  tfsn::ZipfSkillParams sp;
  sp.num_skills = 20;
  st->skills = tfsn::ZipfSkills(n, sp, &rng);
  st->stream = ShardedStream(st->skills, args.tiny ? 12 : 1024, args.seed);
  // Every shard worker's oracle shares one cache, warmed here with every
  // holder's row: each worker only ever fetches the rows it owns, so this
  // is the state per-shard caches reach after a warm pass.
  tfsn::RowCacheOptions cache_options;
  cache_options.max_bytes = 0;
  st->cache = std::make_shared<RowCache>(cache_options);
  {
    auto oracle = tfsn::MakeOracle(st->graph, CompatKind::kSPM,
                                   tfsn::OracleParams{}, st->cache);
    std::vector<Task> all_skills;
    for (tfsn::SkillId s = 0; s < st->skills.num_skills(); ++s) {
      all_skills.emplace_back(std::vector<tfsn::SkillId>{s});
    }
    oracle->StreamRows(WorkingSet(st->skills, all_skills), Nproc(),
                       [](size_t, const tfsn::CompatRow&) {});
  }
  // nproc - 1 shard threads plus the coordinator fill nproc cores, so no
  // shard waits for a core at a step's barrier.
  tfsn::DistOptions options;
  options.num_shards = ShardCount();
  options.strategy = tfsn::ShardStrategy::kHash;
  std::shared_ptr<RowCache> cache = st->cache;
  options.oracle_factory = [cache](const tfsn::SignedGraph& g) {
    return tfsn::MakeOracle(g, CompatKind::kSPM, tfsn::OracleParams{}, cache);
  };
  st->dist = std::make_unique<tfsn::DistributedFormer>(
      st->graph, st->skills, nullptr, ShardedParams(), options);
  return st;
}

std::vector<TeamResult> ShardedReference(const Args& args,
                                         const ShardedState& st,
                                         Outcome* out, double* single_ms) {
  auto oracle = tfsn::MakeOracle(st.graph, CompatKind::kSPM,
                                 tfsn::OracleParams{}, st.cache);
  GreedyTeamFormer former(oracle.get(), st.skills, nullptr, ShardedParams());
  std::vector<TeamResult> reference;
  const Clock::time_point t0 = Clock::now();
  for (size_t i = 0; i < st.stream.size(); ++i) {
    Rng rng(st.stream.rng_seeds[i]);
    reference.push_back(former.Form(st.stream.tasks[i], &rng));
    MixTeam(&out->digest, reference.back());
  }
  if (single_ms != nullptr) {
    *single_ms = Ms(Clock::now() - t0) / static_cast<double>(st.stream.size());
  }
  if (args.corrupt_reference) CorruptReference(&reference);
  return reference;
}

bool DistForm(ShardedState* st, size_t i, TeamResult* r,
              tfsn::FormCommStats* comm) {
  Rng rng(st->stream.rng_seeds[i]);
  tfsn::Result<TeamResult> got = st->dist->Form(st->stream.tasks[i], &rng, comm);
  if (!got.ok()) return false;
  *r = *got;
  return true;
}

void RunShardedUntraced(const Args& args, Outcome* out) {
  std::vector<double> setup_s;
  std::unique_ptr<ShardedState> st;
  for (int rep = 0; rep < kSetupRuns; ++rep) {
    st.reset();
    const Clock::time_point t0 = Clock::now();
    st = SetUpSharded(args);
    setup_s.push_back(SecondsSince(t0));
  }
  SetSetupSeconds(setup_s, out);
  const std::vector<TeamResult> reference =
      ShardedReference(args, *st, out, nullptr);
  std::vector<uint64_t> steps(st->stream.size(), 0);
  TimeClosedLoop(
      args, st->stream, reference, kShardedSloMs,
      [&st, &steps](size_t i, TeamResult* r) {
        tfsn::FormCommStats comm;
        const bool ok = DistForm(st.get(), i, r, &comm);
        steps[i] = comm.steps;
        return ok;
      },
      [&steps](size_t i, const TeamResult&) { return steps[i]; }, out);
}

void RunShardedTraced(const Args& args, Outcome* out) {
  std::unique_ptr<ShardedState> st = SetUpSharded(args);
  Tracer tracer;
  uint64_t tasks = 0, steps = 0, rounds = 0, tried = 0, succeeded = 0;
  uint64_t messages = 0, control_bytes = 0, data_bytes = 0;
  int passes = 0;
  double dist_ms = 0;
  // The reference pass doubles as the single-node timing on the same
  // stream and warm cache.
  double single_ms = 0;
  const std::vector<TeamResult> reference =
      ShardedReference(args, *st, out, &single_ms);
  const Clock::time_point t0 = Clock::now();
  do {
    for (size_t i = 0; i < st->stream.size(); ++i) {
      const int32_t root = tracer.Open("task", -1, i);
      TeamResult r;
      tfsn::FormCommStats comm;
      bool ok = false;
      const int32_t span = tracer.Run("dist.form", root, i, st->cache.get(),
                                      [&] { ok = DistForm(st.get(), i, &r, &comm); });
      tracer.Close(root);
      dist_ms += Ms(tracer.spans()[span].end - tracer.spans()[span].start);
      if (!ok || !SameTeam(r, reference[i])) {
        out->Fail("sharded task " + std::to_string(i) + " differs or failed");
      }
      ++tasks;
      steps += comm.steps;
      rounds += comm.rounds;
      messages += comm.comm.messages_sent;
      control_bytes += comm.comm.control_bytes;
      data_bytes += comm.comm.data_bytes;
      tried += r.seeds_tried;
      succeeded += r.seeds_succeeded;
    }
    ++passes;
  } while (SecondsSince(t0) < args.seconds * 0.8);
  out->attempted += tasks;
  const double t = static_cast<double>(tasks);
  const double s = static_cast<double>(std::max<uint64_t>(steps, 1));
  out->Set("dist.steps", static_cast<double>(steps) / t);
  out->Set("dist.rounds", static_cast<double>(rounds) / t);
  out->Set("dist.messages_per_step", static_cast<double>(messages) / s);
  out->Set("dist.control_bytes_per_step",
           static_cast<double>(control_bytes) / s);
  out->Set("dist.data_bytes_per_task", static_cast<double>(data_bytes) / t);
  out->Set("dist.single_node_ms_per_task", single_ms);
  out->Set("dist.overhead_frac", 1.0 - single_ms / (dist_ms / t));
  out->Set("greedy.seeds_tried", static_cast<double>(tried) / passes);
  out->Set("greedy.seed_success_frac",
           tried > 0 ? static_cast<double>(succeeded) / tried : 0.0);
  SetCacheLayer(tracer, passes, *st->cache, out);
  const std::string gap = tracer.CheckCoverage(0.95);
  if (!gap.empty()) out->Fail("coverage: " + gap);
  std::printf("traced: %d passes, %.3f ms/task sharded vs %.3f single-node, "
              "stage coverage %.2f%%\n",
              passes, dist_ms / t, single_ms, tracer.TotalCoverage() * 100.0);
  if (!tracer.WriteChromeTrace(args.out_dir + "/trace-" + args.workload +
                               ".json")) {
    out->Fail("cannot write the trace file");
  }
}

}  // namespace

void RunFormDense(const Args& args, Outcome* out) {
  const DirectConfig config = DenseConfig();
  args.trace ? RunDirectTraced(args, config, out)
             : RunDirectUntraced(args, config, out);
}

void RunFormSparse(const Args& args, Outcome* out) {
  const DirectConfig config = SparseConfig();
  args.trace ? RunDirectTraced(args, config, out)
             : RunDirectUntraced(args, config, out);
}

void RunFormSharded(const Args& args, Outcome* out) {
  args.trace ? RunShardedTraced(args, out) : RunShardedUntraced(args, out);
}

}  // namespace perfbench
