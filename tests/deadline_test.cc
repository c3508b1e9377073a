// Deadline-aware serving under overload: admission control, EDF batch
// ordering, in-queue expiry shedding, the degradation ladder, and the
// shutdown promise guarantee.
//
// Determinism note: the tests that exercise *decisions* (admission,
// degradation) pin every live estimator through DeadlinePolicy's assume_*
// overrides, so they do not depend on machine speed. The overload test is
// the one timing-based test: it floods a single worker far past a small
// SLO and checks the contract the shedding exists for — accepted requests
// finish inside the budget (p99) while the excess is shed, not dropped.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "src/compat/skill_index.h"
#include "src/gen/generators.h"
#include "src/serve/admission_queue.h"
#include "src/serve/batcher.h"
#include "src/serve/server.h"
#include "src/serve/types.h"
#include "src/serve/workload.h"
#include "src/skills/skill_generator.h"
#include "src/team/cost.h"
#include "src/team/greedy.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace tfsn::serve {
namespace {

constexpr auto kWatchdog = std::chrono::seconds(60);

struct Instance {
  SignedGraph graph;
  SkillAssignment skills;
};

Instance MakeInstance(uint64_t seed = 21) {
  Rng rng(seed);
  Instance inst{RandomConnectedGnm(80, 200, 0.25, &rng), {}};
  ZipfSkillParams sp;
  sp.num_skills = 15;
  inst.skills = ZipfSkills(80, sp, &rng);
  return inst;
}

struct Harness {
  Instance inst;
  std::shared_ptr<RowCache> cache;
  std::unique_ptr<CompatibilityOracle> oracle;  // index construction only
  std::unique_ptr<SkillCompatibilityIndex> index;

  Harness() : inst(MakeInstance()) {
    cache = std::make_shared<RowCache>();
    oracle = MakeOracle(inst.graph, CompatKind::kSPM, OracleParams{}, cache);
    Rng rng(3);
    index = std::make_unique<SkillCompatibilityIndex>(oracle.get(),
                                                      inst.skills, 0, &rng);
  }

  std::unique_ptr<TeamFormationServer> NewServer(ServerOptions options) {
    return std::make_unique<TeamFormationServer>(
        inst.graph, inst.skills, index.get(), CompatKind::kSPM, cache,
        std::move(options));
  }
};

std::vector<TeamRequest> MakeRequests(const Harness& h, uint32_t n,
                                      uint64_t deadline_us) {
  WorkloadOptions options;
  options.num_requests = n;
  options.task_size = 3;
  options.seed = 77;
  auto reqs = GenerateRequests(h.inst.skills, options);
  for (TeamRequest& req : reqs) req.deadline_us = deadline_us;
  return reqs;
}

// True when `result` is a sound team for `task`: it covers the task and
// every member pair is compatible under the exact oracle. Degraded answers
// must meet this even when they differ from the reference.
bool SoundTeam(const Harness& h, const Task& task, const TeamResult& result) {
  auto exact = MakeOracle(h.inst.graph, CompatKind::kSPM);
  return result.found &&
         TeamCoversTask(h.inst.skills, task, result.members) &&
         TeamCompatible(exact.get(), result.members);
}

// Forms every request directly — the exact reference.
std::vector<TeamResult> DirectReference(const Harness& h,
                                        const GreedyParams& params,
                                        const std::vector<TeamRequest>& reqs) {
  auto oracle = MakeOracle(h.inst.graph, CompatKind::kSPM);
  Rng idx_rng(3);
  SkillCompatibilityIndex index(oracle.get(), h.inst.skills, 0, &idx_rng);
  GreedyTeamFormer former(oracle.get(), h.inst.skills, &index, params);
  std::vector<TeamResult> out;
  out.reserve(reqs.size());
  for (const TeamRequest& req : reqs) {
    Rng rng(req.rng_seed);
    out.push_back(former.Form(req.task, &rng));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Scheduler: EDF ordering and in-queue expiry shedding
// ---------------------------------------------------------------------------

ScheduledRequest Scheduled(uint64_t id, std::vector<SkillId> skills,
                           uint64_t seq, int64_t deadline_in_ms) {
  ScheduledRequest sr;
  sr.request.id = id;
  sr.request.task = Task(std::move(skills));
  sr.request.rng_seed = id;
  sr.admitted = std::chrono::steady_clock::now();
  sr.seq = seq;
  if (deadline_in_ms != 0) {
    sr.deadline = sr.admitted + std::chrono::milliseconds(deadline_in_ms);
  }
  return sr;
}

TEST(DeadlineSchedulerTest, EarliestDeadlineSeedsAndOrdersTheBatch) {
  // Six users holding skill 0: every request shares one footprint, so one
  // batch takes them all — ordered by deadline, not arrival.
  std::vector<std::vector<SkillId>> user_skills(6, std::vector<SkillId>{0});
  auto skills = SkillAssignment::Create(user_skills, 1);
  ASSERT_TRUE(skills.ok());

  BatchPolicy policy;
  policy.max_batch = 8;
  DeadlinePolicy deadline;
  deadline.shed = ShedMode::kQueue;
  BatchScheduler scheduler(*skills, false, policy, deadline);
  AdmissionQueue<ScheduledRequest> queue(16);
  // Arrival order 0,1,2 with deadlines 5s / 1s / 3s.
  ASSERT_TRUE(queue.Push(Scheduled(0, {0}, 0, 5000)).ok());
  ASSERT_TRUE(queue.Push(Scheduled(1, {0}, 1, 1000)).ok());
  ASSERT_TRUE(queue.Push(Scheduled(2, {0}, 2, 3000)).ok());
  queue.Close();

  RequestBatch batch;
  ASSERT_TRUE(scheduler.NextBatch(&queue, &batch));
  ASSERT_EQ(batch.items.size(), 3u);
  EXPECT_EQ(batch.items[0].request.id, 1u);
  EXPECT_EQ(batch.items[1].request.id, 2u);
  EXPECT_EQ(batch.items[2].request.id, 0u);
  EXPECT_FALSE(scheduler.NextBatch(&queue, &batch));
}

TEST(DeadlineSchedulerTest, EarliestDeadlineWinsTheSeedAcrossFootprints) {
  // Two disjoint footprint clusters; the later arrival with the sooner
  // deadline must seed the first batch.
  std::vector<std::vector<SkillId>> user_skills(8);
  for (uint32_t u = 0; u < 4; ++u) user_skills[u] = {0};
  for (uint32_t u = 4; u < 8; ++u) user_skills[u] = {1};
  auto skills = SkillAssignment::Create(user_skills, 2);
  ASSERT_TRUE(skills.ok());

  BatchPolicy policy;
  policy.max_batch = 8;
  policy.min_jaccard = 0.3;
  BatchScheduler scheduler(*skills, false, policy,
                           DeadlinePolicy{.shed = ShedMode::kQueue});
  AdmissionQueue<ScheduledRequest> queue(16);
  ASSERT_TRUE(queue.Push(Scheduled(0, {0}, 0, 5000)).ok());
  ASSERT_TRUE(queue.Push(Scheduled(1, {1}, 1, 1000)).ok());
  queue.Close();

  RequestBatch batch;
  ASSERT_TRUE(scheduler.NextBatch(&queue, &batch));
  ASSERT_EQ(batch.items.size(), 1u);
  EXPECT_EQ(batch.items[0].request.id, 1u);  // EDF beats FIFO
  ASSERT_TRUE(scheduler.NextBatch(&queue, &batch));
  EXPECT_EQ(batch.items[0].request.id, 0u);
  EXPECT_FALSE(scheduler.NextBatch(&queue, &batch));
}

TEST(DeadlineSchedulerTest, DeadlineFreeTrafficKeepsFifoOrder) {
  // Without deadlines every request has deadline == +inf, so the seq
  // tie-break must reproduce the PR 5 FIFO anchor exactly.
  std::vector<std::vector<SkillId>> user_skills(6, std::vector<SkillId>{0});
  auto skills = SkillAssignment::Create(user_skills, 1);
  ASSERT_TRUE(skills.ok());
  BatchPolicy policy;
  policy.max_batch = 2;
  BatchScheduler scheduler(*skills, false, policy,
                           DeadlinePolicy{.shed = ShedMode::kQueue});
  AdmissionQueue<ScheduledRequest> queue(16);
  for (uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(queue.Push(Scheduled(i, {0}, i, 0)).ok());
  }
  queue.Close();
  RequestBatch batch;
  ASSERT_TRUE(scheduler.NextBatch(&queue, &batch));
  ASSERT_EQ(batch.items.size(), 2u);
  EXPECT_EQ(batch.items[0].request.id, 0u);
  EXPECT_EQ(batch.items[1].request.id, 1u);
  ASSERT_TRUE(scheduler.NextBatch(&queue, &batch));
  EXPECT_EQ(batch.items[0].request.id, 2u);
  EXPECT_EQ(batch.items[1].request.id, 3u);
}

TEST(DeadlineSchedulerTest, ExpiredInQueueIsShedWithTypedResponse) {
  std::vector<std::vector<SkillId>> user_skills(6, std::vector<SkillId>{0});
  auto skills = SkillAssignment::Create(user_skills, 1);
  ASSERT_TRUE(skills.ok());
  BatchPolicy policy;
  policy.max_batch = 8;
  BatchScheduler scheduler(*skills, false, policy,
                           DeadlinePolicy{.shed = ShedMode::kQueue});
  AdmissionQueue<ScheduledRequest> queue(16);

  ScheduledRequest expired = Scheduled(7, {0}, 0, -5);  // already past
  std::future<TeamResponse> expired_fut = expired.promise.get_future();
  ScheduledRequest live = Scheduled(8, {0}, 1, 5000);
  std::future<TeamResponse> live_fut = live.promise.get_future();
  ASSERT_TRUE(queue.Push(std::move(expired)).ok());
  ASSERT_TRUE(queue.Push(std::move(live)).ok());
  queue.Close();

  RequestBatch batch;
  ASSERT_TRUE(scheduler.NextBatch(&queue, &batch));
  ASSERT_EQ(batch.items.size(), 1u);
  EXPECT_EQ(batch.items[0].request.id, 8u);
  EXPECT_EQ(scheduler.shed_count(), 1u);
  // The shed promise was fulfilled — typed, never dropped.
  ASSERT_EQ(expired_fut.wait_for(kWatchdog), std::future_status::ready);
  const TeamResponse resp = expired_fut.get();
  EXPECT_TRUE(resp.status.IsDeadlineExceeded());
  EXPECT_EQ(resp.id, 7u);
  EXPECT_FALSE(resp.result.found);
  (void)live_fut;  // never served here; its promise dies with the test
}

TEST(DeadlineSchedulerTest, ShedModeOffNeverSheds) {
  std::vector<std::vector<SkillId>> user_skills(6, std::vector<SkillId>{0});
  auto skills = SkillAssignment::Create(user_skills, 1);
  ASSERT_TRUE(skills.ok());
  BatchPolicy policy;
  policy.max_batch = 8;
  BatchScheduler scheduler(*skills, false, policy,
                           DeadlinePolicy{.shed = ShedMode::kOff});
  AdmissionQueue<ScheduledRequest> queue(16);
  ASSERT_TRUE(queue.Push(Scheduled(7, {0}, 0, -5)).ok());  // expired
  queue.Close();
  RequestBatch batch;
  ASSERT_TRUE(scheduler.NextBatch(&queue, &batch));
  ASSERT_EQ(batch.items.size(), 1u);  // served exact-but-late, not shed
  EXPECT_EQ(scheduler.shed_count(), 0u);
}

// ---------------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------------

TEST(DeadlineAdmissionTest, InfeasibleDeadlineRejectedWithRetryAfterHint) {
  Harness h;
  ServerOptions options;
  options.deadline.shed = ShedMode::kAdmission;
  options.deadline.assume_queue_us = 30000;
  options.deadline.assume_service_us = 20000;
  auto server = h.NewServer(options);

  TeamRequest req = MakeRequests(h, 1, /*deadline_us=*/10000)[0];
  std::future<TeamResponse> fut;
  const Status st = server->Submit(req, &fut);
  EXPECT_TRUE(st.IsDeadlineExceeded()) << st.ToString();
  EXPECT_NE(st.message().find("retry after"), std::string::npos)
      << st.ToString();
  // TrySubmit applies the same admission check.
  EXPECT_TRUE(server->TrySubmit(req, &fut).IsDeadlineExceeded());

  // A feasible budget (and a deadline-free request) both pass.
  req.deadline_us = 100000;
  EXPECT_TRUE(server->Submit(req, &fut).ok());
  EXPECT_TRUE(fut.get().status.ok());
  req.deadline_us = 0;
  EXPECT_TRUE(server->Submit(req, &fut).ok());
  EXPECT_TRUE(fut.get().status.ok());
  server->Shutdown();
}

TEST(DeadlineAdmissionTest, ShedModeOffAdmitsInfeasibleDeadlines) {
  Harness h;
  ServerOptions options;
  options.deadline.shed = ShedMode::kOff;
  options.deadline.assume_queue_us = 30000;
  options.deadline.assume_service_us = 20000;
  auto server = h.NewServer(options);
  TeamRequest req = MakeRequests(h, 1, /*deadline_us=*/10000)[0];
  std::future<TeamResponse> fut;
  EXPECT_TRUE(server->Submit(req, &fut).ok());  // advisory only
  EXPECT_TRUE(fut.get().status.ok());
  server->Shutdown();
}

// ---------------------------------------------------------------------------
// Degradation ladder
// ---------------------------------------------------------------------------

TEST(DegradationTest, CompleteCacheOnlyViewStaysExactAndNonDegraded) {
  // Every row prewarmed + an unreachable full-path estimate: the worker
  // must take the cache-only tier for every request, find every row
  // resident, and return bit-identical, non-degraded teams.
  Harness h;
  {
    std::vector<NodeId> all;
    for (NodeId u = 0; u < h.inst.graph.num_nodes(); ++u) all.push_back(u);
    h.oracle->StreamRows(all, 2, [](size_t, const CompatRow&) {}, 64);
  }
  ServerOptions options;
  options.deadline.shed = ShedMode::kQueue;
  // Full path "costs" 2000s — everything degrades; budget is 1000s, so
  // nothing sheds and the oracle fallback (1µs estimate) is always funded.
  options.deadline.assume_build_us = 1000ull * 1000 * 1000;
  options.deadline.assume_service_us = 1;
  auto server = h.NewServer(options);

  const auto requests = MakeRequests(h, 40, /*deadline_us=*/1000ull * 1000 * 1000);
  WorkloadResult run = RunBurst(server.get(), requests);
  server->Shutdown();

  ASSERT_EQ(run.completed, requests.size());
  EXPECT_EQ(run.shed, 0u);
  EXPECT_EQ(run.degraded, 0u);  // complete views are exact
  const auto reference = DirectReference(h, server->options().greedy, requests);
  for (size_t i = 0; i < requests.size(); ++i) {
    EXPECT_TRUE(run.responses[i].status.ok());
    EXPECT_FALSE(run.responses[i].degraded);
    EXPECT_EQ(run.responses[i].result.members, reference[i].members)
        << "request " << i;
    EXPECT_EQ(run.responses[i].result.cost, reference[i].cost);
  }
  const ServerMetrics m = server->Metrics();
  EXPECT_EQ(m.degraded, 0u);
  EXPECT_EQ(m.shed, 0u);
}

TEST(DegradationTest, ColdCacheDegradesOrFallsBackButFulfillsEverything) {
  // Fresh, empty cache + unreachable full-path estimate: the cache-only
  // tier reads rows that are not cached. Every admitted promise must still
  // be fulfilled, degraded responses must be sound, flagged and counted,
  // and responses that came out exact must match the reference.
  Harness h;
  auto cold = std::make_shared<RowCache>();
  ServerOptions options;
  options.deadline.shed = ShedMode::kQueue;
  options.deadline.assume_build_us = 1000ull * 1000 * 1000;
  options.deadline.assume_service_us = 1;
  TeamFormationServer server(h.inst.graph, h.inst.skills, h.index.get(),
                             CompatKind::kSPM, cold, options);

  const auto requests = MakeRequests(h, 40, /*deadline_us=*/1000ull * 1000 * 1000);
  WorkloadResult run = RunBurst(&server, requests);
  server.Shutdown();

  ASSERT_EQ(run.responses.size(), requests.size());
  EXPECT_EQ(run.completed + run.shed + run.unavailable, run.submitted);
  uint64_t degraded_seen = 0;
  const auto reference = DirectReference(h, server.options().greedy, requests);
  for (const TeamResponse& resp : run.responses) {
    if (!resp.status.ok()) continue;
    if (resp.degraded) {
      ++degraded_seen;
      // Degraded teams need not match the exact answer, but they must be
      // sound.
      EXPECT_TRUE(SoundTeam(h, requests[resp.id].task, resp.result))
          << "request " << resp.id;
    } else {
      // Exact answers (a cache-only view whose every read row was cached)
      // match the direct former bit for bit.
      EXPECT_EQ(resp.result.members, reference[resp.id].members)
          << "request " << resp.id;
      EXPECT_EQ(resp.result.cost, reference[resp.id].cost);
    }
  }
  EXPECT_EQ(run.degraded, degraded_seen);
  EXPECT_EQ(server.Metrics().degraded, degraded_seen);
}

TEST(DegradationTest, PartlyCachedRowsServeExactOrSoundTeams) {
  // Three rows in four cached + an unreachable full-path estimate: the
  // cache-only tier answers exactly when the seed loop read only cached
  // rows; otherwise it serves a sound, flagged team or sheds. It never
  // computes a row. (Few seeds keep the rows each request reads few, so
  // both outcomes occur.)
  Harness h;
  auto partial = std::make_shared<RowCache>();
  std::vector<NodeId> cached;
  for (NodeId u = 0; u < h.inst.graph.num_nodes(); ++u) {
    if (u % 4 != 0) cached.push_back(u);
  }
  MakeOracle(h.inst.graph, CompatKind::kSPM, OracleParams{}, partial)
      ->StreamRows(cached, 1, [](size_t, const CompatRow&) {});
  ServerOptions options;
  options.greedy.max_seeds = 2;
  options.deadline.shed = ShedMode::kQueue;
  options.deadline.assume_build_us = 1000ull * 1000 * 1000;
  options.deadline.assume_service_us = 1;
  TeamFormationServer server(h.inst.graph, h.inst.skills, h.index.get(),
                             CompatKind::kSPM, partial, options);

  const auto requests = MakeRequests(h, 40, /*deadline_us=*/1000ull * 1000 * 1000);
  WorkloadResult run = RunBurst(&server, requests);
  server.Shutdown();

  ASSERT_EQ(run.responses.size(), requests.size());
  EXPECT_EQ(run.completed + run.shed, run.submitted);
  const auto reference = DirectReference(h, server.options().greedy, requests);
  uint64_t exact = 0;
  for (const TeamResponse& resp : run.responses) {
    if (!resp.status.ok()) continue;
    if (resp.degraded) {
      EXPECT_TRUE(SoundTeam(h, requests[resp.id].task, resp.result))
          << "request " << resp.id;
    } else {
      ++exact;
      EXPECT_EQ(resp.result.members, reference[resp.id].members)
          << "request " << resp.id;
      EXPECT_EQ(resp.result.cost, reference[resp.id].cost);
    }
  }
  // Both kinds of answer occur, so both checks above ran.
  EXPECT_GT(exact, 0u);
  EXPECT_GT(run.degraded, 0u);
  EXPECT_EQ(partial->SnapshotCounters().insertions, cached.size());
}

TEST(DegradationTest, ExpiredBudgetShedsBeforeAnyTier) {
  // A budget that expires before any ladder decision: requests are shed,
  // not served by a cheaper tier.
  Harness h;
  ServerOptions options;
  options.deadline.shed = ShedMode::kQueue;
  auto server = h.NewServer(options);

  // Cost estimates start at zero (no assume_* overrides, empty EWMA), so
  // the front door admits everything; the 1µs budget then expires in the
  // queue before any worker can pick the request up, so no tier is ever
  // tried — every request must come back as a typed shed.
  const auto requests = MakeRequests(h, 20, /*deadline_us=*/1);
  WorkloadResult run = RunBurst(server.get(), requests);
  server->Shutdown();
  ASSERT_EQ(run.responses.size(), requests.size());
  // With a 1µs budget every request expires before service.
  EXPECT_EQ(run.shed, requests.size());
  EXPECT_EQ(run.degraded, 0u);
  for (const TeamResponse& resp : run.responses) {
    EXPECT_TRUE(resp.status.IsDeadlineExceeded());
  }
}

// ---------------------------------------------------------------------------
// Overload regression: accepted requests meet the SLO, the excess sheds
// ---------------------------------------------------------------------------

TEST(OverloadTest, AcceptedP99WithinBudgetWhileShedAbsorbsExcess) {
  Harness h;
  ServerOptions options;
  options.workers = 1;
  options.queue_capacity = 4096;
  options.batch.max_batch = 8;
  options.deadline.shed = ShedMode::kQueue;
  // TSan slows every lock/atomic op ~10x, which breaks the "assumed cost
  // is conservative vs real cost" premise below; scale the whole scenario
  // up under instrumentation so the premise holds again.
  constexpr uint64_t kSlowdown =
#if defined(__SANITIZE_THREAD__)
      10;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
      10;
#else
      1;
#endif
#else
      1;
#endif
  // Conservative tier estimates (well above the real per-request cost on
  // this 80-node instance): a request within 4ms of its deadline degrades,
  // within 2ms of it sheds — so nothing served can overshoot the budget
  // unless the machine stalls longer than the margin.
  options.deadline.assume_build_us = 2000 * kSlowdown;
  options.deadline.assume_service_us = 2000 * kSlowdown;
  auto server = h.NewServer(options);

  constexpr uint64_t kBudgetUs = 20000 * kSlowdown;  // 20ms SLO
  const auto requests = MakeRequests(h, 1500, kBudgetUs);
  WorkloadResult run = RunBurst(server.get(), requests);
  server->Shutdown();

  // Every admitted promise fulfilled; the stream overloads one worker far
  // past 20ms of queueing, so a nonzero tail must shed.
  ASSERT_EQ(run.responses.size(), requests.size());
  EXPECT_EQ(run.completed + run.shed + run.unavailable, run.submitted);
  EXPECT_GT(run.shed, 0u) << "burst did not overload the worker";
  EXPECT_GT(run.completed, 0u);

  // p99 of accepted-request TOTAL latency (queue + service) within SLO.
  std::vector<uint64_t> accepted_total;
  for (const TeamResponse& resp : run.responses) {
    if (resp.status.ok()) accepted_total.push_back(resp.total_us);
  }
  std::sort(accepted_total.begin(), accepted_total.end());
  const uint64_t p99 =
      accepted_total[(accepted_total.size() * 99) / 100 == accepted_total.size()
                         ? accepted_total.size() - 1
                         : (accepted_total.size() * 99) / 100];
  EXPECT_LE(p99, kBudgetUs) << "accepted requests violated their SLO";

  const ServerMetrics m = server->Metrics();
  EXPECT_EQ(m.shed, run.shed);
  EXPECT_EQ(m.completed, run.completed);
}

// ---------------------------------------------------------------------------
// Shutdown under load: every admitted promise resolves
// ---------------------------------------------------------------------------

TEST(ShutdownTest, ShutdownUnderLoadFulfillsEveryAdmittedPromise) {
  Harness h;
  ServerOptions options;
  options.workers = 2;
  options.queue_capacity = 2048;
  options.deadline.shed = ShedMode::kQueue;
  auto server = h.NewServer(options);

  const auto requests = MakeRequests(h, 300, /*deadline_us=*/0);
  std::vector<std::future<TeamResponse>> futures;
  futures.reserve(requests.size());
  for (const TeamRequest& req : requests) {
    std::future<TeamResponse> fut;
    const Status st = server->Submit(req, &fut);
    if (st.IsUnavailable()) break;
    ASSERT_TRUE(st.ok());
    futures.push_back(std::move(fut));
  }
  // Shut down concurrently with service, from another thread.
  std::thread closer([&server] { server->Shutdown(); });
  // Watchdog: every admitted future must become ready — no promise may
  // block forever, whatever the shutdown raced with.
  for (size_t i = 0; i < futures.size(); ++i) {
    ASSERT_EQ(futures[i].wait_for(kWatchdog), std::future_status::ready)
        << "future " << i << " blocked through shutdown";
    const TeamResponse resp = futures[i].get();
    EXPECT_TRUE(resp.status.ok() || resp.status.IsUnavailable() ||
                resp.status.IsDeadlineExceeded())
        << resp.status.ToString();
  }
  closer.join();
  // After shutdown the front door refuses with the typed code.
  std::future<TeamResponse> fut;
  EXPECT_TRUE(server->Submit(requests[0], &fut).IsUnavailable());
}

}  // namespace
}  // namespace tfsn::serve
