#include "src/serve/server.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "src/team/task_view.h"
#include "src/util/fault_injection.h"
#include "src/util/logging.h"
#include "src/util/rng.h"

namespace tfsn::serve {

namespace {

uint64_t MicrosBetween(std::chrono::steady_clock::time_point from,
                       std::chrono::steady_clock::time_point to) {
  return static_cast<uint64_t>(std::max<int64_t>(
      0, std::chrono::duration_cast<std::chrono::microseconds>(to - from)
             .count()));
}

// Integer EWMA with α = 1/8. The load/store pair is deliberately not a
// CAS loop: a lost update between concurrent workers only perturbs an
// estimate, and the estimate feeds heuristics, not correctness.
void UpdateEwma(std::atomic<uint64_t>* ewma, uint64_t sample) {
  const uint64_t cur = ewma->load(std::memory_order_relaxed);
  const uint64_t next = cur == 0 ? sample : cur - cur / 8 + sample / 8;
  ewma->store(next, std::memory_order_relaxed);
}

}  // namespace

void ServerMetrics::Merge(const ServerMetrics& other) {
  completed += other.completed;
  batches += other.batches;
  shared_view_batches += other.shared_view_batches;
  fallback_batches += other.fallback_batches;
  shed += other.shed;
  degraded += other.degraded;
  queue_us.Merge(other.queue_us);
  service_us.Merge(other.service_us);
  total_us.Merge(other.total_us);
  if (batch_size_counts.size() < other.batch_size_counts.size()) {
    batch_size_counts.resize(other.batch_size_counts.size(), 0);
  }
  for (size_t b = 0; b < other.batch_size_counts.size(); ++b) {
    batch_size_counts[b] += other.batch_size_counts[b];
  }
}

TeamFormationServer::TeamFormationServer(const SignedGraph& graph,
                                         const SkillAssignment& skills,
                                         const SkillCompatibilityIndex* index,
                                         CompatKind kind,
                                         std::shared_ptr<RowCache> cache,
                                         ServerOptions options)
    : skills_(skills),
      options_(options),
      cache_(std::move(cache)),
      queue_(options.queue_capacity),
      scheduler_(skills, kind == CompatKind::kSBPH, options.batch,
                 options.deadline) {
  TFSN_CHECK(cache_ != nullptr);
  options_.workers = std::max<uint32_t>(1, options_.workers);
  // The worker pool is the parallelism; nested seed threads would
  // oversubscribe. Results are identical for every setting.
  options_.greedy.seed_threads = 1;
  workers_.reserve(options_.workers);
  for (uint32_t w = 0; w < options_.workers; ++w) {
    auto worker = std::make_unique<Worker>();
    worker->oracle = MakeOracle(graph, kind, OracleParams{}, cache_);
    worker->former = std::make_unique<GreedyTeamFormer>(
        worker->oracle.get(), skills_, index, options_.greedy);
    {
      // The worker thread does not exist yet; the lock is for the
      // analysis (the metrics block is guarded by worker->mu).
      MutexLock lock(&worker->mu);
      worker->metrics.batch_size_counts.assign(options_.batch.max_batch + 1,
                                               0);
    }
    workers_.push_back(std::move(worker));
  }
  for (auto& worker : workers_) {
    worker->thread =
        std::thread(&TeamFormationServer::WorkerLoop, this, worker.get());
  }
}

TeamFormationServer::~TeamFormationServer() { Shutdown(); }

ScheduledRequest TeamFormationServer::MakeScheduled(TeamRequest request) {
  ScheduledRequest sr;
  sr.admitted = std::chrono::steady_clock::now();
  if (request.deadline_us != 0) {
    sr.deadline = sr.admitted + std::chrono::microseconds(request.deadline_us);
  }
  sr.seq = seq_.fetch_add(1, std::memory_order_relaxed);
  sr.request = std::move(request);
  return sr;
}

Status TeamFormationServer::AdmitCheck(const TeamRequest& request) const {
  if (request.deadline_us == 0 ||
      options_.deadline.shed < ShedMode::kAdmission) {
    return Status::OK();
  }
  const uint64_t expected = QueueWaitEstimateUs() + ServiceEstimateUs();
  if (expected > request.deadline_us) {
    return Status::DeadlineExceeded(
        "deadline infeasible at admission: expected latency ~" +
        std::to_string(expected) + "us exceeds budget " +
        std::to_string(request.deadline_us) + "us; retry after ~" +
        std::to_string(RetryAfterMs()) + "ms");
  }
  return Status::OK();
}

Status TeamFormationServer::Submit(TeamRequest request,
                                   std::future<TeamResponse>* response) {
  Status admit = AdmitCheck(request);
  if (!admit.ok()) return admit;
  ScheduledRequest sr = MakeScheduled(std::move(request));
  std::future<TeamResponse> fut = sr.promise.get_future();
  Status pushed = queue_.Push(std::move(sr));
  if (!pushed.ok()) return pushed;
  *response = std::move(fut);
  return Status::OK();
}

Status TeamFormationServer::TrySubmit(TeamRequest request,
                                      std::future<TeamResponse>* response) {
  Status admit = AdmitCheck(request);
  if (!admit.ok()) return admit;
  ScheduledRequest sr = MakeScheduled(std::move(request));
  std::future<TeamResponse> fut = sr.promise.get_future();
  Status pushed = queue_.TryPush(&sr);
  if (pushed.IsResourceExhausted()) {
    return Status::ResourceExhausted("admission queue full; retry after ~" +
                                     std::to_string(RetryAfterMs()) + "ms");
  }
  if (!pushed.ok()) return pushed;
  *response = std::move(fut);
  return Status::OK();
}

void TeamFormationServer::Shutdown() {
  std::call_once(shutdown_once_, [this] {
    queue_.Close();  // workers drain every admitted request, then exit
    for (auto& worker : workers_) {
      if (worker->thread.joinable()) worker->thread.join();
    }
    // Safety net: workers normally drain everything before exiting, so
    // both sweeps below are empty — but a request admitted in the races
    // around Close, or left behind by a worker that died mid-fault, must
    // not leave its future blocking forever. Fulfill whatever is still
    // admitted with a typed shutdown response.
    ScheduledRequest sr;
    while (queue_.TryPop(&sr)) {
      FulfillError(&sr, Status::Unavailable("server shut down before serving"));
    }
    std::vector<ScheduledRequest> leftover;
    scheduler_.TakePending(&leftover);
    for (ScheduledRequest& s : leftover) {
      FulfillError(&s, Status::Unavailable("server shut down before serving"));
    }
  });
}

bool TeamFormationServer::Funds(const ScheduledRequest& sr,
                                std::chrono::steady_clock::time_point now,
                                uint64_t estimate_us) const {
  if (sr.deadline <= now) return false;
  return MicrosBetween(now, sr.deadline) >= estimate_us;
}

void TeamFormationServer::Shed(Worker* worker, ScheduledRequest* sr,
                               const char* why) {
  {
    MutexLock lock(&worker->mu);
    ++worker->metrics.shed;
  }
  FulfillError(sr, Status::DeadlineExceeded(why));
}

void TeamFormationServer::ServeDegraded(Worker* worker, ScheduledRequest* sr,
                                        uint32_t batch_size) {
  const auto service_start = std::chrono::steady_clock::now();
  // Even the cache-only tier costs something. If the remaining budget
  // cannot fund a typical degraded serve, answering would just be late —
  // shed with the typed response instead so the accepted tail stays
  // inside the SLO.
  std::unique_ptr<TaskCompatView> view;
  if (Funds(*sr, service_start, DegradedEstimateUs())) {
    view = TaskCompatView::BuildFromCachedRows(
        worker->oracle.get(), skills_, sr->request.task,
        HolderUniverse(skills_, sr->request.task.skills()),
        options_.batch.max_view_bytes);
  }
  TeamResult result;
  if (view != nullptr) {
    Rng rng(sr->request.rng_seed);
    result = worker->former->FormWithView(*view, sr->request.task, &rng);
  }
  // When every row the seed loop read was cached, the run saw exactly
  // what the full view would have shown it, so even a "no team exists"
  // verdict is the exact answer. Otherwise the answer only counts when it
  // found a team — a miss may just mean the missing rows held the answer.
  const bool exact = view != nullptr && !view->missed_rows();
  if (view == nullptr || !(exact || result.found)) {
    Shed(worker, sr, "deadline cannot be met by any tier");
    return;
  }
  TeamResponse resp;
  resp.id = sr->request.id;
  resp.batch_size = batch_size;
  resp.result = std::move(result);
  resp.degraded = !exact;
  const auto done = std::chrono::steady_clock::now();
  resp.queue_us = MicrosBetween(sr->admitted, service_start);
  resp.service_us = MicrosBetween(service_start, done);
  resp.total_us = MicrosBetween(sr->admitted, done);
  // The realized cache-only cost feeds the gate above.
  UpdateEwma(&degraded_ewma_us_, resp.service_us);
  FinishServed(worker, sr, std::move(resp));
}

void TeamFormationServer::FinishServed(Worker* worker, ScheduledRequest* sr,
                                       TeamResponse resp) {
  {
    MutexLock lock(&worker->mu);
    ++worker->metrics.completed;
    if (resp.degraded) ++worker->metrics.degraded;
    worker->metrics.queue_us.Record(resp.queue_us);
    worker->metrics.service_us.Record(resp.service_us);
    worker->metrics.total_us.Record(resp.total_us);
  }
  {
    // Feed the admission-control estimate with the realized queue wait.
    MutexLock lock(&lat_mu_);
    queue_hist_.Record(resp.queue_us);
  }
  sr->promise.set_value(std::move(resp));
}

void TeamFormationServer::WorkerLoop(Worker* worker) {
  RequestBatch batch;
  while (scheduler_.NextBatch(&queue_, &batch)) {
    const uint32_t batch_size = static_cast<uint32_t>(batch.items.size());

    // Overload triage: under ShedMode::kQueue, a member whose deadline
    // already passed is shed here (the scheduler sweeps the queue, but a
    // deadline can expire between batch formation and service), and one
    // whose remaining budget cannot fund the shared build plus its own
    // formation drops to the degradation ladder. Everyone else takes the
    // full exact path below.
    std::vector<ScheduledRequest*> full;
    full.reserve(batch.items.size());
    const bool enforce = options_.deadline.shed >= ShedMode::kQueue;
    const uint64_t est_full =
        enforce ? BuildEstimateUs() + ServiceEstimateUs() : 0;
    for (ScheduledRequest& sr : batch.items) {
      if (!enforce ||
          sr.deadline == std::chrono::steady_clock::time_point::max()) {
        full.push_back(&sr);
        continue;
      }
      const auto now = std::chrono::steady_clock::now();
      if (sr.deadline <= now) {
        Shed(worker, &sr, "deadline expired before service");
        continue;
      }
      if (!Funds(sr, now, est_full)) {
        ServeDegraded(worker, &sr, batch_size);
        continue;
      }
      full.push_back(&sr);
    }

    // One shared view (and one StreamRows cache prewarm of the union
    // holder universe) serves the whole group. nullptr — union over the
    // byte budget or graph too large for dense uint16 distances — falls
    // back to standalone Form per request, which is bit-identical.
    std::unique_ptr<TaskCompatView> view;
    if (!full.empty() && !batch.union_task.empty()) {
      const auto build_start = std::chrono::steady_clock::now();
      view = TaskCompatView::BuildFromUniverse(
          worker->oracle.get(), skills_, batch.union_task,
          std::move(batch.universe), /*threads=*/1,
          options_.batch.max_view_bytes);
      if (view != nullptr) {
        UpdateEwma(&build_ewma_us_,
                   MicrosBetween(build_start,
                                 std::chrono::steady_clock::now()));
      }
    }
    // Injected view loss after a successful build: every member silently
    // takes the standalone path, which must stay bit-identical.
    if (view != nullptr && TFSN_FAULT_POINT("serve.shared_view_drop")) {
      view.reset();
    }
    for (ScheduledRequest* sr : full) {
      const auto service_start = std::chrono::steady_clock::now();
      // Post-build re-triage: the shared build above runs on cold-start
      // estimates (the EWMAs start at zero), so early batches can burn
      // far more budget than triage predicted. A member whose deadline
      // passed during the build — or whose remainder no longer funds its
      // own formation — drops to the ladder now instead of being served
      // knowingly late.
      if (enforce &&
          sr->deadline != std::chrono::steady_clock::time_point::max()) {
        if (sr->deadline <= service_start) {
          Shed(worker, sr, "deadline expired during the view build");
          continue;
        }
        if (!Funds(*sr, service_start, ServiceEstimateUs())) {
          ServeDegraded(worker, sr, batch_size);
          continue;
        }
      }
      Rng rng(sr->request.rng_seed);
      TeamResponse resp;
      resp.id = sr->request.id;
      resp.batch_size = batch_size;
      resp.used_shared_view = view != nullptr;
      resp.result = view != nullptr
                        ? worker->former->FormWithView(*view, sr->request.task,
                                                       &rng)
                        : worker->former->Form(sr->request.task, &rng);
      const auto done = std::chrono::steady_clock::now();
      resp.queue_us = MicrosBetween(sr->admitted, service_start);
      resp.service_us = MicrosBetween(service_start, done);
      resp.total_us = MicrosBetween(sr->admitted, done);
      UpdateEwma(&service_ewma_us_, resp.service_us);
      FinishServed(worker, sr, std::move(resp));
    }
    {
      MutexLock lock(&worker->mu);
      ServerMetrics& m = worker->metrics;
      ++m.batches;
      ++(view != nullptr ? m.shared_view_batches : m.fallback_batches);
      ++m.batch_size_counts[std::min<size_t>(
          batch_size, m.batch_size_counts.size() - 1)];
    }
  }
}

ServerMetrics TeamFormationServer::Metrics() const {
  ServerMetrics m;
  for (const auto& worker : workers_) {
    MutexLock lock(&worker->mu);
    m.Merge(worker->metrics);
  }
  m.shed += scheduler_.shed_count();
  m.cache = cache_->SnapshotCounters();
  return m;
}

uint64_t TeamFormationServer::QueueWaitEstimateUs() const {
  if (options_.deadline.assume_queue_us != 0) {
    return options_.deadline.assume_queue_us;
  }
  MutexLock lock(&lat_mu_);
  return queue_hist_.count() == 0 ? 0 : queue_hist_.ValueAtQuantile(0.5);
}

uint64_t TeamFormationServer::BuildEstimateUs() const {
  if (options_.deadline.assume_build_us != 0) {
    return options_.deadline.assume_build_us;
  }
  return build_ewma_us_.load(std::memory_order_relaxed);
}

uint64_t TeamFormationServer::ServiceEstimateUs() const {
  if (options_.deadline.assume_service_us != 0) {
    return options_.deadline.assume_service_us;
  }
  return service_ewma_us_.load(std::memory_order_relaxed);
}

uint64_t TeamFormationServer::DegradedEstimateUs() const {
  // No assume_* override: the ladder gate starts optimistic (0 — serve
  // and see) and adapts to the realized degraded-tier cost. Tests pin the
  // *entry* to the ladder via assume_build/assume_service instead.
  return degraded_ewma_us_.load(std::memory_order_relaxed);
}

uint64_t TeamFormationServer::RetryAfterMs() const {
  const uint64_t us = QueueWaitEstimateUs() + ServiceEstimateUs();
  return std::max<uint64_t>(1, us / 1000);
}

}  // namespace tfsn::serve
