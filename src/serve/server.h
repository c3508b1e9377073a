// TeamFormationServer: the online serving path from "a task arrives" to
// "a team is returned".
//
//                 Submit / TrySubmit
//            (typed admission: queue-full / shutting-down /
//             deadline-infeasible, with retry-after hints)
//                        │
//             AdmissionQueue (bounded, backpressure)
//                        │
//               BatchScheduler.NextBatch
//          (skill-footprint Jaccard grouping, EDF-anchored;
//           sheds requests whose deadline expired in queue)
//                        │
//        worker pool — per batch, each worker:
//          1. sheds/degrades deadline-pressed members (see below),
//          2. builds ONE TaskCompatView for the batch's union task
//             (one single-threaded StreamRows prewarm of the union
//             holder universe),
//          3. runs GreedyTeamFormer::FormWithView per member request,
//          4. fulfills the promises and records latency.
//
// Teams served through the full path are bit-identical to calling
// GreedyTeamFormer::Form directly with the same GreedyParams and
// per-request Rng(rng_seed) — batching changes only where the work
// happens, never the answer — so results are reproducible across worker
// counts, batch caps, and arrival orders.
//
// Overload control (ServerOptions::deadline): requests may carry an SLO
// budget (TeamRequest::deadline_us). Under ShedMode::kQueue the server
// keeps accepted-request latency inside that budget by shedding — typed
// DeadlineExceeded responses, never dropped promises — at three points:
// admission (infeasible deadlines, judged against the live queue-latency
// histogram), the scheduler (expired in queue), and the worker (expired
// by service time). A member whose remaining budget cannot fund the full
// view build degrades instead of missing its deadline:
//
//   shared dense view  →  cache-only view  →  reject
//        (exact)        (exact when every   (DeadlineExceeded)
//                        row the seed loop
//                        read was cached;
//                        degraded otherwise)
//
// The cache-only view reads rows through PeekRow on first touch and
// never computes one (TaskCompatView::BuildFromCachedRows); the worker
// reads its missed_rows() flag after FormWithView. Degraded responses
// carry TeamResponse::degraded = true and are the only ones that may
// differ from the exact answer; they are sound (every member pair
// confirmed by a real cached row) but excluded from replay digests.
//
// Each worker owns its own CompatibilityOracle over the one shared
// RowCache (the oracle's scalar row pinning is not thread-safe; the cache
// is), its own GreedyTeamFormer, and a private ServerMetrics block merged
// on demand by Metrics(). Latency is tracked per request with
// util/latency_histogram; cache hit rate comes from lock-free
// RowCache::StatsSnapshot deltas. The shared cache may be tiered
// (compressed rows, disk spill — see row_cache.h) and prewarmed before
// traffic with serve::PrewarmZipfHead; workers are oblivious either way
// (rows decode bit-identically), and the snapshot's tier counters
// (compressed_bytes, spill reads/writes, decode time) flow through
// Metrics() unchanged.

#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

#include "src/compat/compatibility.h"
#include "src/compat/skill_index.h"
#include "src/graph/signed_graph.h"
#include "src/serve/admission_queue.h"
#include "src/serve/batcher.h"
#include "src/serve/types.h"
#include "src/skills/skills.h"
#include "src/team/greedy.h"
#include "src/util/latency_histogram.h"
#include "src/util/status.h"

namespace tfsn::serve {

struct ServerOptions {
  /// Worker threads (>= 1). Each serves whole batches end to end.
  uint32_t workers = 1;
  /// Admission queue capacity (backpressure bound).
  size_t queue_capacity = 1024;
  /// Batching policy; max_batch = 1 is the one-task-per-view baseline.
  BatchPolicy batch;
  /// Deadline/overload policy (see types.h). Only requests that carry a
  /// deadline are ever affected, whatever the mode.
  DeadlinePolicy deadline;
  /// Greedy configuration every worker's former runs with. seed_threads
  /// is forced to 1, and views are built on one thread — the worker pool
  /// is the parallelism; nested threads would oversubscribe (results are
  /// identical either way).
  GreedyParams greedy;
};

/// Point-in-time roll-up across workers. Histograms record microseconds
/// and cover served responses (exact or degraded) — shed requests appear
/// in `shed`, not in the latency distributions.
struct ServerMetrics {
  uint64_t completed = 0;
  uint64_t batches = 0;
  /// Batches served through a shared union view / through the standalone
  /// fallback (union view over budget or graph too large for the dense
  /// representation).
  uint64_t shared_view_batches = 0;
  uint64_t fallback_batches = 0;
  /// Requests fulfilled with DeadlineExceeded (expired in queue or at the
  /// worker, or unfundable by any tier).
  uint64_t shed = 0;
  /// Requests served from a cache-only view that read a missing row
  /// (degraded=true).
  uint64_t degraded = 0;
  LatencyHistogram queue_us;
  LatencyHistogram service_us;
  LatencyHistogram total_us;
  /// batch_size_counts[b] = batches that grouped exactly b requests
  /// (index 0 unused).
  std::vector<uint64_t> batch_size_counts;
  /// Row-cache counters at snapshot time (monotonic; subtract two
  /// snapshots for a window).
  RowCache::StatsSnapshot cache;

  double MeanBatchSize() const {
    return batches == 0 ? 0.0
                        : static_cast<double>(completed) /
                              static_cast<double>(batches);
  }

  /// Adds `other`'s tallies, histograms and batch-size counts into this
  /// block (`cache` is a snapshot, not a tally, and is left as it is).
  void Merge(const ServerMetrics& other);
};

class TeamFormationServer {
 public:
  /// Workers start immediately. All referees must outlive the server;
  /// `index` is required when greedy.skill_policy == kLeastCompatible.
  /// `cache` must be non-null (it is the state batching amortizes).
  TeamFormationServer(const SignedGraph& graph, const SkillAssignment& skills,
                      const SkillCompatibilityIndex* index, CompatKind kind,
                      std::shared_ptr<RowCache> cache, ServerOptions options);
  ~TeamFormationServer();

  TeamFormationServer(const TeamFormationServer&) = delete;
  TeamFormationServer& operator=(const TeamFormationServer&) = delete;

  /// Admits a request, blocking while the queue is full (backpressure).
  /// On OK *response holds the future the worker fulfills. Fails with
  /// Unavailable after Shutdown(), or DeadlineExceeded when the request's
  /// deadline is infeasible against the live queue-latency estimate
  /// (ShedMode::kAdmission and up; the message carries a retry-after
  /// hint). On failure *response is untouched.
  Status Submit(TeamRequest request, std::future<TeamResponse>* response);

  /// Non-blocking admission: additionally fails with ResourceExhausted
  /// (plus a retry-after hint derived from the live queue-latency
  /// histogram) when the queue is full — the open-loop generator counts
  /// those as drops.
  Status TrySubmit(TeamRequest request, std::future<TeamResponse>* response);

  /// Stops admission, drains every queued request, and joins the workers.
  /// Every admitted promise is fulfilled — served normally during the
  /// drain, or with a typed Unavailable response if a worker died
  /// mid-fault — so no future ever blocks forever. Idempotent; also run
  /// by the destructor.
  void Shutdown();

  /// Merged per-worker metrics plus a row-cache counter snapshot. Callable
  /// at any time (workers flush under a per-worker mutex).
  ServerMetrics Metrics() const;

  const ServerOptions& options() const { return options_; }
  /// Requests admitted but not yet picked up by the scheduler.
  size_t queue_depth() const { return queue_.size(); }

 private:
  /// Per-worker state: oracle + former (not thread-safe, hence owned by
  /// the worker thread and unannotated) and the metrics block it updates
  /// under its own mutex — Metrics() reads it from arbitrary threads.
  struct Worker {
    std::unique_ptr<CompatibilityOracle> oracle;
    std::unique_ptr<GreedyTeamFormer> former;
    std::thread thread;
    mutable Mutex mu;
    ServerMetrics metrics TFSN_GUARDED_BY(mu);
  };

  void WorkerLoop(Worker* worker);
  /// Serves one deadline-pressed request through the degradation ladder's
  /// lower tiers (cache-only view → DeadlineExceeded).
  void ServeDegraded(Worker* worker, ScheduledRequest* sr,
                     uint32_t batch_size);
  /// The one deadline gate of the worker: true when `sr`'s deadline has
  /// not passed at `now` and the remaining budget covers `estimate_us`.
  bool Funds(const ScheduledRequest& sr,
             std::chrono::steady_clock::time_point now,
             uint64_t estimate_us) const;
  /// Counts a shed in the worker's metrics and fulfills `sr` with
  /// DeadlineExceeded(`why`).
  void Shed(Worker* worker, ScheduledRequest* sr, const char* why);
  /// Records a served response into the worker's metrics and the shared
  /// queue-latency histogram, then fulfills the promise.
  void FinishServed(Worker* worker, ScheduledRequest* sr, TeamResponse resp);

  /// Stamps admission metadata (timestamp, absolute deadline, EDF seq).
  ScheduledRequest MakeScheduled(TeamRequest request);
  /// DeadlineExceeded when the request cannot meet its deadline even if
  /// admitted now (ShedMode::kAdmission and up); OK otherwise.
  Status AdmitCheck(const TeamRequest& request) const;

  /// Live estimators (µs), each overridable via DeadlinePolicy for
  /// deterministic tests: median queue wait from the shared histogram,
  /// and EWMA view-build / per-request service costs from the workers.
  uint64_t QueueWaitEstimateUs() const TFSN_EXCLUDES(lat_mu_);
  uint64_t BuildEstimateUs() const;
  uint64_t ServiceEstimateUs() const;
  /// EWMA cost of a degraded-ladder serve; gates entry to the ladder so
  /// even the cheapest tier never knowingly answers past the deadline.
  uint64_t DegradedEstimateUs() const;
  uint64_t RetryAfterMs() const;

  const SkillAssignment& skills_;
  ServerOptions options_;
  std::shared_ptr<RowCache> cache_;
  AdmissionQueue<ScheduledRequest> queue_;
  BatchScheduler scheduler_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::once_flag shutdown_once_;

  /// Admission sequence for EDF tie-breaks (relaxed: a pure counter).
  std::atomic<uint64_t> seq_{0};
  /// Lock-free ordering contract: integer EWMAs (α = 1/8) of the shared
  /// view build cost and the per-request full-path service cost, in µs.
  /// Plain load/store with relaxed order — concurrent workers may lose an
  /// update, which only perturbs an estimate; no data is published
  /// through them.
  std::atomic<uint64_t> build_ewma_us_{0};
  std::atomic<uint64_t> service_ewma_us_{0};
  std::atomic<uint64_t> degraded_ewma_us_{0};
  /// Live queue-latency histogram feeding admission-control estimates and
  /// retry-after hints (served responses only).
  mutable Mutex lat_mu_;
  LatencyHistogram queue_hist_ TFSN_GUARDED_BY(lat_mu_);
};

}  // namespace tfsn::serve
