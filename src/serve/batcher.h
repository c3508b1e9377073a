// Skill-footprint batching scheduler.
//
// The expensive part of serving one team-formation request is per-task
// shared state: the row-cache prewarm of the task's holder universe and
// the dense TaskCompatView the greedy seed loop runs against. Requests
// whose holder universes overlap can share both — one view built for the
// *union* of their tasks serves every member bit-identically (see
// GreedyTeamFormer::FormWithView) — so the scheduler's job is to group
// queued requests by footprint overlap without letting the union view
// outgrow its byte budget.
//
// Grouping is greedy and deadline-anchored: the pending request with the
// earliest deadline seeds the batch (earliest-deadline-first; admission
// sequence breaks ties, so deadline-free traffic — whose deadline is
// +infinity — keeps the FIFO anchor that bounds starvation: every request
// is served no later than kScanWindow (64) batch decisions after reaching
// the pending window), then later arrivals join while
//   * the Jaccard similarity |A ∩ U| / |A ∪ U| between their holder
//     universe A and the batch's accumulated union U stays above
//     min_jaccard (duplicates and subsets always pass),
//   * the union view's estimated bytes stay under max_view_bytes
//     (subsets skip this check too — they cannot grow the dense
//     matrices, only add holder-mask rows), and
//   * the batch stays under max_batch requests.
// A rejected request simply stays pending and seeds or joins a later
// batch; admission order among pending requests is preserved per drain
// (concurrent workers draining simultaneously may interleave, so the
// window is only approximately FIFO across workers — results never
// depend on it). Batch members are handed to the worker sorted
// earliest-deadline-first.
//
// Overload shedding (DeadlinePolicy::shed == ShedMode::kQueue): each
// NextBatch pass sheds pending requests whose deadline already expired —
// their promises are fulfilled with a DeadlineExceeded response (never
// dropped) and counted in shed_count(). This is what makes the PR 5
// pathology (seconds of queueing) impossible with a deadline set: an
// expired request costs one promise fulfillment, not a view build.
//
// NextBatch is safe to call from all workers concurrently; one mutex
// serializes the grouping decision (microseconds against the milliseconds
// a batch takes to serve — footprint sorting happens outside it).

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "src/graph/signed_graph.h"
#include "src/serve/admission_queue.h"
#include "src/serve/types.h"
#include "src/skills/skills.h"
#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace tfsn::serve {

/// Grouping knobs. max_batch = 1 degenerates to one-task-per-view — the
/// unbatched baseline, run as `tfsn_cli serve --batch-cap=1`.
struct BatchPolicy {
  /// Requests per batch (>= 1).
  uint32_t max_batch = 16;
  /// Minimum holder-universe Jaccard similarity against the batch union
  /// for a request to join. 0 admits everything that fits the byte cap.
  double min_jaccard = 0.05;
  /// Cap on the estimated union-view footprint
  /// (TaskCompatView::EstimateBytes).
  size_t max_view_bytes = 64ull << 20;
};

/// One scheduled group plus the precomputed union footprint the worker
/// builds the shared view from.
struct RequestBatch {
  std::vector<ScheduledRequest> items;
  /// Union of the member tasks' skills.
  Task union_task;
  /// Sorted, deduplicated union of the members' holder universes ==
  /// the holder universe of union_task.
  std::vector<NodeId> universe;
};

class BatchScheduler {
 public:
  /// `skills` must outlive the scheduler. `sbph` selects the doubled
  /// bit-matrix term in the view byte estimate. `deadline` governs
  /// in-queue expiry shedding (only ShedMode::kQueue sheds here).
  BatchScheduler(const SkillAssignment& skills, bool sbph, BatchPolicy policy,
                 DeadlinePolicy deadline = {});

  /// Forms the next batch from `queue`, blocking while neither pending
  /// requests nor queued ones exist. Returns false when the queue is
  /// closed and everything (queue and pending window) is drained.
  bool NextBatch(AdmissionQueue<ScheduledRequest>* queue, RequestBatch* out)
      TFSN_EXCLUDES(mu_);

  /// Requests currently parked in the grouping window.
  size_t pending() const TFSN_EXCLUDES(mu_);

  /// Moves every request still parked in the grouping window into *out
  /// (appending). Shutdown safety net: after the workers exit, the server
  /// fulfills these with a typed Unavailable response so no admitted
  /// promise is ever abandoned — even if a worker died mid-fault with
  /// requests parked here.
  void TakePending(std::vector<ScheduledRequest>* out) TFSN_EXCLUDES(mu_);

  /// Requests shed in queue (deadline expired before service) so far.
  uint64_t shed_count() const {
    return shed_.load(std::memory_order_relaxed);
  }

  const BatchPolicy& policy() const { return policy_; }

 private:
  /// How many queued requests the scheduler holds pending for grouping.
  static constexpr size_t kScanWindow = 64;

  /// A pending request with its precomputed footprint.
  struct Pending {
    ScheduledRequest item;
    std::vector<NodeId> universe;  // sorted holder union of item's task
  };

  /// Computes the footprint of `item` (called with mu_ NOT held — the
  /// sort is the expensive part of admission).
  Pending Prepared(ScheduledRequest item) const;

  const SkillAssignment& skills_;
  const bool sbph_;
  const BatchPolicy policy_;
  const DeadlinePolicy deadline_;
  /// Monotonic tally of in-queue expiry sheds (relaxed: a plain event
  /// counter, no data published through it).
  std::atomic<uint64_t> shed_{0};
  mutable Mutex mu_;
  std::deque<Pending> pending_ TFSN_GUARDED_BY(mu_);
  /// True while requests sit in pending_ — the PopOr wakeup predicate of
  /// workers blocked on an empty queue, so a sibling's rejected leftovers
  /// get picked up immediately instead of waiting out a poll interval.
  /// Lock-free ordering contract: release store / acquire load so a
  /// waiter woken by Kick() observes the pending_ state the setter
  /// published under mu_ before setting the flag (the waiter still
  /// re-checks pending_ under mu_ after waking — the flag is purely a
  /// wakeup hint, never the source of truth).
  std::atomic<bool> leftovers_{false};
};

/// |a ∩ b| / |a ∪ b| over two sorted, deduplicated id vectors (1 when both
/// are empty). Exposed for tests.
double JaccardSorted(const std::vector<NodeId>& a, const std::vector<NodeId>& b);

/// Sorted union of two sorted, deduplicated vectors.
std::vector<NodeId> UnionSorted(const std::vector<NodeId>& a,
                                const std::vector<NodeId>& b);

}  // namespace tfsn::serve
