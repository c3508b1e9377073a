// Request/response types of the team-formation serving layer.
//
// A TeamRequest is one "form a team for these skills" query as it travels
// from admission through the batching scheduler to a worker; the
// TeamResponse carries the formed team back together with the request's
// latency breakdown and how much batching it benefited from.
//
// Determinism contract: a response's team depends only on (task, rng_seed)
// and the server's greedy configuration — never on arrival order, batch
// composition, worker count, or queue depth (see
// GreedyTeamFormer::FormWithView). Replaying a request stream with the
// same seeds therefore reproduces every team bit for bit. Responses
// flagged `degraded` are the one exception: they were served from a
// cache-only view that read a row missing from the cache, under deadline
// pressure (see server.h), and are excluded from replay digests.
//
// Deadline semantics: deadline_us is a relative SLO budget measured from
// admission. What the server does with it is governed by ShedMode — from
// purely advisory (kOff) to full overload control (kQueue): typed
// rejection at the front door, expiry shedding in queue, and tier
// degradation at the worker. A request that misses its deadline is never
// silently dropped: its promise is fulfilled with a response whose
// `status` is DeadlineExceeded (or Unavailable at shutdown).

#pragma once

#include <chrono>
#include <cstdint>
#include <future>
#include <utility>

#include "src/skills/skills.h"
#include "src/team/greedy.h"
#include "src/util/status.h"

namespace tfsn::serve {

/// How aggressively the server enforces request deadlines. Levels are
/// cumulative: each adds enforcement on top of the previous one.
enum class ShedMode : uint8_t {
  /// Deadlines are recorded but never enforced: nothing is rejected,
  /// shed, or degraded (requests may finish exact-but-late).
  kOff = 0,
  /// Reject deadline-infeasible requests at admission (typed Status with
  /// a retry-after hint); everything admitted is served exactly.
  kAdmission = 1,
  /// Additionally shed requests whose deadline expired in queue and let
  /// workers degrade to cheaper serving tiers when the remaining budget
  /// cannot fund the full dense-view path.
  kQueue = 2,
};

/// Deadline/overload policy of a server (ServerOptions::deadline).
struct DeadlinePolicy {
  ShedMode shed = ShedMode::kQueue;
  /// Test overrides for the live estimators (0 = use the measured
  /// values): assumed queue wait, shared-view build cost, and per-request
  /// service cost, in µs. With these set, admission and degradation
  /// decisions are fully deterministic.
  uint64_t assume_queue_us = 0;
  uint64_t assume_build_us = 0;
  uint64_t assume_service_us = 0;
};

struct TeamRequest {
  /// Caller-assigned identifier, echoed in the response.
  uint64_t id = 0;
  /// The skills the team must cover.
  Task task;
  /// Seeds the per-request Rng handed to the greedy former (drives seed
  /// sampling and the RANDOM user policy).
  uint64_t rng_seed = 0;
  /// SLO budget in µs, measured from admission. 0 = no deadline.
  uint64_t deadline_us = 0;
};

struct TeamResponse {
  uint64_t id = 0;
  /// OK for a served team (degraded or not); DeadlineExceeded when the
  /// request was shed (result is empty); Unavailable when the server shut
  /// down before serving it.
  Status status;
  TeamResult result;
  /// True when the team came from a cache-only view that read a row
  /// missing from the cache: valid — every member pair was confirmed
  /// compatible — but not necessarily the team the exact path would have
  /// formed. Exact responses (the full path, or a cache-only view whose
  /// every read row was cached) never set this.
  bool degraded = false;
  /// Requests that shared this request's batch (1 = served alone).
  uint32_t batch_size = 0;
  /// True when the batch's shared dense view served this request; false
  /// when the build fell back and the former ran standalone.
  bool used_shared_view = false;
  /// Time from admission to the start of this request's formation, µs.
  uint64_t queue_us = 0;
  /// This request's own formation time, µs (the shared view build is not
  /// attributed to individual requests).
  uint64_t service_us = 0;
  /// Admission-to-completion time, µs.
  uint64_t total_us = 0;
};

/// A request as it sits in the admission queue: the payload plus the
/// promise the worker fulfills and the admission timestamp the latency
/// accounting starts from. Move-only (the promise).
struct ScheduledRequest {
  TeamRequest request;
  std::promise<TeamResponse> promise;
  std::chrono::steady_clock::time_point admitted;
  /// Absolute deadline (admitted + deadline_us); time_point::max() when
  /// the request carries none — infinitely patient under EDF ordering.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
  /// Admission sequence number: the EDF tie-break, so requests with equal
  /// deadlines (in particular, all deadline-free requests) serve FIFO.
  uint64_t seq = 0;
};

/// Fulfills `sr`'s promise with an empty, non-OK response (shed or
/// shutdown) whose latency fields span admission to now. Never throws:
/// every admitted promise is fulfilled exactly once by exactly one owner.
inline void FulfillError(ScheduledRequest* sr, Status status) {
  TeamResponse resp;
  resp.id = sr->request.id;
  resp.status = std::move(status);
  const auto now = std::chrono::steady_clock::now();
  const auto waited =
      std::chrono::duration_cast<std::chrono::microseconds>(now - sr->admitted)
          .count();
  resp.queue_us = waited < 0 ? 0 : static_cast<uint64_t>(waited);
  resp.total_us = resp.queue_us;
  sr->promise.set_value(std::move(resp));
}

}  // namespace tfsn::serve
