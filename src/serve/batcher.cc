#include "src/serve/batcher.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <span>
#include <utility>

#include "src/team/task_view.h"
#include "src/util/status.h"

namespace tfsn::serve {

double JaccardSorted(const std::vector<NodeId>& a,
                     const std::vector<NodeId>& b) {
  size_t inter = 0;
  size_t ia = 0, ib = 0;
  while (ia < a.size() && ib < b.size()) {
    if (a[ia] == b[ib]) {
      ++inter;
      ++ia;
      ++ib;
    } else if (a[ia] < b[ib]) {
      ++ia;
    } else {
      ++ib;
    }
  }
  const size_t uni = a.size() + b.size() - inter;
  return uni == 0 ? 1.0 : static_cast<double>(inter) / static_cast<double>(uni);
}

std::vector<NodeId> UnionSorted(const std::vector<NodeId>& a,
                                const std::vector<NodeId>& b) {
  std::vector<NodeId> out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

namespace {

std::vector<SkillId> UnionSkills(const std::vector<SkillId>& a,
                                 std::span<const SkillId> b) {
  std::vector<SkillId> out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

}  // namespace

BatchScheduler::BatchScheduler(const SkillAssignment& skills, bool sbph,
                               BatchPolicy policy, DeadlinePolicy deadline)
    : skills_(skills), sbph_(sbph), policy_(policy), deadline_(deadline) {}

BatchScheduler::Pending BatchScheduler::Prepared(ScheduledRequest item) const {
  Pending p;
  p.universe = HolderUniverse(skills_, item.request.task.skills());
  p.item = std::move(item);
  return p;
}

size_t BatchScheduler::pending() const {
  MutexLock lock(&mu_);
  return pending_.size();
}

void BatchScheduler::TakePending(std::vector<ScheduledRequest>* out) {
  MutexLock lock(&mu_);
  for (Pending& p : pending_) out->push_back(std::move(p.item));
  pending_.clear();
}

bool BatchScheduler::NextBatch(AdmissionQueue<ScheduledRequest>* queue,
                               RequestBatch* out) {
  // Requests whose deadline expired in the window. Collected under mu_,
  // fulfilled only after unlocking (set_value wakes waiting callers — no
  // reason to do that while holding the scheduler).
  std::vector<ScheduledRequest> expired;
  auto flush_expired = [this, &expired] {  // call with mu_ NOT held
    if (expired.empty()) return;
    shed_.fetch_add(expired.size(), std::memory_order_relaxed);
    for (ScheduledRequest& sr : expired) {
      FulfillError(&sr,
                   Status::DeadlineExceeded("deadline expired in queue"));
    }
    expired.clear();
  };

  MutexLock lock(&mu_);
  for (;;) {
    // Top up the grouping window with whatever is immediately available.
    // Footprints are computed with the scheduler unlocked — sorting
    // holder universes is the expensive part of admission, and other
    // workers can group pending work meanwhile. (Concurrent drains may
    // interleave each other's items, so the pending window is
    // arrival-ordered per drain, not globally; results never depend on
    // order — only which requests share a view build.)
    size_t room =
        pending_.size() < kScanWindow ? kScanWindow - pending_.size() : 0;
    if (room > 0) {
      lock.Unlock();
      std::vector<ScheduledRequest> drained;
      queue->DrainInto(&drained, room);
      std::vector<Pending> prepared;
      prepared.reserve(drained.size());
      for (ScheduledRequest& item : drained) {
        prepared.push_back(Prepared(std::move(item)));
      }
      lock.Lock();
      for (Pending& p : prepared) pending_.push_back(std::move(p));
    }
    // Shed anything already past its deadline: serving it would waste a
    // view-build slot on an answer the caller has given up on. The
    // promise is still fulfilled (typed DeadlineExceeded), never dropped.
    if (deadline_.shed >= ShedMode::kQueue) {
      const auto now = std::chrono::steady_clock::now();
      for (auto it = pending_.begin(); it != pending_.end();) {
        if (it->item.deadline <= now) {
          expired.push_back(std::move(it->item));
          it = pending_.erase(it);
        } else {
          ++it;
        }
      }
    }
    if (!pending_.empty()) break;
    // Nothing pending here: sleep until an arrival, shutdown, or a
    // sibling worker parks rejected requests in the pending window
    // (leftovers_ + Kick — the queue itself cannot signal that). The
    // flag is cleared while mu_ is held and pending_ is known empty, so
    // a sibling setting it afterwards is seen either by PopOr's first
    // predicate check or by its Kick.
    leftovers_.store(false, std::memory_order_release);
    lock.Unlock();
    flush_expired();
    ScheduledRequest item;
    const PopStatus status = queue->PopOr(&item, [this] {
      return leftovers_.load(std::memory_order_acquire);
    });
    if (status == PopStatus::kItem) {
      Pending p = Prepared(std::move(item));
      lock.Lock();
      pending_.push_back(std::move(p));
      continue;  // re-drain: more may have arrived with it
    }
    lock.Lock();
    if (status == PopStatus::kWakeup) continue;
    // Queue closed and drained. Serve what another worker left pending,
    // otherwise report shutdown.
    if (pending_.empty()) return false;
    break;
  }

  // Seed with the earliest-deadline pending request (EDF; the admission
  // sequence breaks ties, so deadline-free traffic — deadline == +inf —
  // keeps the oldest-first FIFO anchor), then greedily absorb later
  // arrivals with overlapping holder footprints.
  out->items.clear();
  auto seed_it = pending_.begin();
  for (auto it = std::next(pending_.begin()); it != pending_.end(); ++it) {
    if (it->item.deadline < seed_it->item.deadline ||
        (it->item.deadline == seed_it->item.deadline &&
         it->item.seq < seed_it->item.seq)) {
      seed_it = it;
    }
  }
  Pending seed = std::move(*seed_it);
  pending_.erase(seed_it);
  std::vector<SkillId> union_skills(seed.item.request.task.skills().begin(),
                                    seed.item.request.task.skills().end());
  std::vector<NodeId> universe = std::move(seed.universe);
  out->items.push_back(std::move(seed.item));

  auto it = pending_.begin();
  while (it != pending_.end() && out->items.size() < policy_.max_batch) {
    // Subsets always join: they add nothing to the union universe (their
    // Jaccard against a much larger union can be tiny, and the byte check
    // is moot — only their skills join the union task, for holder-mask
    // lookup, at a few words each).
    const bool subset =
        std::includes(universe.begin(), universe.end(), it->universe.begin(),
                      it->universe.end());
    if (!subset) {
      if (JaccardSorted(it->universe, universe) < policy_.min_jaccard) {
        ++it;
        continue;
      }
      std::vector<NodeId> merged = UnionSorted(universe, it->universe);
      std::vector<SkillId> merged_skills =
          UnionSkills(union_skills, it->item.request.task.skills());
      if (TaskCompatView::EstimateBytes(merged.size(), merged_skills.size(),
                                        sbph_) > policy_.max_view_bytes) {
        ++it;
        continue;
      }
      universe = std::move(merged);
      union_skills = std::move(merged_skills);
    } else {
      union_skills =
          UnionSkills(union_skills, it->item.request.task.skills());
    }
    out->items.push_back(std::move(it->item));
    it = pending_.erase(it);
  }

  out->union_task = Task(std::move(union_skills));
  out->universe = std::move(universe);
  // Members serve earliest-deadline-first within the batch (seq ties
  // keep FIFO), so the most urgent request pays the least service wait.
  std::sort(out->items.begin(), out->items.end(),
            [](const ScheduledRequest& a, const ScheduledRequest& b) {
              if (a.deadline != b.deadline) return a.deadline < b.deadline;
              return a.seq < b.seq;
            });
  // Anything this pass rejected stays pending; wake a sleeping sibling
  // to pick it up rather than letting it wait out our batch.
  if (!pending_.empty()) {
    leftovers_.store(true, std::memory_order_release);
    queue->Kick();
  }
  lock.Unlock();
  flush_expired();
  return true;
}

}  // namespace tfsn::serve
