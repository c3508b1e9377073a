// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded only by the benchmark's own code, around its calls
// into the library's public API: each span has a name, a start and end on
// the steady clock, the index of the span that caused it (-1 for a root),
// the task or request id it belongs to, and the row-cache counter deltas
// taken across it. Nothing is written until the run ends.
//
// A layer's self time is its span's duration minus the part covered by
// its child spans. The coverage check compares, for every root span (a
// task or a batch), the time its children cover against its wall time:
// a large uncovered share means some layer's work is not being measured.
// Recording is kept out of the measured intervals: a span's start is
// stamped after its record is stored, its end before anything else.

#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <string>

#include "src/compat/row_cache.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

class Tracer {
 public:
  struct Span {
    const char* name;  // a string literal
    Clock::time_point start;
    Clock::time_point end;
    int32_t parent = -1;
    uint64_t id = 0;
    /// Row-cache counter deltas across the span (zero when no cache was
    /// given).
    tfsn::RowCache::StatsSnapshot cache;
  };

  /// Starts a span now and returns its index.
  int32_t Open(const char* name, int32_t parent, uint64_t id);
  /// Ends span `span` now.
  void Close(int32_t span) { spans_[span].end = Clock::now(); }

  /// Records a span whose times were taken by the caller.
  int32_t Add(const char* name, int32_t parent, uint64_t id,
              Clock::time_point start, Clock::time_point end);

  /// Runs `fn` inside a span named `name`, taking `cache`'s counter deltas
  /// (cache may be null). Returns the span's index.
  template <typename Fn>
  int32_t Run(const char* name, int32_t parent, uint64_t id,
              tfsn::RowCache* cache, Fn&& fn) {
    const tfsn::RowCache::StatsSnapshot before =
        cache != nullptr ? cache->SnapshotCounters()
                         : tfsn::RowCache::StatsSnapshot{};
    const int32_t span = Open(name, parent, id);
    fn();
    Close(span);
    if (cache != nullptr) {
      spans_[span].cache = cache->SnapshotCounters() - before;
    }
    return span;
  }

  const std::deque<Span>& spans() const { return spans_; }

  /// Total self time per span name, in milliseconds.
  std::map<std::string, double> SelfMs() const;

  /// Number of spans with `name`.
  size_t Count(const std::string& name) const;

  /// Checks that the children of each root span cover at least
  /// `min_share` of its wall time. Preemption or a page fault can open a
  /// gap in a single short root, so the check fails when the children cover
  /// less than `min_share` of all roots' wall time together, or when more
  /// than 5% of the roots fall short one by one. Returns "" on success, or a
  /// description naming the largest unmeasured gap.
  std::string CheckCoverage(double min_share) const;

  /// Smallest covered share over the roots, and the covered share of all
  /// roots together (1 when there are no roots).
  double MinCoverage() const;
  double TotalCoverage() const;

  /// Writes the spans as Chrome trace-event JSON (viewable in Perfetto).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  std::deque<Span> spans_;  // a deque: growing it never copies old spans
};

}  // namespace perfbench
