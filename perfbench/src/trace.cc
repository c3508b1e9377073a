#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <vector>

namespace perfbench {
namespace {

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

}  // namespace

int32_t Tracer::Open(const char* name, int32_t parent, uint64_t id) {
  spans_.push_back(Span{name, {}, {}, parent, id, {}});
  spans_.back().start = Clock::now();
  return static_cast<int32_t>(spans_.size() - 1);
}

int32_t Tracer::Add(const char* name, int32_t parent, uint64_t id,
                    Clock::time_point start, Clock::time_point end) {
  spans_.push_back(Span{name, start, end, parent, id, {}});
  return static_cast<int32_t>(spans_.size() - 1);
}

std::map<std::string, double> Tracer::SelfMs() const {
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ms[s.parent] += Ms(s.end - s.start);
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[spans_[i].name] += Ms(spans_[i].end - spans_[i].start) - child_ms[i];
  }
  return self;
}

size_t Tracer::Count(const std::string& name) const {
  return static_cast<size_t>(
      std::count_if(spans_.begin(), spans_.end(),
                    [&name](const Span& s) { return name == s.name; }));
}

namespace {

struct RootCoverage {
  size_t root = 0;
  double wall_ms = 0;
  double covered_ms = 0;
};

std::vector<RootCoverage> Coverages(const std::deque<Tracer::Span>& spans) {
  std::vector<RootCoverage> out;
  std::vector<int64_t> slot(spans.size(), -1);
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) continue;
    slot[i] = static_cast<int64_t>(out.size());
    out.push_back({i, Ms(spans[i].end - spans[i].start), 0.0});
  }
  for (const Tracer::Span& s : spans) {
    if (s.parent >= 0 && slot[s.parent] >= 0) {
      out[slot[s.parent]].covered_ms += Ms(s.end - s.start);
    }
  }
  return out;
}

double Share(const RootCoverage& c) {
  return c.wall_ms > 0 ? c.covered_ms / c.wall_ms : 1.0;
}

}  // namespace

double Tracer::MinCoverage() const {
  double lowest = 1.0;
  for (const RootCoverage& c : Coverages(spans_)) {
    lowest = std::min(lowest, Share(c));
  }
  return lowest;
}

double Tracer::TotalCoverage() const {
  double wall = 0, covered = 0;
  for (const RootCoverage& c : Coverages(spans_)) {
    wall += c.wall_ms;
    covered += c.covered_ms;
  }
  return wall > 0 ? covered / wall : 1.0;
}

std::string Tracer::CheckCoverage(double min_share) const {
  const std::vector<RootCoverage> roots = Coverages(spans_);
  size_t short_roots = 0;
  const RootCoverage* worst = nullptr;
  for (const RootCoverage& c : roots) {
    if (Share(c) < min_share) ++short_roots;
    if (worst == nullptr || c.wall_ms - c.covered_ms >
                                worst->wall_ms - worst->covered_ms) {
      worst = &c;
    }
  }
  const bool total_ok = TotalCoverage() >= min_share;
  const bool roots_ok = short_roots * 20 <= roots.size();
  if (worst == nullptr || (total_ok && roots_ok)) return "";

  // Name the largest gap inside the worst root: before its first child,
  // between two children, or after its last one.
  const Span& root = spans_[worst->root];
  std::vector<const Span*> children;
  for (const Span& s : spans_) {
    if (s.parent == static_cast<int32_t>(worst->root)) children.push_back(&s);
  }
  std::sort(children.begin(), children.end(),
            [](const Span* a, const Span* b) { return a->start < b->start; });
  std::string where = std::string("start of ") + root.name;
  Clock::time_point cursor = root.start;
  double gap_ms = 0;
  std::string prev = std::string("start of ") + root.name;
  for (const Span* c : children) {
    if (Ms(c->start - cursor) > gap_ms) {
      gap_ms = Ms(c->start - cursor);
      where = prev + " -> " + c->name;
    }
    cursor = std::max(cursor, c->end);
    prev = c->name;
  }
  if (Ms(root.end - cursor) > gap_ms) {
    gap_ms = Ms(root.end - cursor);
    where = prev + " -> end of " + std::string(root.name);
  }
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "stage spans cover %.1f%% of the traced wall time (%zu of %zu "
                "roots below %.0f%%); largest unmeasured gap %.3f ms in %s %llu "
                "between %s",
                TotalCoverage() * 100.0, short_roots, roots.size(),
                min_share * 100.0, gap_ms, root.name,
                static_cast<unsigned long long>(root.id), where.c_str());
  return buf;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const Clock::time_point origin =
      spans_.empty() ? Clock::time_point{} : spans_.front().start;
  std::fprintf(f, "{\"traceEvents\": [");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(
        f,
        "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
        "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"span\": %zu, \"parent\": "
        "%d, \"id\": %llu, \"cache_hits\": %llu, \"cache_misses\": %llu, "
        "\"decodes\": %llu, \"spill_reads\": %llu}}",
        i == 0 ? "" : ",", s.name, Ms(s.start - origin) * 1e3,
        Ms(s.end - s.start) * 1e3, i, s.parent,
        static_cast<unsigned long long>(s.id),
        static_cast<unsigned long long>(s.cache.hits),
        static_cast<unsigned long long>(s.cache.misses),
        static_cast<unsigned long long>(s.cache.decodes),
        static_cast<unsigned long long>(s.cache.spill_reads));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
