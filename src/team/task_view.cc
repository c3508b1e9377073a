#include "src/team/task_view.h"

#include <algorithm>
#include <bit>

#include "src/util/fault_injection.h"
#include "src/util/logging.h"

namespace tfsn {

void AppendSetBits(std::span<const uint64_t> mask, std::vector<uint32_t>* out) {
  for (size_t w = 0; w < mask.size(); ++w) {
    uint64_t bits = mask[w];
    while (bits != 0) {
      const int b = std::countr_zero(bits);
      out->push_back(static_cast<uint32_t>(w * 64 + b));
      bits &= bits - 1;
    }
  }
}

uint64_t CountSetBits(std::span<const uint64_t> mask) {
  uint64_t count = 0;
  for (uint64_t w : mask) count += static_cast<uint64_t>(std::popcount(w));
  return count;
}

std::vector<NodeId> HolderUniverse(const SkillAssignment& skills,
                                   std::span<const SkillId> task_skills) {
  std::vector<NodeId> universe;
  for (SkillId s : task_skills) {
    auto holders = skills.Holders(s);
    universe.insert(universe.end(), holders.begin(), holders.end());
  }
  std::sort(universe.begin(), universe.end());
  universe.erase(std::unique(universe.begin(), universe.end()),
                 universe.end());
  return universe;
}

uint32_t TaskCompatView::LocalOf(NodeId global) const {
  auto it = std::lower_bound(universe_.begin(), universe_.end(), global);
  if (it == universe_.end() || *it != global) return kNoLocalId;
  return static_cast<uint32_t>(it - universe_.begin());
}

size_t TaskCompatView::TaskSkillPos(SkillId skill) const {
  auto skills = task_.skills();
  auto it = std::lower_bound(skills.begin(), skills.end(), skill);
  TFSN_CHECK(it != skills.end() && *it == skill);
  return static_cast<size_t>(it - skills.begin());
}

size_t TaskCompatView::EstimateBytes(size_t m, size_t num_task_skills,
                                     bool sbph) {
  const size_t words = (m + 63) / 64;
  return m * sizeof(NodeId) + m * words * sizeof(uint64_t) * (sbph ? 2 : 1) +
         m * m * sizeof(uint16_t) + num_task_skills * words * sizeof(uint64_t) +
         num_task_skills * sizeof(uint32_t);
}

size_t TaskCompatView::bytes() const {
  return universe_.capacity() * sizeof(NodeId) +
         (static_cast<size_t>(m_) * words_ + pair_bits_.capacity() +
          holder_bits_.capacity()) *
             sizeof(uint64_t) +
         static_cast<size_t>(m_) * m_ * sizeof(uint16_t) +
         static_cast<size_t>(m_) * 2 * sizeof(std::atomic<uint8_t>) +
         holder_counts_.capacity() * sizeof(uint32_t);
}

void TaskCompatView::GatherCompBits(const CompatibilityOracle::Row* row,
                                    uint32_t local) const {
  uint64_t* bits = dir_bits_.get() + static_cast<size_t>(local) * words_;
  if (row == nullptr) {
    std::fill(bits, bits + words_, uint64_t{0});
    return;
  }
  const uint8_t* comp_src = row->comp.data();
  const NodeId* uni = universe_.data();
  const size_t m = m_;
  for (size_t w = 0; w < words_; ++w) {
    const size_t j_end = std::min(m, (w + 1) * 64);
    uint64_t word = 0;
    for (size_t j = w * 64; j < j_end; ++j) {
      word |= static_cast<uint64_t>(comp_src[uni[j]] != 0) << (j & 63);
    }
    bits[w] = word;
  }
}

void TaskCompatView::GatherDistances(const CompatibilityOracle::Row* row,
                                     uint32_t local) const {
  uint16_t* dist = dist_.get() + static_cast<size_t>(local) * m_;
  if (row == nullptr) {
    std::fill(dist, dist + m_, kDenseUnreachable);
    return;
  }
  const uint32_t* dist_src = row->dist.data();
  const NodeId* uni = universe_.data();
  for (size_t j = 0; j < m_; ++j) {
    // kUnreachable saturates to the sentinel; finite distances fit by the
    // node-count gate in Fits().
    dist[j] = static_cast<uint16_t>(
        std::min<uint32_t>(dist_src[uni[j]], kDenseUnreachable));
  }
}

void TaskCompatView::Materialize(uint32_t local, bool dist) const {
  MutexLock lock(&row_locks_[local % kLockStripes]);
  // The cache-only tier fills both halves from one peek, since a second
  // peek would decode the row again. The full tier fills only the half
  // asked for: kMostCompatible reads many candidates' comp bits but never
  // their distances.
  const bool fill_dir = (!dist || cache_only_) &&
                        !dir_ready_[local].load(std::memory_order_relaxed);
  const bool fill_dist = (dist || cache_only_) &&
                         !dist_ready_[local].load(std::memory_order_relaxed);
  if (!fill_dir && !fill_dist) return;
  // On the full tier almost always a cache hit: the build prewarmed the
  // universe. An evicted row is recomputed by the kernel — pricier, but
  // the values are identical.
  const NodeId q = universe_[local];
  const std::shared_ptr<const CompatibilityOracle::Row> row =
      cache_only_ ? oracle_->PeekRow(q) : oracle_->GetRowShared(q);
  if (row == nullptr) missed_rows_.store(true, std::memory_order_relaxed);
  if (fill_dir) {
    GatherCompBits(row.get(), local);
    dir_ready_[local].store(1, std::memory_order_release);
  }
  if (fill_dist) {
    GatherDistances(row.get(), local);
    dist_ready_[local].store(1, std::memory_order_release);
  }
}

bool TaskCompatView::Fits(const CompatibilityOracle& oracle, size_t m,
                          size_t num_task_skills, size_t max_bytes) {
  // Finite relation distances are path lengths over at most (node, side)
  // states, hence < 2 * num_nodes; this gate guarantees they all fit
  // under the uint16 sentinel so no per-cell overflow checks are needed.
  if (oracle.graph().num_nodes() >= kDenseUnreachable / 2) return false;
  return EstimateBytes(m, num_task_skills,
                       oracle.kind() == CompatKind::kSBPH) <= max_bytes;
}

std::unique_ptr<TaskCompatView> TaskCompatView::Allocate(
    CompatibilityOracle* oracle, const Task& task,
    std::vector<NodeId> universe) {
  const size_t m = universe.size();
  const size_t words = (m + 63) / 64;
  std::unique_ptr<TaskCompatView> view(new TaskCompatView());
  view->oracle_ = oracle;
  view->task_ = task;
  view->kind_ = oracle->kind();
  view->m_ = static_cast<uint32_t>(m);
  view->words_ = words;
  view->universe_ = std::move(universe);
  // Dense rows are deliberately left uninitialized (no m^2 zeroing): each
  // row is filled before its ready flag is set.
  view->dir_bits_.reset(new uint64_t[m * words]);
  view->dist_.reset(new uint16_t[m * m]);
  view->dir_ready_.reset(new std::atomic<uint8_t>[m]);
  view->dist_ready_.reset(new std::atomic<uint8_t>[m]);
  return view;
}

void TaskCompatView::Finish(const SkillAssignment& skills) {
  if (kind_ == CompatKind::kSBPH) {
    // Symmetric closure dir | dir^T over the filled directional bits, so
    // the seed loop's AND-folds stay plain word operations.
    const uint64_t* dir = dir_bits_.get();
    pair_bits_.assign(dir, dir + static_cast<size_t>(m_) * words_);
    for (size_t i = 0; i < m_; ++i) {
      const uint64_t* row_i = dir + i * words_;
      for (size_t j = i + 1; j < m_; ++j) {
        if ((row_i[j >> 6] >> (j & 63)) & 1u) {
          pair_bits_[j * words_ + (i >> 6)] |= uint64_t{1} << (i & 63);
        }
        if ((dir[j * words_ + (i >> 6)] >> (i & 63)) & 1u) {
          pair_bits_[i * words_ + (j >> 6)] |= uint64_t{1} << (j & 63);
        }
      }
    }
  }
  auto task_skills = task_.skills();
  holder_bits_.assign(task_skills.size() * words_, 0);
  holder_counts_.assign(task_skills.size(), 0);
  for (size_t p = 0; p < task_skills.size(); ++p) {
    uint64_t* mask = holder_bits_.data() + p * words_;
    auto holders = skills.Holders(task_skills[p]);
    for (NodeId h : holders) {
      const uint32_t local = LocalOf(h);
      TFSN_CHECK(local != kNoLocalId);
      mask[local >> 6] |= uint64_t{1} << (local & 63);
    }
    holder_counts_[p] = static_cast<uint32_t>(holders.size());
  }
}

std::unique_ptr<TaskCompatView> TaskCompatView::BuildWith(
    CompatibilityOracle* oracle, const SkillAssignment& skills,
    const Task& task, std::vector<NodeId> universe, uint32_t threads,
    size_t max_bytes, bool cache_only) {
  TFSN_CHECK(oracle != nullptr);
  if (!Fits(*oracle, universe.size(), task.skills().size(), max_bytes)) {
    return nullptr;
  }
  // Injected allocation/build failure: callers already treat nullptr as
  // "use the oracle directly" (or, on the cache-only tier, "no cheaper
  // tier"), so answers never change.
  if (TFSN_FAULT_POINT("task_view.build_fail")) return nullptr;

  std::unique_ptr<TaskCompatView> view =
      Allocate(oracle, task, std::move(universe));
  view->cache_only_ = cache_only;
  const bool sbph = view->kind_ == CompatKind::kSBPH;
  for (size_t i = 0; i < view->m_; ++i) {
    view->dir_ready_[i].store(0, std::memory_order_relaxed);
    view->dist_ready_[i].store(0, std::memory_order_relaxed);
  }
  // SBPH pair semantics are the symmetric closure of the direction-
  // dependent heuristic rows (see CompatibilityOracle::Compatible), which
  // needs the transpose — so every dir row is filled here, through the
  // view's row source, for Finish() to close.
  if (!cache_only) {
    // Batched cache prewarm: each chunk's misses are computed in parallel
    // — 64-way bit-parallel where the relation allows — and published to
    // the shared row cache, then the chunk's pins are dropped before the
    // next so peak memory stays at one batch of full-length rows. Other
    // relations' dense rows materialize on first touch from these rows.
    oracle->StreamRows(view->universe_, threads,
                       [&](size_t i, const CompatibilityOracle::Row& row) {
                         if (!sbph) return;
                         view->GatherCompBits(&row, static_cast<uint32_t>(i));
                         view->dir_ready_[i].store(1,
                                                   std::memory_order_relaxed);
                       });
  } else if (sbph) {
    for (uint32_t i = 0; i < view->m_; ++i) {
      view->Materialize(i, /*dist=*/false);
    }
  }
  view->Finish(skills);
  return view;
}

std::unique_ptr<TaskCompatView> TaskCompatView::Build(
    CompatibilityOracle* oracle, const SkillAssignment& skills,
    const Task& task, uint32_t threads, size_t max_bytes) {
  return BuildWith(oracle, skills, task, HolderUniverse(skills, task.skills()),
                   threads, max_bytes, /*cache_only=*/false);
}

std::unique_ptr<TaskCompatView> TaskCompatView::BuildFromUniverse(
    CompatibilityOracle* oracle, const SkillAssignment& skills,
    const Task& task, std::vector<NodeId> universe, uint32_t threads,
    size_t max_bytes) {
  return BuildWith(oracle, skills, task, std::move(universe), threads,
                   max_bytes, /*cache_only=*/false);
}

std::unique_ptr<TaskCompatView> TaskCompatView::BuildFromCachedRows(
    CompatibilityOracle* oracle, const SkillAssignment& skills,
    const Task& task, std::vector<NodeId> universe, size_t max_bytes) {
  return BuildWith(oracle, skills, task, std::move(universe), /*threads=*/1,
                   max_bytes, /*cache_only=*/true);
}

}  // namespace tfsn
