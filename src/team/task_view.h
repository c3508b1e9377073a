// Task-local dense compatibility view.
//
// The greedy team former (Algorithm 2) only ever queries compatibility
// between holders of the task's skills — a working set of m ≪ n users. The
// oracle answers each of those queries with a striped-mutex hash lookup
// plus an n-length row dereference, which dominates the O(seeds × |team| ×
// |holders|) inner loop. TaskCompatView remaps the working set to dense
// local ids and materializes, once per task from batched oracle rows:
//
//   * an m×m bit-packed compatibility matrix (directional raw-row bits,
//     plus the symmetric closure for SBPH pair semantics),
//   * an m×m uint16 distance matrix (kUnreachable -> kDenseUnreachable),
//   * one m-bit holder mask per task skill.
//
// Build() batch-prewarms the row cache (so misses are computed in
// parallel, 64-way bit-parallel where the relation allows); the dense
// rows themselves materialize lazily on first touch, because the greedy
// MinDistance loop only ever folds the rows of *team members* — a small
// subset of the universe — so most rows are never gathered. (SBPH comp
// bits are filled eagerly: its pair semantics need the transpose.)
//
// BuildFromCachedRows (the serving layer's cache-only tier) builds the
// same view over a peek-only row source, CompatibilityOracle::PeekRow: it
// never computes a row or reads the spill tier, and decodes each touched
// row once. A row that is not cached is filled pessimistically (no comp
// bits, every distance unreachable: it admits nobody and reaches nobody,
// so teams stay sound) and sets missed_rows(); while that is clear, every
// row read was real, so answers equal the full view's.
//
// "Compatible with the whole team" then becomes an AND-fold of 64-bit
// words over team rows, and MinDistance scoring becomes dense uint16
// loads — no oracle round-trips inside the seed loop. Pair semantics
// (reflexivity, the SBPH symmetric closure, distance mins) replicate
// CompatibilityOracle exactly, so every consumer is bit-identical to the
// oracle path.
//
// Build() returns nullptr — and callers fall back to the oracle — when the
// view would exceed its byte budget or the graph has too many nodes for
// uint16 distances. Every in-repo relation distance is a path length over
// (node, side) states, hence < 2·num_nodes; the build requires
// num_nodes < 2^15 so finite distances always fit. Custom kernels must
// respect the same bound (larger finite distances would saturate).

#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/compat/compatibility.h"
#include "src/skills/skills.h"
#include "src/util/mutex.h"

namespace tfsn {

/// Sentinel local id for "no such node in the view".
inline constexpr uint32_t kNoLocalId = static_cast<uint32_t>(-1);

/// Tests bit `i` of a packed word span.
inline bool TestBit(std::span<const uint64_t> words, uint32_t i) {
  return (words[i >> 6] >> (i & 63)) & 1u;
}

/// Appends the indices of the set bits of `mask` to `out`, ascending.
void AppendSetBits(std::span<const uint64_t> mask, std::vector<uint32_t>* out);

/// Number of set bits across `mask`.
uint64_t CountSetBits(std::span<const uint64_t> mask);

/// Sorted, deduplicated union of the holders of `task_skills` — the
/// candidate universe a task's view is built over. One definition shared
/// by the view build, the greedy former, and the serving-layer batch
/// scheduler, so footprint estimates never diverge from what Build()
/// materializes.
std::vector<NodeId> HolderUniverse(const SkillAssignment& skills,
                                   std::span<const SkillId> task_skills);

class TaskCompatView {
 public:
  /// Finite distances must fit below this sentinel; the build falls back
  /// (returns nullptr) otherwise.
  static constexpr uint16_t kDenseUnreachable = 0xFFFF;

  /// Default byte budget for one view (see bytes()).
  static constexpr size_t kDefaultMaxBytes = 512ull << 20;

  /// Materializes the view for `task`: the candidate universe is the union
  /// of holders of the task's skills, rows are fetched in batches through
  /// CompatibilityOracle::GetRows with `threads` workers (so misses are
  /// computed in parallel and land in the shared row cache). Returns
  /// nullptr when the dense matrices would exceed `max_bytes` or the graph
  /// is too large for uint16 distances (see file comment) — callers then
  /// use the oracle directly. The oracle must outlive the view (lazy
  /// distance rows re-fetch cached rows through it); all accessors are
  /// safe to share across threads.
  static std::unique_ptr<TaskCompatView> Build(
      CompatibilityOracle* oracle, const SkillAssignment& skills,
      const Task& task, uint32_t threads = 1,
      size_t max_bytes = kDefaultMaxBytes);

  /// As Build, but takes the already-computed candidate universe (sorted,
  /// deduplicated union of the task's skill holders) so callers that
  /// needed it anyway — e.g. for the build-worthiness estimate — don't
  /// pay the concat/sort/dedup twice.
  static std::unique_ptr<TaskCompatView> BuildFromUniverse(
      CompatibilityOracle* oracle, const SkillAssignment& skills,
      const Task& task, std::vector<NodeId> universe, uint32_t threads = 1,
      size_t max_bytes = kDefaultMaxBytes);

  /// The cache-only tier of deadline-pressed serving: the same view over
  /// PeekRow (see file comment), so it never computes a row. Returns
  /// nullptr under the same gates as BuildFromUniverse.
  static std::unique_ptr<TaskCompatView> BuildFromCachedRows(
      CompatibilityOracle* oracle, const SkillAssignment& skills,
      const Task& task, std::vector<NodeId> universe, size_t max_bytes);

  /// True once a cache-only view filled a row pessimistically because it
  /// was not cached (for SBPH, possibly at build time). While it is clear,
  /// every row read so far was real. Never set on a full-tier view.
  bool missed_rows() const {
    return missed_rows_.load(std::memory_order_relaxed);
  }

  /// Number of candidates (local ids are [0, size())).
  uint32_t size() const { return m_; }
  /// 64-bit words per bit row.
  size_t words() const { return words_; }
  /// The task the view was built for.
  const Task& task() const { return task_; }
  /// Relation the backing oracle implements.
  CompatKind kind() const { return kind_; }

  /// Local ids ascend with global ids (the universe is sorted), so scans
  /// over local ids visit candidates in the same order as oracle-path
  /// scans over sorted holder lists.
  NodeId GlobalOf(uint32_t local) const { return universe_[local]; }
  /// Local id of `global`, or kNoLocalId when not in the universe.
  uint32_t LocalOf(NodeId global) const;
  std::span<const NodeId> universe() const { return universe_; }

  /// Directional raw-row bits of `local`: bit v == (row(local).comp[v] != 0),
  /// exactly as CompatibilityOracle::GetRow exposes them (directional for
  /// SBPH). Used by kMostCompatible scoring and the exact MAX bound.
  /// Materializes on first touch (thread-safe, idempotent).
  std::span<const uint64_t> DirRow(uint32_t local) const {
    if (!dir_ready_[local].load(std::memory_order_acquire)) {
      Materialize(local, /*dist=*/false);
    }
    return {dir_bits_.get() + static_cast<size_t>(local) * words_, words_};
  }

  /// Pair-semantics bits of `local`: bit v == oracle->Compatible(local, v).
  /// Equals DirRow except for SBPH, where it is the symmetric closure
  /// (always materialized eagerly at build time).
  std::span<const uint64_t> PairRow(uint32_t local) const {
    if (pair_bits_.empty()) return DirRow(local);
    return {pair_bits_.data() + static_cast<size_t>(local) * words_, words_};
  }

  /// Directional dense distances of `local` (kDenseUnreachable sentinel).
  /// Rows materialize on first touch (thread-safe, idempotent); a touched
  /// row is a plain contiguous array thereafter.
  std::span<const uint16_t> DistRow(uint32_t local) const {
    if (!dist_ready_[local].load(std::memory_order_acquire)) {
      Materialize(local, /*dist=*/true);
    }
    return {dist_.get() + static_cast<size_t>(local) * m_, m_};
  }

  /// Same verdict as oracle->Compatible(GlobalOf(a), GlobalOf(b)).
  bool PairCompatible(uint32_t a, uint32_t b) const {
    if (a == b) return true;
    return TestBit(PairRow(a), b);
  }

  /// Same value as oracle->Distance(GlobalOf(a), GlobalOf(b)) — the uint16
  /// sentinel is widened back to kUnreachable (the mapping is
  /// order-preserving, so argmins match the oracle path bit for bit).
  uint32_t PairDistance(uint32_t a, uint32_t b) const {
    if (a == b) return 0;
    uint16_t d = DistRow(a)[b];
    if (kind_ == CompatKind::kSBPH) {
      d = std::min(d, DistRow(b)[a]);
    }
    return Widen(d);
  }

  /// Widens a dense distance cell to oracle distance semantics.
  static uint32_t Widen(uint16_t d) {
    return d == kDenseUnreachable ? kUnreachable : d;
  }

  /// Holder bits over the universe for task().skills()[task_skill_pos].
  std::span<const uint64_t> HolderMask(size_t task_skill_pos) const {
    return {holder_bits_.data() + task_skill_pos * words_, words_};
  }
  /// Holder count of that task skill (== SkillAssignment::Frequency).
  uint32_t HolderCount(size_t task_skill_pos) const {
    return holder_counts_[task_skill_pos];
  }
  /// Position of `skill` within task().skills() (which is sorted).
  size_t TaskSkillPos(SkillId skill) const;

  /// Bytes a view over `m` candidates with `num_task_skills` holder masks
  /// would allocate — the exact figure BuildFromUniverse checks against
  /// `max_bytes`, exposed so batch schedulers (src/serve) can cap a
  /// group's union footprint before paying for the build.
  static size_t EstimateBytes(size_t m, size_t num_task_skills, bool sbph);

  /// Actual footprint of the dense matrices and masks.
  size_t bytes() const;

 private:
  TaskCompatView() = default;

  /// Every entry point's one path: Fits, the task_view.build_fail fault
  /// point, Allocate, then Finish; `cache_only` picks the row source.
  static std::unique_ptr<TaskCompatView> BuildWith(
      CompatibilityOracle* oracle, const SkillAssignment& skills,
      const Task& task, std::vector<NodeId> universe, uint32_t threads,
      size_t max_bytes, bool cache_only);
  /// The two gates both builders share: fewer than 2^15 - 1 graph nodes
  /// (finite distances fit in uint16) and EstimateBytes <= `max_bytes`.
  static bool Fits(const CompatibilityOracle& oracle, size_t m,
                   size_t num_task_skills, size_t max_bytes);
  /// A view over `universe` with its dense rows allocated but not filled
  /// and no ready flag initialized.
  static std::unique_ptr<TaskCompatView> Allocate(CompatibilityOracle* oracle,
                                                  const Task& task,
                                                  std::vector<NodeId> universe);
  /// Completes a build once the rows it fills eagerly are in: the SBPH
  /// symmetric closure (over every directional row) and the holder masks.
  void Finish(const SkillAssignment& skills);

  /// Gather `row` — the oracle row of universe_[local] — restricted to the
  /// universe into dense row `local`: comp bits, or distances with
  /// kUnreachable saturated to the sentinel. A null `row` (a cache-only
  /// miss) gathers the pessimistic row: no bits, every distance
  /// unreachable.
  void GatherCompBits(const CompatibilityOracle::Row* row,
                      uint32_t local) const;
  void GatherDistances(const CompatibilityOracle::Row* row,
                       uint32_t local) const;

  /// Gather the dense comp-bit (`dist` false) or distance row of `local`
  /// from the view's row source; the cache-only tier gathers both from
  /// one peek. Idempotent; serialized per striped lock
  /// (row_locks_[local % kLockStripes]) so concurrent seed workers never
  /// observe a half-written row. The stripe association is data-dependent,
  /// so it is outside what TFSN_GUARDED_BY can express — the protocol is
  /// documented on the members below instead.
  void Materialize(uint32_t local, bool dist) const;

  static constexpr size_t kLockStripes = 16;

  CompatibilityOracle* oracle_ = nullptr;  // for lazy rows
  /// Row source: PeekRow (the cache-only tier) instead of GetRowShared.
  bool cache_only_ = false;
  Task task_;
  CompatKind kind_ = CompatKind::kNNE;
  uint32_t m_ = 0;
  size_t words_ = 0;
  std::vector<NodeId> universe_;     // sorted ascending
  std::vector<uint64_t> pair_bits_;  // SBPH only: dir | dir^T, eager
  /// m_ * words_ directional comp bits and m_ * m_ directional distances;
  /// row i is valid once its ready flag is set (deliberately
  /// uninitialized before that — no m^2 zeroing).
  ///
  /// Lock-free ordering contract (striped, so not TFSN-annotatable): row i
  /// of dir_bits_ / dist_ is written only by the thread holding
  /// row_locks_[i % kLockStripes], then published by a release store of
  /// 1 to the matching ready flag; readers (DirRow/DistRow) do an acquire
  /// load of the flag and touch the row bytes only after seeing 1, so the
  /// release/acquire pair makes the fully-written row visible. A reader
  /// that sees 0 falls into Materialize, where the stripe lock serializes
  /// the double-checked recheck (relaxed load there is safe: the lock's
  /// ordering covers it).
  mutable std::unique_ptr<uint64_t[]> dir_bits_;
  mutable std::unique_ptr<uint16_t[]> dist_;
  mutable std::unique_ptr<std::atomic<uint8_t>[]> dir_ready_;
  mutable std::unique_ptr<std::atomic<uint8_t>[]> dist_ready_;
  mutable std::array<Mutex, kLockStripes> row_locks_;
  /// Lock-free ordering contract: a sticky flag, relaxed on both sides.
  /// It publishes no data, and callers read it after joining the seed
  /// workers that could set it, which orders the store before the load.
  mutable std::atomic<bool> missed_rows_{false};
  std::vector<uint64_t> holder_bits_;  // task size * words_
  std::vector<uint32_t> holder_counts_;
};

}  // namespace tfsn
