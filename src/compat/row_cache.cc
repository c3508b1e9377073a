#include "src/compat/row_cache.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "src/compat/row_codec.h"
#include "src/compat/row_spill.h"
#include "src/util/fault_injection.h"

namespace tfsn {

namespace {

// splitmix64 finalizer: spreads adjacent node ids across shards.
uint64_t MixKey(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint32_t RoundUpPow2(uint32_t v) {
  uint32_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

RowCache::RowCache(RowCacheOptions options) : options_(std::move(options)) {
  num_shards_ = RoundUpPow2(std::max<uint32_t>(1, options_.shards));
  shard_max_bytes_ =
      options_.max_bytes == 0 ? 0
                              : std::max<size_t>(1, options_.max_bytes / num_shards_);
  shard_max_rows_ =
      options_.max_rows == 0 ? 0
                             : std::max<size_t>(1, options_.max_rows / num_shards_);
  shards_ = std::make_unique<Shard[]>(num_shards_);
}

RowCache::Shard& RowCache::ShardFor(uint64_t key) {
  return shards_[MixKey(key) & (num_shards_ - 1)];
}

std::shared_ptr<const CompatRow> RowCache::PinEntryLocked(Shard* shard,
                                                          Entry* entry) {
  (void)shard;
  if (entry->row != nullptr) return entry->row;  // flat: the row is resident
  if (auto live = entry->pinned.lock()) return live;  // memoized decode
  const uint64_t t0 = NowNs();
  auto decoded = std::make_shared<CompatRow>();
  if (!DecodeRow(entry->blob, decoded.get())) return nullptr;
  decode_ns_.fetch_add(NowNs() - t0, std::memory_order_relaxed);
  decodes_.fetch_add(1, std::memory_order_relaxed);
  std::shared_ptr<const CompatRow> pinned = std::move(decoded);
  entry->pinned = pinned;
  return pinned;
}

void RowCache::LinkFrontLocked(Shard* shard, Entry entry) {
  const size_t bytes = entry.bytes;
  const size_t blob_bytes = entry.blob.size();
  const uint64_t key = entry.key;
  shard->lru.push_front(std::move(entry));
  shard->index.emplace(key, shard->lru.begin());
  shard->bytes += bytes;
  if (blob_bytes != 0) {
    compressed_bytes_.fetch_add(blob_bytes, std::memory_order_relaxed);
  }
}

std::shared_ptr<const CompatRow> RowCache::Get(uint64_t key,
                                               bool count_miss) {
  Shard& shard = ShardFor(key);
  MutexLock lock(&shard.mu);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    // Tier-0 hit: refresh recency and pin (decode if compressed).
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    auto row = PinEntryLocked(&shard, &*it->second);
    hits_.fetch_add(1, std::memory_order_relaxed);
    return row;
  }
  RowSpillStore* spill = options_.spill.get();
  if (spill == nullptr) {
    if (count_miss) misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }

  // Tier-0 miss with a spill tier: the disk read and decode are expensive
  // relative to the critical section, so run them outside the shard lock
  // and re-check the index afterwards.
  lock.Unlock();
  std::vector<uint8_t> blob;
  std::shared_ptr<const CompatRow> promoted;
  // Injected promotion failure degrades the spill hit to a miss — the
  // caller recomputes the row, which is bit-identical by construction.
  if (!TFSN_FAULT_POINT("row_cache.promote_fail") && spill->Read(key, &blob)) {
    const uint64_t t0 = NowNs();
    auto decoded = std::make_shared<CompatRow>();
    if (DecodeRow(blob, decoded.get())) {
      decode_ns_.fetch_add(NowNs() - t0, std::memory_order_relaxed);
      decodes_.fetch_add(1, std::memory_order_relaxed);
      promoted = std::move(decoded);
    }
  }
  lock.Lock();
  if (promoted == nullptr) {
    if (count_miss) misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  it = shard.index.find(key);
  if (it != shard.index.end()) {
    // Another thread repopulated the key while we were reading disk; its
    // entry wins (same blob either way — the store holds one record per
    // key and kernels are deterministic).
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    auto row = PinEntryLocked(&shard, &*it->second);
    hits_.fetch_add(1, std::memory_order_relaxed);
    return row;
  }

  Entry entry;
  entry.key = key;
  entry.in_spill = true;  // the store already holds this exact blob
  if (options_.compress) {
    entry.bytes = blob.size() + sizeof(Entry);
    entry.blob = std::move(blob);
    entry.pinned = promoted;
  } else {
    entry.bytes = promoted->ByteSize();
    entry.row = promoted;
  }
  LinkFrontLocked(&shard, std::move(entry));
  std::vector<Entry> victims;
  EvictLocked(&shard, &victims);
  hits_.fetch_add(1, std::memory_order_relaxed);
  spill_reads_.fetch_add(1, std::memory_order_relaxed);
  lock.Unlock();
  SpillEvicted(std::move(victims));
  return promoted;
}

std::shared_ptr<const CompatRow> RowCache::Peek(uint64_t key) {
  Shard& shard = ShardFor(key);
  MutexLock lock(&shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) return nullptr;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return PinEntryLocked(&shard, &*it->second);
}

std::shared_ptr<const CompatRow> RowCache::Insert(uint64_t key,
                                                 CompatRow row) {
  // Drop excess capacity (moves can leave capacity() > size()) so the
  // byte budget charges what the cached row actually occupies.
  row.ShrinkToFit();
  auto holder = std::make_shared<const CompatRow>(std::move(row));

  // Injected insert drop: the caller still gets its row, the cache just
  // fails to retain it — the next Get misses and recomputes (memory-
  // pressure shape: a row computed but never cached).
  if (TFSN_FAULT_POINT("row_cache.insert_drop")) return holder;

  Entry entry;
  entry.key = key;
  if (options_.compress) {
    // The blob is the resident form and what the budget charges; the
    // returned pointer stays pinned through the weak_ptr until every
    // caller drops it.
    entry.blob = EncodeRow(*holder);
    entry.bytes = entry.blob.size() + sizeof(Entry);
    entry.pinned = holder;
  } else {
    entry.bytes = holder->ByteSize();
    entry.row = holder;
  }

  Shard& shard = ShardFor(key);
  MutexLock lock(&shard.mu);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    // Lost a compute race: keep the first row so all callers agree.
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return PinEntryLocked(&shard, &*it->second);
  }
  LinkFrontLocked(&shard, std::move(entry));
  insertions_.fetch_add(1, std::memory_order_relaxed);
  std::vector<Entry> victims;
  EvictLocked(&shard, &victims);
  lock.Unlock();
  SpillEvicted(std::move(victims));
  return holder;
}

void RowCache::EvictLocked(Shard* shard, std::vector<Entry>* spill_out) {
  // Budget check inlined (not a lambda): the analysis checks lambda bodies
  // as standalone functions, which cannot see this function's
  // TFSN_REQUIRES(shard->mu) precondition.
  while (shard->lru.size() > 1 &&
         ((shard_max_rows_ != 0 && shard->lru.size() > shard_max_rows_) ||
          (shard_max_bytes_ != 0 && shard->bytes > shard_max_bytes_))) {
    Entry& victim = shard->lru.back();
    shard->bytes -= victim.bytes;
    if (!victim.blob.empty()) {
      compressed_bytes_.fetch_sub(victim.blob.size(),
                                  std::memory_order_relaxed);
    }
    shard->index.erase(victim.key);
    if (options_.spill != nullptr && !victim.in_spill) {
      spill_out->push_back(std::move(victim));
    }
    shard->lru.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

void RowCache::SpillEvicted(std::vector<Entry> victims) {
  if (victims.empty()) return;
  RowSpillStore* spill = options_.spill.get();
  for (Entry& victim : victims) {
    // Flat-mode victims were never encoded; pay for it only now that the
    // blob is actually leaving memory.
    const std::vector<uint8_t> blob =
        victim.blob.empty() ? EncodeRow(*victim.row) : std::move(victim.blob);
    if (spill->Append(victim.key, blob)) {
      spill_writes_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

RowCache::StatsSnapshot RowCache::SnapshotCounters() const {
  StatsSnapshot s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.insertions = insertions_.load(std::memory_order_relaxed);
  s.decodes = decodes_.load(std::memory_order_relaxed);
  s.decode_ns = decode_ns_.load(std::memory_order_relaxed);
  s.spill_reads = spill_reads_.load(std::memory_order_relaxed);
  s.spill_writes = spill_writes_.load(std::memory_order_relaxed);
  s.compressed_bytes = compressed_bytes_.load(std::memory_order_relaxed);
  return s;
}

RowCacheStats RowCache::stats() const {
  RowCacheStats s;
  static_cast<StatsSnapshot&>(s) = SnapshotCounters();
  for (uint32_t i = 0; i < num_shards_; ++i) {
    const Shard& shard = shards_[i];
    MutexLock lock(&shard.mu);
    s.rows_in_use += shard.lru.size();
    s.bytes_in_use += shard.bytes;
  }
  return s;
}

void RowCache::Clear() {
  for (uint32_t i = 0; i < num_shards_; ++i) {
    Shard& shard = shards_[i];
    MutexLock lock(&shard.mu);
    shard.lru.clear();
    shard.index.clear();
    shard.bytes = 0;
  }
  compressed_bytes_.store(0, std::memory_order_relaxed);
  if (options_.spill != nullptr) options_.spill->Clear();
}

}  // namespace tfsn
