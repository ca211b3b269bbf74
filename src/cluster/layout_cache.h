// Client-side metadata for the metadata-light read path.
//
// Under the paper's Zipf skew the SP-Master — not the cache servers Eq. 1
// balances — becomes the throughput ceiling once every read pays a
// synchronous LOOKUP. Real deployments keep the metadata/query path off
// the hot loop (DistCache; Aktaş & Soljanin's access-load control): the
// client caches layouts and only falls back to the master when the cached
// layout proves stale. Two pieces implement that here, owned by the one
// SpClient engine whichever seam it runs over:
//
//   * LayoutCache — a bounded, sharded FileId -> FileMeta map with epoch
//     validation. put() keeps the *newer* epoch on a race, so a slow
//     LOOKUP reply can never clobber a fresher layout; invalidate() is the
//     client's reaction to a piece-level fetch/CRC failure or a server's
//     kWrongEpoch reply. Eviction is FIFO per shard (layouts are tiny and
//     re-fetchable; recency tracking isn't worth a hot-path write).
//   * AccessAccumulator — per-file access-count deltas accumulated
//     locally and drained on a size threshold, feeding the master's
//     report_access / kReportAccess batch RPC so popularity tracking (the
//     P_i input to Eq. 1) survives clients that no longer LOOKUP per read.
//
// Both are thread-safe; stats counters are relaxed atomics (statistical
// tallies, never synchronizers).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cluster/master.h"
#include "common/hash_mix.h"

namespace spcache {

// Knobs for the metadata-light read path. Defaults keep the master off the
// steady-state read loop; `layout_cache = false` restores the
// always-LOOKUP behaviour (the bench baseline). The SpClient engine reads
// `layout_cache`, `cache_capacity` and `report_flush_threshold`;
// `coalesce` belongs to the RPC PieceStore and `single_flight` to the
// RpcSpClient front-end (the in-process seam has no envelopes to save).
struct ClientCacheConfig {
  bool layout_cache = true;
  bool coalesce = true;      // kGetBlockMulti per worker instead of per piece
  bool single_flight = true;  // concurrent same-file reads share one fetch
  std::size_t cache_capacity = 4096;
  // Pending cache-served accesses that trigger a batched report to the
  // master (Master::report_access_batch / kReportAccess).
  std::size_t report_flush_threshold = 32;
};

class LayoutCache {
 public:
  static constexpr std::size_t kShards = 16;

  // `capacity` bounds the total number of cached layouts (rounded up to a
  // multiple of kShards; at least one entry per shard).
  explicit LayoutCache(std::size_t capacity = 4096);

  // Cached layout, or nullopt on a miss. Counts the hit/miss.
  std::optional<FileMeta> get(FileId id);

  // Allocation-light variant for the steady-state read path: copy-assigns
  // the cached layout into caller-owned storage (a warmed `out` reuses its
  // vectors' capacity, so a hit allocates nothing). Returns false on a
  // miss, leaving `out` untouched. Counts the hit/miss like get().
  bool get_into(FileId id, FileMeta& out);

  // Insert or refresh. On a race the newer epoch wins; an equal-epoch put
  // refreshes the entry (idempotent). Evicts FIFO when the shard is full.
  void put(FileId id, FileMeta meta);

  // Drop a layout the read path proved stale (fetch failure, whole-file
  // CRC mismatch, kWrongEpoch reply). Returns true if an entry was
  // dropped; counts the invalidation either way (the *decision* to
  // re-LOOKUP is what the metric tracks).
  bool invalidate(FileId id);

  // Presence check without touching the hit/miss tallies (tests, probes).
  bool contains(FileId id) const;

  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }

  std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  std::uint64_t invalidations() const {
    return invalidations_.load(std::memory_order_relaxed);
  }

 private:
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<FileId, FileMeta> entries;
    std::deque<FileId> fifo;  // insertion order, for eviction
  };

  Shard& shard_for(FileId id) { return shards_[shard_of<kShards>(id)]; }
  const Shard& shard_for(FileId id) const { return shards_[shard_of<kShards>(id)]; }

  std::size_t capacity_;
  std::size_t per_shard_;
  std::array<Shard, kShards> shards_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> invalidations_{0};
};

class AccessAccumulator {
 public:
  // `flush_threshold` is the pending-access total that makes record()
  // signal "drain me now"; 0 disables accumulation entirely (record()
  // always signals, drain() returns the single access).
  explicit AccessAccumulator(std::size_t flush_threshold = 32);

  // Record one local (cache-served) access. Returns true when the pending
  // total has reached the flush threshold — the caller should drain() and
  // ship the deltas to the master.
  bool record(FileId id, std::uint64_t n = 1);

  // Take everything pending. Safe to call concurrently with record();
  // counts racing in land in this drain or the next.
  std::vector<std::pair<FileId, std::uint64_t>> drain();

  std::uint64_t pending() const { return pending_.load(std::memory_order_relaxed); }
  std::size_t flush_threshold() const { return flush_threshold_; }

 private:
  static constexpr std::size_t kShards = 8;

  struct Shard {
    std::mutex mu;
    std::unordered_map<FileId, std::uint64_t> deltas;
  };

  std::size_t flush_threshold_;
  std::array<Shard, kShards> shards_;
  std::atomic<std::uint64_t> pending_{0};
};

}  // namespace spcache
