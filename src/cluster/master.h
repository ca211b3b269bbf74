// SP-Master metadata service (Section 6.1).
//
// Tracks, for every file: its size, partition layout (which server holds
// which piece), a whole-file CRC for end-to-end verification, and the
// access count used to estimate popularity for the periodic re-balancing
// (Section 6.2). Thread-safe: concurrent SP-Clients bump access counts
// while repartitioners rewrite layouts.
//
// Per Section 6.4, the master's state is deliberately tiny — partition
// count plus server list per file — and the paper keeps it that way
// precisely so the metadata path never bottlenecks. This implementation
// honors that with shard-per-core concurrency instead of one global lock:
//
//   * metadata lives in kShards shards, selected by the SplitMix64 mix of
//     the FileId (common/hash_mix.h — the same mixer the block store uses
//     for stripe selection), each guarded by its own std::shared_mutex;
//     lookups take the shard's shared lock, layout writes its unique lock;
//   * access counters are std::atomic<uint64_t> bumped with relaxed
//     ordering, so a counter bump never contends with other lookups —
//     the counters feed a statistical popularity estimate (Section 6.2)
//     and need totals, not ordering;
//   * snapshot_catalog / file_ids iterate shard by shard instead of
//     stalling the world; a snapshot is therefore per-shard-consistent,
//     which is all the periodic re-balancer needs;
//   * lock_file(id) hands out a per-file guard serializing the
//     read-modify-write sequences of Algorithm 2 (peek → move blocks →
//     update_file), keeping layout updates linearizable *per file* while
//     unrelated files proceed in parallel.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "common/units.h"
#include "workload/file_catalog.h"

namespace spcache::obs {
class Counter;
class LatencyHistogram;
class MetricsRegistry;
}  // namespace spcache::obs

namespace spcache {

struct FileMeta {
  Bytes size = 0;
  std::vector<std::uint32_t> servers;    // piece i lives on servers[i]
  std::vector<Bytes> piece_sizes;        // parallel to servers
  std::uint32_t file_crc = 0;            // CRC of the whole file
  // Layout generation, monotonically increasing per file. Every mutation
  // that can move bytes (register/overwrite, repartition, online
  // split/merge, repair re-placement) lands a strictly larger epoch, so a
  // client-side layout cache can tell "same layout" from "stale layout"
  // without comparing server lists. The Master enforces monotonicity on
  // register_file/update_file; writers may propose an epoch (the RPC write
  // path stamps pieces with it) and the master keeps max(proposed, old+1).
  std::uint64_t epoch = 0;

  std::size_t partitions() const { return servers.size(); }
};

class Master {
 public:
  static constexpr std::size_t kShards = 64;

  void register_file(FileId id, FileMeta meta);
  // Replace the layout after a repartition.
  void update_file(FileId id, FileMeta meta);
  // update_file() only if the file's epoch is still `expected_epoch`,
  // checked under the same shard lock as the swap — a compare-and-swap, so
  // no writer (guarded or not) can land between the check and the swap.
  // Returns false, touching nothing, for an unknown file or a moved epoch.
  bool update_file_if(FileId id, FileMeta meta, std::uint64_t expected_epoch);
  bool remove_file(FileId id);

  // Layout lookup for a read; bumps the access count (the master "updates
  // the access count for the requested file", Section 6.1). Takes only the
  // shard's shared lock: concurrent lookups — and their counter bumps —
  // never serialize against each other.
  std::optional<FileMeta> lookup_for_read(FileId id);

  // Metadata access without touching counters.
  std::optional<FileMeta> peek(FileId id) const;

  // Current layout epoch; 0 for an unknown file.
  std::uint64_t file_epoch(FileId id) const;

  // Batched popularity report (the metadata-light read path): a client
  // that served `delta` reads of `id` from its layout cache reports them
  // here instead of paying `delta` LOOKUP round-trips. Feeds the same
  // access counters as lookup_for_read, so Eq. 1's popularity input is
  // unchanged; counts for unknown files are dropped (the file was removed
  // since the client cached it). Returns the number of accesses applied.
  std::uint64_t report_access(FileId id, std::uint64_t delta);
  std::uint64_t report_access_batch(
      const std::vector<std::pair<FileId, std::uint64_t>>& deltas);

  std::uint64_t access_count(FileId id) const;
  void reset_access_counts();

  std::size_t file_count() const;
  std::vector<FileId> file_ids() const;

  // Popularity snapshot: builds a Catalog whose request rates are the
  // recorded access counts divided by `window` seconds — the input to
  // Algorithm 1 at each re-balancing epoch ("based on the access count
  // measured in the past 24 hours", Section 6.2). Files with no recorded
  // access get rate `min_rate` so the optimizer stays well-defined.
  // Iterates shard by shard; counts racing in during the walk land in
  // either this epoch or the next, which the estimate tolerates.
  Catalog snapshot_catalog(Seconds window, double min_rate = 1e-6) const;

  // Per-file mutation guard for read-modify-write sequences (Algorithm 2's
  // repartition, online split/merge, recovery re-placement):
  //
  //   auto guard = master.lock_file(id);
  //   auto meta = master.peek(id);        // read
  //   ... move blocks around ...          // modify
  //   master.update_file(id, new_meta);   // write
  //
  // While held, no other guard holder can interleave its own RMW on the
  // same file, making layout updates linearizable per file; lookups and
  // RMWs on other files are unaffected. The guard keeps the file's entry
  // alive even across a concurrent remove_file. Evaluates to false if the
  // file is unknown.
  class FileGuard {
   public:
    FileGuard() = default;
    explicit operator bool() const { return entry_ != nullptr; }

   private:
    friend class Master;
    std::shared_ptr<struct MasterFileEntry> entry_;
    std::unique_lock<std::mutex> lock_;
  };
  FileGuard lock_file(FileId id);

  // --- Observability (src/obs) ----------------------------------------
  // Resolve "master.lookups|updates|shard_contention|lookup_s" in
  // `registry` once and start recording lookup latency, mutation counts,
  // and shard-lock contention (lookups that found their shard's shared
  // lock busy). Detached (the default) the hot path pays one relaxed
  // pointer load and a branch. Pass nullptr to detach.
  void attach_observability(obs::MetricsRegistry* registry);

  struct ObsProbes {
    obs::Counter* lookups = nullptr;
    obs::Counter* updates = nullptr;
    obs::Counter* contention = nullptr;
    obs::Counter* lookups_saved = nullptr;  // accesses applied via report_access
    obs::LatencyHistogram* lookup_latency = nullptr;
  };

 private:
  struct Shard {
    mutable std::shared_mutex mu;
    std::unordered_map<FileId, std::shared_ptr<MasterFileEntry>> files;
  };

  Shard& shard_for(FileId id);
  const Shard& shard_for(FileId id) const;

  std::array<Shard, kShards> shards_;
  std::unique_ptr<ObsProbes> probes_storage_;
  std::atomic<ObsProbes*> probes_{nullptr};
};

// One file's master-side state. Entries are heap-allocated and shared so
// FileGuard can pin one across shard-map mutations; the access counter is
// lock-free (relaxed — it is a statistical tally, not a synchronizer).
struct MasterFileEntry {
  FileMeta meta;
  std::atomic<std::uint64_t> access_count{0};
  std::mutex op_mu;  // serializes per-file read-modify-write sequences
};

}  // namespace spcache
