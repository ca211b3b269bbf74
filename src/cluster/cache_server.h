// In-memory cache servers: the Alluxio-worker stand-in.
//
// Each server owns a thread-safe block store holding real byte buffers,
// checksummed with CRC-32 on ingest and verified by whichever pass reads
// them out — the same integrity discipline a networked cache worker
// applies to partition transfers. Network cost is *accounted virtually* (see DESIGN.md): the
// store tracks bytes in/out, and callers convert byte volumes to seconds
// through TransferModel, so experiments measuring hours of simulated
// traffic run in milliseconds while the data path stays real.
//
// Concurrency: the store is striped kStripes ways by the SplitMix64 mix
// of the block key (common/hash_mix.h — the same mixer the master uses
// for metadata sharding), so concurrent readers and writers of different
// blocks rarely share a lock. Reads are zero-copy: get() and
// get_for_serve() hand back a shared_ptr<const Block> to the resident
// buffer and drop the stripe lock before any byte is scanned, so the lock
// is held only for the map probe, never for byte-sized work. Callers MUST NOT mutate a shared
// block; an overwrite via put() publishes a fresh block while in-flight
// readers keep the old one alive. Load counters are lock-free atomics.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/crc32.h"
#include "common/hash_mix.h"
#include "common/units.h"
#include "workload/file_catalog.h"

namespace spcache::fault {
class FaultInjector;
}  // namespace spcache::fault

namespace spcache::obs {
class Counter;
class Gauge;
class LatencyHistogram;
class MetricsRegistry;
class TraceRecorder;
}  // namespace spcache::obs

namespace spcache {

using PieceIndex = std::uint32_t;

struct BlockKey {
  FileId file = 0;
  PieceIndex piece = 0;

  bool operator==(const BlockKey&) const = default;

  std::uint64_t packed() const {
    return (static_cast<std::uint64_t>(file) << 32) | piece;
  }
};

// SplitMix64-mixed: std::hash<uint64_t> is the identity on libstdc++, so
// hashing the packed key directly would cluster consecutive FileIds into
// the same buckets/stripes.
struct BlockKeyHash {
  std::size_t operator()(const BlockKey& k) const {
    return static_cast<std::size_t>(mix64(k.packed()));
  }
};

struct Block {
  std::vector<std::uint8_t> bytes;
  std::uint32_t crc = 0;
};

// An immutable, shareable reference to a resident block. Readers get the
// actual cached buffer, not a copy; the contract is look-don't-touch.
using BlockRef = std::shared_ptr<const Block>;

class CacheServer {
 public:
  static constexpr std::size_t kStripes = 16;

  CacheServer(std::uint32_t id, Bandwidth bandwidth);

  std::uint32_t id() const { return id_; }
  Bandwidth bandwidth() const { return bandwidth_; }

  // Store a block (checksummed). Overwrites an existing piece; readers
  // already holding the old block keep a consistent snapshot.
  void put(BlockKey key, std::vector<std::uint8_t> bytes);

  // Fused-copy ingest for callers holding a view (RPC payloads, write-path
  // piece slices): copies `bytes` into a fresh block with the CRC computed
  // in the same pass (crc32_copy), instead of copy-then-rescan. Same
  // semantics as put() otherwise.
  void put_copy(BlockKey key, std::span<const std::uint8_t> bytes);

  // Zero-copy read for callers that do not scan the bytes themselves
  // (the whole-file repartition baselines): returns a
  // shared reference to the resident block after a separate CRC pass over
  // it (outside the stripe lock). nullptr if absent. Throws
  // std::runtime_error on checksum mismatch (corruption), on a dead
  // server, or when the fault injector fires a fetch failure. An injected
  // read corruption returns a bit-flipped *copy* (the resident block stays
  // pristine), modelling a post-checksum wire flip that only the client's
  // whole-file CRC can catch.
  BlockRef get(const BlockKey& key) const;

  // get() for every read path that passes over the bytes anyway — the RPC
  // worker's serve copy, the in-process piece fetch feeding the clients'
  // fused copy or RS decode: identical lookup/liveness/chaos semantics,
  // but no CRC scan here, so each byte is scanned once. The caller MUST
  // check its own pass against block->crc (crc32_copy makes that free;
  // PieceView::expected_crc carries it across the client seam). An
  // injected read corruption hands back a bit-flipped copy whose crc field
  // matches the flipped bytes, so the flip rides through that check and
  // only the client's whole-file verification catches it — the same
  // post-checksum wire-flip model get() exposes.
  BlockRef get_for_serve(const BlockKey& key) const;

  // Range read for the delta repartition pipeline: a checksummed copy of
  // `length` bytes of the resident block starting at `offset` (the whole
  // block's CRC is verified outside the stripe lock, like get()). Bytes-
  // served accounting charges only the range, not the whole block. Throws
  // on a dead server, injected fetch failure, absent block, checksum
  // mismatch, or an out-of-range request — migration errors are loud.
  std::vector<std::uint8_t> get_range(const BlockKey& key, Bytes offset, Bytes length) const;

  bool contains(const BlockKey& key) const;
  bool erase(const BlockKey& key);

  // --- Staged piece assembly (delta repartition, two-phase cutover) ----
  // New-layout pieces are assembled out of band in a staging area keyed by
  // (block, layout epoch) while readers keep serving the old layout from
  // the live store. Ranges must arrive in offset order (offset == bytes
  // staged so far); the first range allocates the full piece buffer.
  //
  //   stage_range     append one range of the piece under construction
  //   finalize_staged verify the piece is complete and checksum it —
  //                   called OUTSIDE the cutover critical section so the
  //                   CRC pass never extends the publish window
  //   publish_staged  swap the finalized piece into the live store (an
  //                   O(1) map splice — safe inside the short cutover
  //                   critical section); overwrites any same-key old block
  //   discard_staged  drop a staged piece without publishing (abort path)
  //
  // kill() discards all staged pieces along with the live blocks.
  void stage_range(const BlockKey& key, std::uint64_t epoch, Bytes piece_size, Bytes offset,
                   std::span<const std::uint8_t> bytes);
  // Returns false if nothing is staged under (key, epoch) or the piece is
  // incomplete (the caller aborts the cutover for this file).
  bool finalize_staged(const BlockKey& key, std::uint64_t epoch);
  // Requires a finalize_staged first; throws if the piece was not
  // finalized (publishing an unchecksummed buffer would be a silent bug).
  bool publish_staged(const BlockKey& key, std::uint64_t epoch);
  bool discard_staged(const BlockKey& key, std::uint64_t epoch);
  std::size_t staged_count() const;

  // --- Crash/restart lifecycle (fault-injection substrate) -----------
  // kill() drops every block and marks the server down: subsequent put/get
  // throw, contains() reports false — exactly what a crashed worker looks
  // like to its peers. revive() brings the (empty) server back.
  void kill();
  void revive();
  bool alive() const { return alive_.load(std::memory_order_acquire); }

  // Optional chaos hook consulted on every get(); nullptr disables.
  void set_fault_injector(fault::FaultInjector* injector) {
    injector_.store(injector, std::memory_order_release);
  }

  // --- Observability (src/obs) ----------------------------------------
  // Resolve this server's metrics ("server.<id>.gets|misses|get_errors|
  // puts|service_s|in_flight") in `registry` once and start recording
  // per-request service time, outcome counts, and in-flight depth.
  // Detached (the default) the hot path pays one relaxed pointer load and
  // a branch — nothing else. Pass nullptr to detach again.
  void attach_observability(obs::MetricsRegistry* registry);

  // Metric handles resolved at attach time so recording is free of any
  // name lookup or registry lock (public for the .cpp's timing scope).
  struct ObsProbes {
    obs::Counter* gets = nullptr;
    obs::Counter* misses = nullptr;
    obs::Counter* errors = nullptr;
    obs::Counter* puts = nullptr;
    obs::LatencyHistogram* service = nullptr;
    obs::Gauge* in_flight = nullptr;
  };

  // Drop every block (simulates a server crash for the recovery tests).
  void clear();

  Bytes bytes_stored() const;
  std::size_t blocks_stored() const;

  // Cumulative outbound bytes (load, for Figs. 12/18-style accounting).
  double bytes_served() const;
  void reset_load_counters();

 private:
  // Cache-line aligned: adjacent stripes' mutexes otherwise share a line,
  // so 16 threads hitting 16 different stripes still bounce the same cache
  // lines (measured as part of the 16-thread scaling sag; see DESIGN.md
  // §"Data plane kernels").
  struct alignas(64) Stripe {
    mutable std::mutex mu;
    std::unordered_map<BlockKey, BlockRef, BlockKeyHash> blocks;
  };

  Stripe& stripe_for(const BlockKey& key) const {
    return stripes_[shard_of<kStripes>(key.packed())];
  }

  // Shared publish tail of put()/put_copy(): swap the checksummed block
  // into its stripe and settle the stored-bytes accounting.
  void insert_block(const BlockKey& key, std::shared_ptr<Block> block);

  // Shared body of get()/get_for_serve(): probes, liveness, chaos, stripe
  // lookup; `verify` gates the standalone CRC scan.
  BlockRef lookup_block(const BlockKey& key, bool verify) const;

  // (block, epoch) -> piece under construction. Staging is off the read
  // path entirely: one mutex is plenty (a handful of repartitioners, not
  // thousands of readers), and nothing here is visible to get().
  struct StageKey {
    BlockKey key;
    std::uint64_t epoch = 0;
    bool operator==(const StageKey&) const = default;
  };
  struct StageKeyHash {
    std::size_t operator()(const StageKey& k) const {
      return static_cast<std::size_t>(mix64(k.key.packed() ^ mix64(k.epoch)));
    }
  };
  struct StagedPiece {
    std::shared_ptr<Block> block;  // bytes sized up front; crc set at finalize
    Bytes filled = 0;
    // Running CRC accumulated range-by-range as bytes are staged (fused
    // with the copy). The in-order assembly contract makes the incremental
    // state exactly the whole-piece CRC, so finalize_staged is O(1).
    std::uint32_t crc_state = 0xFFFFFFFFu;
    bool finalized = false;
  };

  std::uint32_t id_;
  Bandwidth bandwidth_;
  mutable std::array<Stripe, kStripes> stripes_;
  mutable std::mutex stage_mu_;
  std::unordered_map<StageKey, StagedPiece, StageKeyHash> staged_;
  // Write-hot atomics each get their own cache line: bytes_served_ is
  // bumped by every concurrent reader and must not share a line with
  // bytes_stored_ (writers) or the read-mostly flags below it.
  alignas(64) std::atomic<Bytes> bytes_stored_{0};
  alignas(64) mutable std::atomic<std::uint64_t> bytes_served_{0};
  alignas(64) std::atomic<bool> alive_{true};
  std::atomic<fault::FaultInjector*> injector_{nullptr};
  std::unique_ptr<ObsProbes> probes_storage_;
  mutable std::atomic<ObsProbes*> probes_{nullptr};
};

// A fixed-size fleet of cache servers.
class Cluster {
 public:
  Cluster(std::size_t n_servers, Bandwidth bandwidth);

  std::size_t size() const { return servers_.size(); }
  CacheServer& server(std::size_t i) { return *servers_[i]; }
  const CacheServer& server(std::size_t i) const { return *servers_[i]; }

  // Crash/restart lifecycle, used by the fault-injection substrate and
  // the HealthMonitor's kill/revive chaos drivers.
  void kill(std::size_t i) { servers_[i]->kill(); }
  void revive(std::size_t i) { servers_[i]->revive(); }
  bool is_alive(std::size_t i) const { return servers_[i]->alive(); }
  std::size_t alive_count() const;

  // Install (or clear, with nullptr) the chaos hook on every server.
  void set_fault_injector(fault::FaultInjector* injector);

  // Attach (or detach, with nullptr) per-server metrics on every server.
  void attach_observability(obs::MetricsRegistry* registry);

  std::vector<Bandwidth> bandwidths() const;
  // Per-server cumulative outbound bytes.
  std::vector<double> served_bytes() const;
  // Per-server resident bytes.
  std::vector<double> stored_bytes() const;
  void reset_load_counters();

 private:
  std::vector<std::unique_ptr<CacheServer>> servers_;
};

}  // namespace spcache
