// SP-Client and EC-Client: the application-facing read/write paths
// (Section 6.1, Fig. 9a) — the only read/write engines in the repo. Both
// run over the PieceStore/LayoutService seam (cluster/client_seam.h): the
// Cluster& constructors build its in-process implementation, and the RPC
// front-ends (rpc::RpcSpClient, rpc::RpcEcClient) build its RPC one.
//
// SpClient implements selective partition I/O on real bytes:
//   * write: split the file into k contiguous pieces, put each piece on its
//     assigned server stamped with the next layout epoch, publish the
//     layout (incl. whole-file CRC) and cache it;
//   * read: take the layout (cached, or a fresh lookup), fetch the k pieces
//     as one batch, copy each zero-copy piece view exactly once into its
//     final offset through the fused crc32_copy kernel, and stitch the
//     whole-file CRC from the per-piece CRCs.
//
// EcClient does the same through the (k, n) Reed-Solomon codec, fetching
// k + 1 shards (late binding) and decoding from the first k of the sample
// that arrive, straight from the zero-copy views.
//
// Both return the *modelled* network time of the operation alongside the
// data where the deployment models it (see cache_server.h on virtual-time
// accounting); over RPC it is 0 and wall time is the measure.
//
// Degraded reads (Section 8 "Fault Tolerance"): a missing or failed piece
// is re-fetched with capped exponential backoff + jitter
// (fault::RetryPolicy); a piece that stays unfetchable fails over to the
// stable tier's copy of the file where there is one; a server's stale-epoch
// rejection or a whole-file checksum mismatch (a read racing a
// repartition, an injected wire flip) drops the cached layout and starts a
// fresh pass with a re-fetched layout — which is how readers ride through
// a concurrent repair. IoResult reports the retry count, the passes, and
// whether (and how many pieces of) the read was served degraded.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/arena.h"
#include "common/crc32.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/units.h"
#include "cluster/cache_server.h"
#include "cluster/client_seam.h"
#include "cluster/layout_cache.h"
#include "cluster/master.h"
#include "erasure/rs_code.h"
#include "fault/retry.h"
#include "net/network_model.h"

namespace spcache {

class StableStore;

struct IoResult {
  std::vector<std::uint8_t> bytes;  // empty for writes
  Seconds network_time = 0.0;       // modelled transfer time of the op
  Seconds compute_time = 0.0;       // modelled codec time (EC only)
  std::size_t retries = 0;          // piece refetches + extra whole-read passes
  std::size_t passes = 1;           // read passes (>1: the layout was re-fetched)
  std::size_t degraded_pieces = 0;  // pieces served from stable storage
  bool degraded = false;            // true iff any piece failed over to stable
  bool layout_cached = false;       // read served without a master LOOKUP
};

// Reusable read workspace for SpClient::read(id, scratch) — everything a
// read needs that would otherwise be heap-allocated per call: the
// reassembly buffer (result.bytes), the layout copy, the per-pass
// bookkeeping arrays (arena-backed). After
// one warming read, an in-process cached-layout read of a same-or-smaller
// file is allocation-free end to end (asserted by
// tests/test_cluster_read_alloc; over RPC the envelopes still allocate).
//
// Not thread-safe: one ReadScratch per reader thread, and the IoResult
// reference returned by read(id, scratch) aliases scratch.result — it is
// valid until the next read against the same scratch.
struct ReadScratch {
  IoResult result;           // result.bytes doubles as the reassembly buffer
  FileMeta meta;             // layout storage (vectors keep their capacity)
  Arena arena{16 * kKB};     // offsets / fetch flags / per-piece CRCs
};

class SpClient {
 public:
  SpClient(Cluster& cluster, Master& master, ThreadPool& pool,
           GoodputModel goodput = GoodputModel{});

  // Fault-tolerant variant: `stable` (may be nullptr) enables per-piece
  // failover to an inline stable-storage restore; `retry` tunes the
  // backoff schedule; `cache` tunes (or disables) the layout cache.
  SpClient(Cluster& cluster, Master& master, ThreadPool& pool, StableStore* stable,
           fault::RetryPolicy retry, GoodputModel goodput = GoodputModel{},
           ClientCacheConfig cache = ClientCacheConfig{});

  // Over an explicit seam (rpc::RpcSpClient builds its RPC implementation).
  SpClient(std::unique_ptr<PieceStore> store, std::unique_ptr<LayoutService> layouts,
           fault::RetryPolicy retry, ClientCacheConfig cache);

  // Flushes pending batched access reports (best effort).
  ~SpClient();

  // Write `data` as `servers.size()` near-equal pieces, one per listed
  // server (distinct). Registers/updates the file at the master.
  IoResult write(FileId id, std::span<const std::uint8_t> data,
                 const std::vector<std::uint32_t>& servers);

  // Heterogeneous variant: explicit piece sizes (must sum to data.size(),
  // parallel to `servers`) — used with bandwidth-weighted placements whose
  // pieces follow server speeds.
  IoResult write_sized(FileId id, std::span<const std::uint8_t> data,
                       const std::vector<std::uint32_t>& servers,
                       const std::vector<Bytes>& piece_sizes);

  // Batched fetch + reassembly + verification, with per-piece retry,
  // stable failover, and whole-read repair-aware passes (see the header
  // comment). Throws std::runtime_error only once the file is unknown or
  // every pass of the retry budget is exhausted.
  //
  // Metadata-light: pass 1 serves the layout from the client cache when
  // present (no master LOOKUP; the access is tallied locally and shipped
  // as one batched report on the flush threshold). Any pass failure
  // invalidates the cached layout, and passes >= 2 always re-LOOKUP — so
  // stale layouts converge through the existing retry machinery.
  IoResult read(FileId id);

  // Allocation-free variant: identical semantics to read(id), but every
  // per-read buffer lives in `scratch` and is reused across calls. The
  // returned reference aliases scratch.result (valid until the next read
  // with the same scratch). This is the steady-state hot path: with a
  // warmed scratch and a cached layout, an in-process read performs zero
  // heap allocations — the piece copies run through the fused crc32_copy
  // kernel and the whole-file CRC is stitched from the per-piece CRCs
  // (O(k·32)) instead of rescanning the reassembled bytes.
  IoResult& read(FileId id, ReadScratch& scratch);

  // Ship pending cache-served access counts to the master now. Returns
  // the number of accesses reported. Called automatically on the flush
  // threshold and from the destructor.
  std::uint64_t flush_access_reports();

  const fault::RetryPolicy& retry_policy() const { return retry_; }
  const LayoutCache& layout_cache() const { return layout_cache_; }
  LayoutCache& layout_cache() { return layout_cache_; }
  bool caches_layouts() const { return cache_config_.layout_cache; }

  // --- Observability (src/obs) ----------------------------------------
  // Resolve the shared "client.*" metrics in `registry` once and start
  // recording end-to-end read latency (wall + modelled), outcome counters,
  // and — when `trace` is non-null — per-op structured events:
  // kReadStart/kReadDone/kReadFailed/kReadRepeatPass at the read level and
  // kPieceFetch/kPieceRetry/kPieceDegraded per piece. The event counts
  // mirror IoResult exactly: #kPieceRetry + #kReadRepeatPass == retries,
  // #kPieceDegraded == degraded_pieces (the trace-completeness test pins
  // this). Detached (default): one relaxed pointer load + branch.
  void attach_observability(obs::MetricsRegistry* registry,
                            obs::TraceRecorder* trace = nullptr);

  struct ObsProbes {
    obs::Counter* reads = nullptr;
    obs::Counter* read_failures = nullptr;
    obs::Counter* retries = nullptr;
    obs::Counter* degraded_reads = nullptr;
    obs::Counter* degraded_pieces = nullptr;
    obs::Counter* layout_hits = nullptr;
    obs::Counter* layout_misses = nullptr;
    obs::Counter* layout_invalidations = nullptr;
    obs::LatencyHistogram* read_wall = nullptr;
    obs::LatencyHistogram* read_model = nullptr;
    // Read-scratch arena telemetry (most recent read): occupancy high-water
    // and lifetime heap-spill count. fallbacks staying 0 is the
    // allocation-free invariant, exported so the observer can flag it.
    obs::Gauge* arena_high_water = nullptr;
    obs::Gauge* arena_fallbacks = nullptr;
    obs::TraceRecorder* trace = nullptr;  // may stay null (metrics only)
  };

 private:
  // One full read pass against the layout in scratch.meta. Returns true on
  // success; false means retryable failure (a stale-epoch rejection,
  // missing pieces without a usable stable copy, or a whole-file checksum
  // mismatch). `op` is the trace op-id of the enclosing read (0 when
  // tracing is detached).
  bool read_pass(FileId id, std::size_t pass, std::uint64_t op, ReadScratch& scratch,
                 const char*& error);

  // Layout for pass `pass`, written into `out`: cache on pass 1 (when
  // enabled; a hit copy-assigns into out's warmed vectors), fresh lookup
  // otherwise (write-through to the cache). Sets `from_cache` and handles
  // the hit/miss tallies + batched reporting.
  LookupStatus layout_for_pass(FileId id, std::size_t pass, bool& from_cache, FileMeta& out);

  // Drop a layout a pass proved stale, so the next pass (and concurrent
  // readers) re-LOOKUP instead of replaying it.
  void invalidate_layout(FileId id);

  std::unique_ptr<PieceStore> store_;
  std::unique_ptr<LayoutService> layouts_;
  fault::RetryPolicy retry_;
  ClientCacheConfig cache_config_;
  LayoutCache layout_cache_;
  AccessAccumulator access_acc_;
  std::unique_ptr<ObsProbes> probes_storage_;
  std::atomic<ObsProbes*> probes_{nullptr};
};

class EcClient {
 public:
  EcClient(Cluster& cluster, Master& master, ThreadPool& pool, std::size_t k, std::size_t n,
           GoodputModel goodput = GoodputModel{});

  // Over an explicit seam (rpc::RpcEcClient builds its RPC implementation).
  EcClient(std::unique_ptr<PieceStore> store, std::unique_ptr<LayoutService> layouts,
           std::size_t k, std::size_t n);

  // Encode into n shards and store them on the n listed (distinct) servers.
  IoResult write(FileId id, std::span<const std::uint8_t> data,
                 const std::vector<std::uint32_t>& servers);

  // Late-binding read: sample k+1 of the n shards, decode from the first k
  // of the sample that arrive (one lost shard is absorbed by the hedge).
  IoResult read(FileId id, Rng& rng);

  const ReedSolomon& codec() const { return rs_; }

  // Resolve the shared "codec.*" metrics in `registry` and start recording
  // bytes through the encoder/decoder plus the most recent single-op
  // throughput (gauges in x1e3 GB/s). nullptr detaches.
  void attach_observability(obs::MetricsRegistry* registry);

  struct CodecProbes {
    obs::Counter* encode_bytes = nullptr;
    obs::Counter* decode_bytes = nullptr;
    obs::Gauge* encode_gbps = nullptr;
    obs::Gauge* decode_gbps = nullptr;
  };

 private:
  std::unique_ptr<PieceStore> store_;
  std::unique_ptr<LayoutService> layouts_;
  ReedSolomon rs_;
  std::unique_ptr<CodecProbes> probes_storage_;
  std::atomic<CodecProbes*> probes_{nullptr};
};

}  // namespace spcache
