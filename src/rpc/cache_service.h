// The SP-Cache components as RPC services (Fig. 9, over the in-process
// bus): cache workers expose block put/get/erase and staged assembly, the
// SP-Master exposes registration, layout lookup and the compare-and-swap
// cutover, and the RPC implementation of the client seam
// (make_rpc_piece_store / make_rpc_layout_service) runs the repo's one SP
// and EC client, its one delta repartitioner and its one RecoveryManager
// purely through messages — every byte and every piece of metadata
// crosses a serialization boundary, exactly as in the networked
// deployment.
//
// Node-id convention: master = 0, workers = 1..N, monitor = 900,
// clients >= 1000.
#pragma once

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/arena.h"
#include "cluster/cache_server.h"
#include "cluster/client.h"
#include "cluster/layout_cache.h"
#include "cluster/master.h"
#include "cluster/stable_store.h"
#include "fault/retry.h"
#include "rpc/bus.h"

namespace spcache::rpc {

inline constexpr NodeId kMasterNode = 0;
inline constexpr NodeId kFirstWorkerNode = 1;
inline constexpr NodeId kMonitorNode = 900;  // masterd's liveness prober
inline constexpr NodeId kFirstClientNode = 1000;

// Method ids.
inline constexpr MethodId kPutBlock = 1;       // carries the layout epoch
inline constexpr MethodId kGetBlock = 2;
inline constexpr MethodId kEraseBlock = 3;
inline constexpr MethodId kGetBlockMulti = 4;  // all of one file's pieces on a worker
inline constexpr MethodId kGetRange = 5;       // byte range of one resident piece
inline constexpr MethodId kStagePiece = 6;     // staged-assembly ops (delta repartition)
inline constexpr MethodId kRegisterFile = 10;  // proposes an epoch, replies the assigned one
inline constexpr MethodId kLookupFile = 11;    // bumps the access count; reply carries epoch
inline constexpr MethodId kAccessCount = 12;
inline constexpr MethodId kFileEpoch = 13;     // current layout epoch (0 = unknown file)
inline constexpr MethodId kLookupBatch = 14;   // many kLookupFile in one envelope
inline constexpr MethodId kReportAccess = 15;  // batched per-file access-count deltas
inline constexpr MethodId kPing = 16;          // liveness probe; echoes the sent token
inline constexpr MethodId kPutStable = 17;     // checkpoint a whole file (master's StableStore)
inline constexpr MethodId kPeekFile = 18;      // kLookupFile without the access-count bump
// Compare-and-swap publish: file u32, expected epoch u64, then the layout
// (write_meta). The master swaps only if the file is still at the expected
// epoch (Master::update_file_if). Reply: u8 swapped.
inline constexpr MethodId kSwapLayout = 19;

// kStagePiece sub-operations. Common request header: file u32, piece u32,
// epoch u64, op u8; then per op:
//   kStageOpAppend     piece_size u64, offset u64, length-prefixed bytes
//   kStageOpLocalCopy  piece_size u64, offset u64, src_piece u32,
//                      src_offset u64, length u64 — the worker copies the
//                      range out of its own resident store (the bytes are
//                      already on the destination; no payload on the wire)
//   kStageOpFinalize   (no body) completeness check + CRC of the staged piece
//   kStageOpPublish    (no body) splice the finalized piece into the live
//                      store and record the epoch for kWrongEpoch rejection
//   kStageOpDiscard    (no body) drop the staged piece (abort path)
// Reply for every op: u8 success flag.
inline constexpr std::uint8_t kStageOpAppend = 0;
inline constexpr std::uint8_t kStageOpLocalCopy = 1;
inline constexpr std::uint8_t kStageOpFinalize = 2;
inline constexpr std::uint8_t kStageOpPublish = 3;
inline constexpr std::uint8_t kStageOpDiscard = 4;

// Layout wire format, shared by kLookupFile/kLookupBatch replies, the
// kRegisterFile request body (after the file id), and every client parser:
// size u64, crc u32, epoch u64, n u32, then n (server u32, piece_size u64)
// pairs.
void write_meta(BufferWriter& w, const FileMeta& meta);
FileMeta read_meta(BufferReader& r);

// A cache worker: an RpcNode whose handlers are backed by a CacheServer
// block store (checksummed, thread-safe).
//
// Epoch validation: every PUT carries the layout epoch it belongs to; the
// worker remembers the highest epoch seen per file (service-thread state,
// no lock). A kGetBlockMulti whose request epoch is older than that gets a
// kWrongEpoch reply instead of bytes — the signal that tells a caching
// client its layout is stale *before* it wastes GETs and a CRC pass.
class CacheWorkerService {
 public:
  CacheWorkerService(Bus& bus, NodeId node_id, std::uint32_t server_id, Bandwidth bandwidth);

  NodeId node_id() const { return node_->id(); }
  CacheServer& store() { return store_; }

 private:
  // Fused serve of one resident block: length prefix, then a single
  // crc32_copy pass straight into the reply payload — the copy IS the
  // integrity scan (compared against the block's ingest CRC). Throws on
  // mismatch, which dispatch turns into a kError reply.
  static void serve_block_bytes(BufferWriter& w, const Block& block);

  CacheServer store_;
  // file -> highest layout epoch PUT here. Touched only by this node's
  // service thread (all mutations arrive as RPCs), so unlocked by design.
  std::unordered_map<FileId, std::uint64_t> epochs_;
  // Serve scratch, reused across requests (handlers run on the single
  // service thread): the multi-GET piece-index span lives in the arena and
  // the BlockRef list in a recycled vector, so a steady-state multi-GET
  // allocates nothing beyond the reply payload that ships.
  Arena scratch_arena_{16 * 1024};
  std::vector<BlockRef> scratch_blocks_;
  std::unique_ptr<RpcNode> node_;
};

// The SP-Master as a service over the metadata Master. It also hosts the
// deployment's StableStore (the checkpointed tier the paper assumes under
// the cache): clients kPutStable whole files after a write, and the
// RecoveryManager that spcache_masterd runs next to it restores lost
// pieces from it after a worker death — so degraded reads stay bit-exact
// without cache-level replicas.
class MasterService {
 public:
  MasterService(Bus& bus, NodeId node_id = kMasterNode);

  Master& master() { return master_; }
  StableStore& stable() { return stable_; }
  NodeId node_id() const { return node_->id(); }

 private:
  Master master_;
  StableStore stable_;
  std::unique_ptr<RpcNode> node_;
};

// The RPC seam (cluster/client_seam.h), for the clients below, the
// SP-Repartitioners and masterd's RecoveryManager. Calls go out through
// `node`, which must be started; every call waits at most `timeout`.
//
// The PieceStore fans puts out as kPutBlock; fetches send one
// kGetBlockMulti per destination worker carrying every requested piece
// that lives there, or — the `coalesce = false` baseline — one kGetBlock
// per piece; staged assembly is kStagePiece (kStageOpLocalCopy for ranges
// already on the destination, a kGetRange→kStageOpAppend relay for remote
// ones, then kStageOpFinalize). The LayoutService is the MasterService's
// methods; it has no read-side restore (restore() returns nullopt).
std::unique_ptr<PieceStore> make_rpc_piece_store(Bus& bus, RpcNode& node,
                                                 std::vector<NodeId> worker_of_server,
                                                 std::chrono::milliseconds timeout,
                                                 bool coalesce = true);
std::unique_ptr<LayoutService> make_rpc_layout_service(RpcNode& node, NodeId master,
                                                       std::chrono::milliseconds timeout);

// What an RPC read went through to complete (degraded-read telemetry).
struct RpcReadStats {
  std::vector<std::uint8_t> bytes;
  std::size_t retries = 0;  // per-piece re-GETs plus extra whole-read passes
  std::size_t passes = 1;   // read rounds (>1 ⇒ the layout was re-fetched)
  bool layout_cached = false;  // served without a master LOOKUP
  bool shared = false;         // piggybacked on a concurrent read (single-flight)
};

// An SP-Client that speaks only RPC: the one SpClient engine
// (cluster/client.h) over the RPC implementation of its seam — a
// PieceStore fanning out kGetBlockMulti/kGetBlock/kPutBlock to the
// workers and a LayoutService over the master's kLookupFile/kFileEpoch/
// kRegisterFile/kReportAccess/kPutStable. Every GET carries a bounded
// wait and is forgotten at the RpcNode on timeout, so dropped replies
// become counted no-ops, not leaks.
//
// Metadata-light path (all on by default; ClientCacheConfig turns the
// pieces off for baselines):
//   * layout cache — the engine's epoch-validated LayoutCache; cache-served
//     accesses flush as one kReportAccess batch;
//   * multi-GET coalescing — pieces that live on the same worker travel in
//     one kGetBlockMulti envelope (`coalesce = false`: one kGetBlock each);
//     a kWrongEpoch reply invalidates the cached layout and the next pass
//     re-LOOKUPs;
//   * single-flight — concurrent reads of the same file share one fetch;
//     followers block on the leader's result and copy its bytes. This gate
//     is the one piece of read logic that lives here rather than in the
//     engine.
class RpcSpClient {
 public:
  // `worker_of_server[i]` maps cache-server index i to its bus NodeId.
  RpcSpClient(Bus& bus, NodeId node_id, NodeId master_node,
              std::vector<NodeId> worker_of_server,
              fault::RetryPolicy retry = fault::RetryPolicy{},
              std::chrono::milliseconds rpc_timeout = std::chrono::milliseconds(1000),
              ClientCacheConfig cache = ClientCacheConfig{});

  // Split into servers.size() near-equal pieces, PUT them stamped with the
  // next layout epoch, REGISTER the layout proposing that epoch, and
  // checkpoint the file to the master's stable tier. Throws on any PUT or
  // REGISTER failure.
  void write(FileId id, std::span<const std::uint8_t> data,
             const std::vector<std::uint32_t>& servers) {
    engine_.write(id, data, servers);
  }

  // Read through the single-flight gate. Throws std::runtime_error on
  // unknown file or once the retry budget is exhausted.
  std::vector<std::uint8_t> read(FileId id);

  // read() plus the retry telemetry.
  RpcReadStats read_with_stats(FileId id);

  // Master-side access count (for tests).
  std::uint64_t access_count(FileId id);

  // Ship pending cache-served access counts to the master now (one
  // kReportAccess envelope). Returns the number of accesses reported.
  std::uint64_t flush_access_reports() { return engine_.flush_access_reports(); }

  // Warm the layout cache for `ids` with a single kLookupBatch envelope
  // (one LOOKUP round-trip instead of ids.size()). Returns how many of
  // the ids the master knew. No-op (returns 0) with the cache disabled.
  std::size_t prefetch_layouts(const std::vector<FileId>& ids);

  const fault::RetryPolicy& retry_policy() const { return engine_.retry_policy(); }
  const LayoutCache& layout_cache() const { return engine_.layout_cache(); }
  RpcNode& node() { return *node_; }
  // The engine itself, for IoResult / ReadScratch reads without the
  // single-flight gate.
  SpClient& engine() { return engine_; }

  // --- Observability (src/obs) ----------------------------------------
  // The engine's "client.*" metrics and trace events (shared names with
  // the in-process deployment, so a mixed deployment aggregates into one
  // view), plus client.singleflight_shared for followers.
  void attach_observability(obs::MetricsRegistry* registry,
                            obs::TraceRecorder* trace = nullptr);

 private:
  // One read in flight per file; followers share the leader's bytes.
  struct Inflight {
    std::promise<std::shared_ptr<const RpcReadStats>> promise;
    std::shared_future<std::shared_ptr<const RpcReadStats>> future;
    std::size_t waiters = 0;  // guarded by sf_mu_
  };

  RpcReadStats engine_read(FileId id);

  // Declared before engine_: the engine's teardown flush still talks
  // through this node.
  std::unique_ptr<RpcNode> node_;
  NodeId master_node_;
  std::chrono::milliseconds rpc_timeout_;
  bool single_flight_;
  SpClient engine_;
  std::mutex sf_mu_;
  std::unordered_map<FileId, std::shared_ptr<Inflight>> inflight_;
  std::atomic<obs::Counter*> singleflight_shared_{nullptr};
};

// An EC-Cache client over the same wire: the one EcClient engine over the
// RPC seam. Writes run the Reed-Solomon encoder and PUT all n shards;
// reads LOOKUP, late-bind k+1 GETs, and decode from the first k that
// arrive.
class RpcEcClient {
 public:
  RpcEcClient(Bus& bus, NodeId node_id, NodeId master_node,
              std::vector<NodeId> worker_of_server, std::size_t k = 10, std::size_t n = 14);

  // Encode into n shards and store them on the n listed (distinct) servers.
  void write(FileId id, std::span<const std::uint8_t> data,
             const std::vector<std::uint32_t>& servers) {
    engine_.write(id, data, servers);
  }

  // Late-binding read + decode + whole-file CRC verification.
  std::vector<std::uint8_t> read(FileId id, Rng& rng) { return engine_.read(id, rng).bytes; }

  EcClient& engine() { return engine_; }

 private:
  std::unique_ptr<RpcNode> node_;  // before engine_, which talks through it
  EcClient engine_;
};

}  // namespace spcache::rpc
