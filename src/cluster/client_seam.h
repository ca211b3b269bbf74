// The seam under every algorithm that moves bytes: where pieces and
// layouts come from.
//
// SpClient and EcClient (cluster/client.h), the RecoveryManager
// (cluster/stable_store.h), the delta repartitioner
// (delta_repartition_file, cluster/repartition_exec.h) — the one mover of
// both Algorithm 2's re-splits and §8's online split/merge — and the
// AlphaController (cluster/alpha_controller.h) each exist once. They reach
// the deployment through two narrow interfaces:
//
//   * PieceStore    — batched put and fetch of one file's pieces, plus the
//                     staged assembly of a new piece from byte ranges of
//                     old ones (stage / publish_staged / discard_staged)
//                     and a best-effort erase.
//   * LayoutService — the SP-Master: lookup, a non-counting peek, epoch,
//                     publish, the epoch-checked layout cutover, batched
//                     access reports, and the stable-tier restore.
//
// Each has an in-process implementation over Cluster/Master/ThreadPool
// (make_inproc_piece_store / make_inproc_layout_service, cluster/client.cpp)
// and an RPC implementation over a Bus (rpc::make_rpc_piece_store /
// rpc::make_rpc_layout_service, rpc/cache_service.cpp). What differs
// between deployments stays behind the seam, so the algorithms branch on
// neither: the GoodputModel modelled times exist only in-process (the RPC
// side reports 0 — its time is real), multi-GET coalescing and the
// per-piece kGetBlock baseline exist only in the RPC PieceStore, and the
// cutover holds the master's per-file guard in-process but relies on the
// master's compare-and-swap over RPC.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "cluster/master.h"
#include "common/units.h"
#include "core/repartition.h"
#include "net/network_model.h"

namespace spcache {

class Cluster;
class StableStore;
class ThreadPool;

// One fetched piece, zero-copy: a view of its bytes plus the owner that
// keeps them alive — the resident BlockRef in-process, the reply payload
// over RPC. Pieces of one multi-GET reply share one owner.
//
// `expected_crc` is the CRC stamped on the block at put, when nobody has
// checked the bytes against it yet: the in-process store hands out the
// resident block unscanned (CacheServer::get_for_serve), so the consumer's
// own pass over the bytes (the fused crc32_copy, the RS decode) is the
// integrity check. Over RPC the worker already checked them in its serve
// copy, and it is nullopt.
struct PieceView {
  std::uint32_t piece = 0;
  std::span<const std::uint8_t> bytes;
  std::shared_ptr<const void> owner;
  std::optional<std::uint32_t> expected_crc;
};

// The piece is the one stamped at put: right length for `size`, and bytes
// matching expected_crc when there is one. A full scan in the latter case;
// a sink with its own pass over the bytes compares that pass's CRC instead.
bool intact(const PieceView& piece, Bytes size);

// Receives fetched pieces. on_piece may run concurrently for distinct
// pieces (in-process fetches run on the ThreadPool) and must not throw.
// A sink handed an expected_crc must treat a piece whose bytes do not
// match it as not delivered: the caller's retry and failover then cover
// that piece as if it had never arrived.
class PieceSink {
 public:
  virtual void on_piece(PieceView piece) = 0;

 protected:
  ~PieceSink() = default;
};

// Tries per byte-range read of a staged assembly.
inline constexpr int kRangeFetchAttempts = 3;

class PieceStore {
 public:
  PieceStore() = default;
  PieceStore(const PieceStore&) = delete;
  PieceStore& operator=(const PieceStore&) = delete;
  virtual ~PieceStore() = default;

  // Store pieces[i] as piece piece_ids[i] of `id` (piece i when piece_ids
  // is empty) on servers[i], stamped with layout generation `epoch`.
  // Returns once every piece is stored; throws if any store failed.
  virtual void put(FileId id, std::span<const std::span<const std::uint8_t>> pieces,
                   const std::vector<std::uint32_t>& servers, std::uint64_t epoch,
                   std::span<const std::uint32_t> piece_ids) = 0;

  // put() of buffers the caller gives away (the EC client's freshly encoded
  // shards). A store that keeps blocks in memory adopts them instead of
  // copying; the default sends them like any other pieces.
  virtual void put_owned(FileId id, std::vector<std::vector<std::uint8_t>> pieces,
                         const std::vector<std::uint32_t>& servers, std::uint64_t epoch) {
    const std::vector<std::span<const std::uint8_t>> views(pieces.begin(), pieces.end());
    put(id, views, servers, epoch, {});
  }

  // Fetch `pieces` of `id` as laid out by `layout`, handing each one that
  // arrives to `sink`. A piece that is missing, unreachable or late is just
  // not delivered: retrying is the caller's business. A piece whose bytes
  // are unchecked carries expected_crc (see PieceView). Returns false when a
  // server rejected `layout.epoch` as stale (the caller re-looks-up).
  virtual bool fetch(FileId id, const FileMeta& layout, std::span<const std::uint32_t> pieces,
                     PieceSink& sink) = 0;

  // Modelled transfer time of reading `pieces` of `layout` over `streams`
  // parallel streams (the slowest piece), and of writing `bytes` to
  // `servers`. 0 where time is measured rather than modelled.
  virtual Seconds read_time(const FileMeta& /*layout*/,
                            std::span<const std::uint32_t> /*pieces*/,
                            std::size_t /*streams*/) const {
    return 0.0;
  }
  virtual Seconds write_time(const std::vector<std::uint32_t>& /*servers*/,
                             Bytes /*bytes*/) const {
    return 0.0;
  }

  // --- Staged assembly (delta repartition) ------------------------------
  // Build piece `piece.new_piece` of `id` on `piece.dst_server` under
  // staging generation `epoch`, out of band: each RangeSource is read from
  // its source server (kRangeFetchAttempts tries) and appended in order, then
  // the piece is sealed (completeness + CRC) so publishing it is a pure
  // splice. Readers see none of it. Returns false on any failure; the
  // caller then discards.
  virtual bool stage(FileId id, const PieceAssembly& piece, std::uint64_t epoch) = 0;
  // Splice a sealed staged piece into the live store, overwriting a
  // same-key resident block. False if it was not staged or the server
  // failed.
  virtual bool publish_staged(FileId id, std::uint32_t piece, std::uint32_t server,
                              std::uint64_t epoch) = 0;
  // Drop a staged piece (abort path). Best effort, never throws.
  virtual void discard_staged(FileId id, std::uint32_t piece, std::uint32_t server,
                              std::uint64_t epoch) = 0;
  // Drop a resident piece (garbage collection of a superseded layout).
  // Best effort: a failed erase leaves a harmless orphan. Never throws.
  virtual void erase(FileId id, std::uint32_t piece, std::uint32_t server) = 0;
};

enum class LookupStatus { kFound, kUnknownFile, kUnavailable };

// A whole file restored from the stable tier, with its modelled transfer
// time at the tier's (slow) bandwidth.
struct StableCopy {
  std::vector<std::uint8_t> bytes;
  Seconds modelled_time = 0.0;
};

class LayoutService {
 public:
  LayoutService() = default;
  LayoutService(const LayoutService&) = delete;
  LayoutService& operator=(const LayoutService&) = delete;
  virtual ~LayoutService() = default;

  // Fresh layout of `id` for a read, written into `out` (the master bumps
  // the file's access count). kUnknownFile is permanent; kUnavailable is a
  // transient failure worth another pass.
  virtual LookupStatus lookup(FileId id, FileMeta& out) = 0;

  // Current layout of `id` without counting an access (the popularity
  // input of the next Algorithm 1 epoch stays the readers' alone).
  // nullopt for an unknown file or an unreachable master.
  virtual std::optional<FileMeta> peek(FileId id) = 0;

  // Current layout epoch; 0 for an unknown file or an unreachable master
  // (publish still keeps epochs monotonic).
  virtual std::uint64_t epoch(FileId id) = 0;

  // Register or replace the layout of `id`. `meta.epoch` is a proposal;
  // returns the epoch the master assigned. Throws on failure.
  virtual std::uint64_t publish(FileId id, const FileMeta& meta) = 0;

  // Optimistic layout cutover: if `id` is still at `expected_epoch`, run
  // `splice` (which makes the new layout's pieces live) and swap in `next`
  // — but only if the epoch is still `expected_epoch` at the swap, checked
  // atomically by the master (Master::update_file_if). Returns true iff
  // the swap landed, and then runs `retire` (the old layout's clean-up).
  // In-process the master's per-file guard is held across the check, the
  // splice, the swap and `retire`, so no later guarded layout change of
  // the file can interleave with the clean-up; over RPC the epoch is
  // checked before the splice and compare-and-swapped after it, and
  // `retire` follows the swap.
  virtual bool cutover(FileId id, std::uint64_t expected_epoch, const FileMeta& next,
                       const std::function<bool()>& splice,
                       const std::function<void()>& retire) = 0;

  // Batched popularity report for cache-served reads. Returns the accesses
  // applied, or nullopt when the report was lost (the caller re-queues).
  virtual std::optional<std::uint64_t> report_access(
      const std::vector<std::pair<FileId, std::uint64_t>>& deltas) = 0;

  // The whole file from the stable tier; nullopt where there is none.
  virtual std::optional<StableCopy> restore(FileId id) = 0;

  // Best-effort checkpoint of a freshly written file to the stable tier.
  // The RPC master hosts its deployment's tier and is fed here; an
  // in-process StableStore is checkpointed by its owner, so the default
  // does nothing.
  virtual void checkpoint(FileId /*id*/, std::span<const std::uint8_t> /*data*/) {}
};

// The in-process seam. `pool` fans batched puts and fetches out; nullptr
// runs them on the caller's thread. `stable` (may be nullptr) backs
// restore().
std::unique_ptr<PieceStore> make_inproc_piece_store(Cluster& cluster, ThreadPool* pool,
                                                    GoodputModel goodput = GoodputModel{});
std::unique_ptr<LayoutService> make_inproc_layout_service(Master& master, StableStore* stable);

}  // namespace spcache
