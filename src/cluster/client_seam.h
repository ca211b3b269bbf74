// The seam under the SP and EC clients: where their bytes and layouts come
// from.
//
// SpClient and EcClient (cluster/client.h) are the only read/write engines.
// They reach the deployment through two narrow interfaces:
//
//   * PieceStore    — a batched put and a batched fetch of one file's pieces.
//   * LayoutService — the SP-Master: lookup, epoch, publish, batched access
//                     reports, and the stable-tier restore.
//
// Each has an in-process implementation over Cluster/Master/ThreadPool
// (built by the clients' Cluster& constructors, cluster/client.cpp) and an
// RPC implementation over a Bus (built by RpcSpClient/RpcEcClient,
// rpc/cache_service.cpp). What differs between deployments stays behind
// the seam, so the engines branch on neither: the GoodputModel modelled
// times exist only in-process (the RPC side reports 0 — its time is real),
// and multi-GET coalescing and the per-piece kGetBlock baseline exist only
// in the RPC PieceStore.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "cluster/master.h"
#include "common/units.h"

namespace spcache {

// One fetched piece, zero-copy: a view of its bytes plus the owner that
// keeps them alive — the resident BlockRef in-process, the reply payload
// over RPC. Pieces of one multi-GET reply share one owner.
struct PieceView {
  std::uint32_t piece = 0;
  std::span<const std::uint8_t> bytes;
  std::shared_ptr<const void> owner;
};

// Receives fetched pieces. on_piece may run concurrently for distinct
// pieces (in-process fetches run on the ThreadPool) and must not throw.
class PieceSink {
 public:
  virtual void on_piece(PieceView piece) = 0;

 protected:
  ~PieceSink() = default;
};

class PieceStore {
 public:
  PieceStore() = default;
  PieceStore(const PieceStore&) = delete;
  PieceStore& operator=(const PieceStore&) = delete;
  virtual ~PieceStore() = default;

  // Store pieces[i] as piece i of `id` on servers[i], stamped with layout
  // generation `epoch`. Returns once every piece is stored; throws if any
  // store failed.
  virtual void put(FileId id, std::span<const std::span<const std::uint8_t>> pieces,
                   const std::vector<std::uint32_t>& servers, std::uint64_t epoch) = 0;

  // put() of buffers the caller gives away (the EC client's freshly encoded
  // shards). A store that keeps blocks in memory adopts them instead of
  // copying; the default sends them like any other pieces.
  virtual void put_owned(FileId id, std::vector<std::vector<std::uint8_t>> pieces,
                         const std::vector<std::uint32_t>& servers, std::uint64_t epoch) {
    const std::vector<std::span<const std::uint8_t>> views(pieces.begin(), pieces.end());
    put(id, views, servers, epoch);
  }

  // Fetch `pieces` of `id` as laid out by `layout`, handing each one that
  // arrives to `sink`. A piece that is missing, unreachable or late is just
  // not delivered: retrying is the caller's business. Returns false when a
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

  // Current layout epoch; 0 for an unknown file or an unreachable master
  // (publish still keeps epochs monotonic).
  virtual std::uint64_t epoch(FileId id) = 0;

  // Register or replace the layout of `id`. `meta.epoch` is a proposal;
  // returns the epoch the master assigned. Throws on failure.
  virtual std::uint64_t publish(FileId id, const FileMeta& meta) = 0;

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

}  // namespace spcache
