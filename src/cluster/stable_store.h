// Stable backing storage and failure recovery (Section 8 "Fault
// Tolerance").
//
// SP-Cache is redundancy-free, so a crashed cache server loses its
// partitions. The paper's answer: the *underlying* storage system (HDFS /
// S3, cross-rack replicated) already holds every file durably — Alluxio
// periodically checkpoints cached files there — so SP-Cache recovers lost
// partitions from stable storage rather than keeping cache-level replicas.
//
// `StableStore` models that checkpointed tier: a durable, checksummed
// file-level store with a (slow) recovery bandwidth. `RecoveryManager`
// repairs a file whose pieces went missing: it restores the bytes from the
// stable store, re-splits them per the master's current layout, re-places
// the lost pieces (least-loaded distinct servers), and returns the volume
// moved plus the modelled recovery time.
//
// RecoveryManager is the one repair coordinator of both deployments. It
// works on the Master and StableStore directly — the SP-Master's process
// hosts both — and moves bytes only through a PieceStore
// (cluster/client_seam.h): the threaded cluster's in-process store, or, in
// spcache_masterd, the RPC store whose puts are kPutBlock envelopes to
// the surviving workers.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "cluster/cache_server.h"
#include "cluster/client_seam.h"
#include "cluster/master.h"
#include "common/units.h"

namespace spcache {

class StableStore {
 public:
  // `bandwidth` is the effective restore throughput from stable storage —
  // disk/cross-rack, far below memory speed.
  explicit StableStore(Bandwidth bandwidth = mbps(400));

  Bandwidth bandwidth() const { return bandwidth_; }

  // Durably record a full file (Alluxio-style checkpoint).
  void checkpoint(FileId id, std::span<const std::uint8_t> bytes);

  bool contains(FileId id) const;

  // Restore a full file; nullopt if never checkpointed. Throws on
  // checksum mismatch (corrupted stable copy — should never happen).
  std::optional<std::vector<std::uint8_t>> restore(FileId id) const;

  std::size_t file_count() const;
  Bytes bytes_stored() const;

 private:
  Bandwidth bandwidth_;
  mutable std::mutex mu_;
  std::unordered_map<FileId, Block> files_;
};

struct RecoveryStats {
  std::size_t pieces_recovered = 0;
  std::size_t files_skipped = 0;  // no stable copy / no live replacement server
  Bytes bytes_restored = 0;       // pulled from stable storage
  Seconds modelled_time = 0;      // restore transfer + re-placement writes
};

class RecoveryManager {
 public:
  // Liveness verdict for one server: true = it is up. The threaded
  // cluster asks CacheServer::alive; masterd asks its HealthMonitor's
  // cached heartbeat state.
  using LivenessFn = std::function<bool(std::uint32_t server)>;

  // Threaded cluster: an in-process PieceStore over `cluster`, liveness
  // from Cluster::is_alive.
  RecoveryManager(Cluster& cluster, Master& master, StableStore& stable);
  // Any deployment: lost pieces are re-put through `store` onto servers
  // 0..n_servers-1 that `is_alive` reports up.
  RecoveryManager(PieceStore& store, Master& master, StableStore& stable, std::size_t n_servers,
                  LivenessFn is_alive);

  // Scan the file's layout and re-create any missing pieces from stable
  // storage. Keeps surviving pieces in place; a piece on a live server
  // that does not arrive when fetched (absent, unreadable, or failing its
  // checksum) is rewritten to that server under the current epoch; a
  // piece whose server is down is skipped — that is
  // repair_after_server_loss territory. Returns the stats; throws
  // std::runtime_error if the file was never checkpointed or its stable
  // copy does not match the cached file.
  RecoveryStats repair_file(FileId id);

  // Handle a whole-server loss: for every file with a piece on `server`,
  // move that piece's slot to the least-loaded live server not already
  // holding the file — or, when every live server already holds it (a
  // cluster smaller than the file's partition count), co-locate it on the
  // least-loaded live survivor — then re-put the lost slices from stable
  // storage stamped with the next layout epoch, and publish the new layout.
  //
  // Safe to run while readers are in flight and safe to run twice (e.g.
  // two HealthMonitor ticks racing): each file is handled under its
  // master-side mutation guard (Master::lock_file); a file with no slot
  // left on the failed server — already repaired by a concurrent run — is
  // skipped; and replacement pieces are written to their new servers
  // *before* the layout is published, so a reader holding the new layout
  // always finds the bytes (readers holding the old layout retry and pick
  // up the new one). A file is skipped and counted in files_skipped,
  // never aborting the sweep, when its stable copy is missing or does not
  // match the layout's size and CRC, when no live server is left, or when
  // a put fails (the old layout stays; the next sweep retries).
  RecoveryStats repair_after_server_loss(std::uint32_t failed_server);

  // --- Observability (src/obs) ----------------------------------------
  // Resolve "recovery.pieces_recovered|bytes_restored|repair_model_s" in
  // `registry` once; every successful repair adds its RecoveryStats to the
  // counters and records the modelled repair time. Detached by default.
  void attach_observability(obs::MetricsRegistry* registry);

  struct ObsProbes {
    obs::Counter* pieces = nullptr;
    obs::Counter* bytes = nullptr;
    obs::LatencyHistogram* repair_time = nullptr;
  };

 private:
  // Body of repair_file, run while the caller already holds the file's
  // master-side mutation guard.
  RecoveryStats repair_pieces(FileId id);
  // Fold one repair's stats into the attached probes (no-op when detached).
  void record_repair(const RecoveryStats& stats);

  std::unique_ptr<PieceStore> owned_store_;  // the Cluster& constructor's
  PieceStore& store_;
  Master& master_;
  StableStore& stable_;
  std::size_t n_servers_;
  LivenessFn is_alive_;
  std::unique_ptr<ObsProbes> probes_storage_;
  std::atomic<ObsProbes*> probes_{nullptr};
};

}  // namespace spcache
