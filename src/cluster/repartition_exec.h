// Repartition execution: sequential baseline vs. SP-Cache's parallel
// scheme (Section 6.2, Fig. 9b; evaluated in Figs. 16-18).
//
// Sequential ("naive") — the conference-version behaviour the journal paper
// improves on: the SP-Master collects EVERY file over its own NIC,
// re-splits it, and writes the new partitions back out, one file at a time.
// Modelled time = (bytes read + bytes written) / master bandwidth, summed
// over all files.
//
// Parallel — only the files whose partition count changed are touched; each
// is handled by an SP-Repartitioner on a server that already holds one of
// its pieces (that piece moves for free). Repartitioners run concurrently;
// modelled time = max over repartitioners of their remote traffic divided
// by their NIC bandwidth.
//
// Delta — the parallel scheme moving only the byte ranges whose server
// changes. Its per-file algorithm, delta_repartition_file, runs over the
// client seam (cluster/client_seam.h), so one implementation serves both
// deployments: execute_delta_repartition fans it out over a ThreadPool
// in-process, and the RPC SP-Repartitioners (rpc/repartitioner_service)
// each run it over the wire for the files the coordinator assigns them.
//
// All executors move the real blocks and update the master, so the test
// suite can verify post-conditions (every file reassembles bit-exactly
// after repartition; old pieces are gone).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/units.h"
#include "cluster/cache_server.h"
#include "cluster/client_seam.h"
#include "cluster/master.h"
#include "core/repartition.h"

namespace spcache::obs {
class MetricsRegistry;
class TraceRecorder;
}  // namespace spcache::obs

namespace spcache {

struct RepartitionStats {
  Seconds modelled_time = 0.0;  // virtual completion time of the data movement
  Bytes bytes_moved = 0;        // remote traffic (excludes free local pieces)
  // Delta scheme only: bytes already resident on their destination server
  // (never sent), and the widest per-file publish critical section (wall).
  Bytes bytes_saved = 0;
  Seconds max_cutover_time = 0.0;
  std::size_t files_touched = 0;  // files whose new layout was published
};

// Sequential baseline: re-splits every file in `plan.new_k` through the
// master (bandwidth `master_bandwidth`), placing partitions on random
// distinct servers. With `registry`/`trace` non-null the run records
// "master.repartitions" / "master.repartition_s" (wall time of the epoch)
// and a kRepartitionStart/kRepartitionDone event pair.
RepartitionStats execute_sequential_repartition(Cluster& cluster, Master& master,
                                                const RepartitionPlan& plan,
                                                Bandwidth master_bandwidth, Rng& rng,
                                                obs::MetricsRegistry* registry = nullptr,
                                                obs::TraceRecorder* trace = nullptr);

// Parallel scheme: executes only plan.changed_files on their assigned
// executors, concurrently via `pool`. Same optional observability hooks.
RepartitionStats execute_parallel_repartition(Cluster& cluster, Master& master,
                                              const RepartitionPlan& plan, ThreadPool& pool,
                                              obs::MetricsRegistry* registry = nullptr,
                                              obs::TraceRecorder* trace = nullptr);

// Delta scheme, one file: moves `id` onto the target layout
// (new_piece_sizes[j] bytes of piece j on new_servers[j]; a re-split passes
// plain_piece_sizes, an online split/merge its planned sizes) over the
// seam. Computes the range transfer plan (core/repartition) from the
// master's current layout, read with peek() so the move counts no access,
// and moves ONLY the byte ranges whose source server differs from their
// destination — ranges already resident on the destination never cross a
// NIC, and no repartitioner ever materializes the whole file. Reads keep
// serving the old layout the entire time: new pieces are staged under
// epoch+1 out of band, then published in one short LayoutService::cutover
// (O(k) splices plus the master's epoch-checked layout swap), whose
// retire step garbage-collects the old pieces — readers racing the
// cutover converge via the size-mismatch/invalidate retry path. A new
// piece identical to an old one (same index, server and bytes) is neither
// staged nor spliced. A failed stage or splice, or a file whose epoch
// moved underneath (another writer landed a layout), discards the staged
// pieces and keeps the old layout: delta repartition is optimistic and
// never blocks a concurrent writer. A dead server the move reads from or
// writes to fails its stage or splice the same way; a dead holder whose
// piece stays in place is not touched, and the move lands past it.
// Returns nullopt then
// (and for an unknown file, or sizes that do not sum to its size);
// otherwise the plan it executed, the piece count it moved from and the
// wall time of its splice-and-swap.
struct DeltaCutover {
  RangeTransferPlan plan;
  std::size_t old_partitions = 0;
  Seconds cutover_time = 0.0;
};
std::optional<DeltaCutover> delta_repartition_file(PieceStore& store, LayoutService& layouts,
                                                   FileId id,
                                                   const std::vector<Bytes>& new_piece_sizes,
                                                   const std::vector<std::uint32_t>& new_servers);

// Per-NIC traffic of executed moves, for their modelled time: every remote
// range charges its length to the source's TX and the destination's RX,
// and the moves finish when the busiest NIC drains — max over servers of
// (tx + rx) / bandwidth.
class NicLedger {
 public:
  explicit NicLedger(std::size_t n_servers) : tx_(n_servers, 0.0), rx_(n_servers, 0.0) {}
  void add(const RangeTransferPlan& plan);
  Seconds drain_time(const std::vector<Bandwidth>& bandwidth) const;

 private:
  std::vector<double> tx_;
  std::vector<double> rx_;
};

// Delta scheme over the threaded cluster: delta_repartition_file onto a
// split_plain layout for every changed file, concurrently on `pool`. Files
// it skips are not counted in files_touched. Modelled time is the
// NicLedger's.
//
// With `registry` non-null also bumps repartition.bytes_moved/bytes_saved
// and records repartition.cutover_us per published file; with `trace`
// non-null emits one kRepartitionCutover event per file.
RepartitionStats execute_delta_repartition(Cluster& cluster, Master& master,
                                           const RepartitionPlan& plan, ThreadPool& pool,
                                           obs::MetricsRegistry* registry = nullptr,
                                           obs::TraceRecorder* trace = nullptr);

}  // namespace spcache
