#include "cluster/repartition_exec.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <unordered_map>

#include "common/log.h"
#include "erasure/rs_code.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace spcache {

namespace {

// Brackets one repartition epoch with the kRepartitionStart/Done event
// pair and the master-side epoch metrics. Wall time, not modelled time:
// the histogram answers "how long was the metadata/data path busy".
class RepartitionScope {
 public:
  RepartitionScope(obs::MetricsRegistry* registry, obs::TraceRecorder* trace,
                   std::size_t files_planned)
      : registry_(registry), trace_(trace) {
    if (trace_) {
      op_ = trace_->begin_op();
      trace_->record(obs::TraceKind::kRepartitionStart, op_, 0, 0, 0,
                     static_cast<double>(files_planned));
    }
    if (registry_ || trace_) start_ = std::chrono::steady_clock::now();
  }

  void finish(const RepartitionStats& stats) {
    if (registry_ == nullptr && trace_ == nullptr) return;
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
    if (registry_) {
      registry_->counter(obs::names::kMasterRepartitions).add(1);
      registry_->histogram(obs::names::kMasterRepartitionLatency).record(wall);
    }
    if (trace_) {
      trace_->record(obs::TraceKind::kRepartitionDone, op_, 0, 0, 0, stats.modelled_time);
    }
  }

 private:
  obs::MetricsRegistry* registry_;
  obs::TraceRecorder* trace_;
  std::uint64_t op_ = 0;
  std::chrono::steady_clock::time_point start_{};
};

// Fetch all pieces of a file and reassemble. Returns the raw bytes and the
// number of remote bytes pulled (pieces on `local_server` are free;
// pass a sentinel >= cluster size to count everything as remote).
// Zero-copy fetch: each shared block is copied exactly once, into its
// final offset of the reassembled file.
std::vector<std::uint8_t> assemble_file(Cluster& cluster, const FileMeta& meta, FileId id,
                                        std::uint32_t local_server, Bytes* remote_bytes) {
  std::vector<std::uint8_t> out(meta.size);
  Bytes offset = 0;
  for (std::size_t i = 0; i < meta.partitions(); ++i) {
    auto block = cluster.server(meta.servers[i]).get(BlockKey{id, static_cast<PieceIndex>(i)});
    if (!block) throw std::runtime_error("repartition: missing piece during assembly");
    if (offset + block->bytes.size() > out.size()) {
      throw std::runtime_error("repartition: pieces exceed recorded file size");
    }
    if (meta.servers[i] != local_server) *remote_bytes += block->bytes.size();
    std::copy(block->bytes.begin(), block->bytes.end(),
              out.begin() + static_cast<std::ptrdiff_t>(offset));
    offset += block->bytes.size();
  }
  if (offset != out.size()) {
    throw std::runtime_error("repartition: pieces shorter than recorded file size");
  }
  return out;
}

// Remove the old layout's blocks.
void erase_old_pieces(Cluster& cluster, const FileMeta& meta, FileId id) {
  for (std::size_t i = 0; i < meta.partitions(); ++i) {
    cluster.server(meta.servers[i]).erase(BlockKey{id, static_cast<PieceIndex>(i)});
  }
}

// Split `data` into `servers.size()` pieces and store them; returns the
// new meta and accumulates remote write bytes (writes to `local_server`
// are free).
FileMeta scatter_file(Cluster& cluster, FileId id, const std::vector<std::uint8_t>& data,
                      const std::vector<std::uint32_t>& servers, std::uint32_t local_server,
                      std::uint32_t file_crc, Bytes* remote_bytes) {
  auto pieces = split_plain(data, servers.size());
  FileMeta meta;
  meta.size = data.size();
  meta.servers = servers;
  meta.file_crc = file_crc;
  meta.piece_sizes.reserve(pieces.size());
  for (const auto& p : pieces) meta.piece_sizes.push_back(p.size());
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    if (servers[i] != local_server) *remote_bytes += pieces[i].size();
    cluster.server(servers[i]).put(BlockKey{id, static_cast<PieceIndex>(i)},
                                   std::move(pieces[i]));
  }
  return meta;
}

constexpr std::uint32_t kNoLocalServer = 0xFFFFFFFFu;

}  // namespace

RepartitionStats execute_sequential_repartition(Cluster& cluster, Master& master,
                                                const RepartitionPlan& plan,
                                                Bandwidth master_bandwidth, Rng& rng,
                                                obs::MetricsRegistry* registry,
                                                obs::TraceRecorder* trace) {
  assert(master_bandwidth > 0.0);
  RepartitionScope scope(registry, trace, plan.new_k.size());
  RepartitionStats stats;
  const auto ids = master.file_ids();
  assert(ids.size() == plan.new_k.size());
  for (FileId id : ids) {
    // Per-file guard: the read-modify-write below is linearizable against
    // any concurrent layout mutation of the same file.
    const auto guard = master.lock_file(id);
    if (!guard) continue;
    const auto meta = master.peek(id);
    if (!meta) continue;
    // The master pulls every piece over its own NIC and pushes every new
    // piece back out — nothing is local to the master.
    Bytes moved = 0;
    const auto data = assemble_file(cluster, *meta, id, kNoLocalServer, &moved);
    erase_old_pieces(cluster, *meta, id);
    const std::size_t k = plan.new_k[id];
    const auto picks = rng.sample_without_replacement(cluster.size(), k);
    std::vector<std::uint32_t> servers;
    servers.reserve(k);
    for (std::size_t s : picks) servers.push_back(static_cast<std::uint32_t>(s));
    auto new_meta =
        scatter_file(cluster, id, data, servers, kNoLocalServer, meta->file_crc, &moved);
    master.update_file(id, std::move(new_meta));
    stats.bytes_moved += moved;
    ++stats.files_touched;
  }
  stats.modelled_time = static_cast<double>(stats.bytes_moved) / master_bandwidth;
  scope.finish(stats);
  SPCACHE_LOG(kInfo) << "sequential repartition: " << stats.files_touched << " files, "
                     << stats.bytes_moved / kMB << " MB via master, modelled "
                     << stats.modelled_time << " s";
  return stats;
}

RepartitionStats execute_parallel_repartition(Cluster& cluster, Master& master,
                                              const RepartitionPlan& plan, ThreadPool& pool,
                                              obs::MetricsRegistry* registry,
                                              obs::TraceRecorder* trace) {
  RepartitionScope scope(registry, trace, plan.changed_files.size());
  RepartitionStats stats;
  const std::size_t n_changed = plan.changed_files.size();
  stats.files_touched = n_changed;
  if (n_changed == 0) {
    scope.finish(stats);
    return stats;
  }

  // Group the changed files by executing repartitioner so per-executor
  // traffic can be accumulated (the fleet finishes when the busiest
  // repartitioner does).
  std::unordered_map<std::uint32_t, std::vector<std::size_t>> by_executor;
  for (std::size_t j = 0; j < n_changed; ++j) by_executor[plan.executor[j]].push_back(j);

  std::mutex stats_mu;
  Seconds max_executor_time = 0.0;
  Bytes total_moved = 0;

  std::vector<std::pair<std::uint32_t, std::vector<std::size_t>>> groups(by_executor.begin(),
                                                                         by_executor.end());
  pool.parallel_for(groups.size(), [&](std::size_t g) {
    const std::uint32_t executor = groups[g].first;
    const Bandwidth bw = cluster.server(executor).bandwidth();
    Bytes moved = 0;
    for (std::size_t j : groups[g].second) {
      const FileId id = plan.changed_files[j];
      // Algorithm 2's read-modify-write stays linearizable per file under
      // the sharded master: the guard serializes this repartitioner against
      // any concurrent layout mutation of the same file, while other files
      // proceed in parallel.
      const auto guard = master.lock_file(id);
      if (!guard) throw std::runtime_error("parallel repartition: file vanished");
      const auto meta = master.peek(id);
      if (!meta) throw std::runtime_error("parallel repartition: file vanished");
      const auto data = assemble_file(cluster, *meta, id, executor, &moved);
      erase_old_pieces(cluster, *meta, id);
      auto new_meta = scatter_file(cluster, id, data, plan.new_servers[j], executor,
                                   meta->file_crc, &moved);
      master.update_file(id, std::move(new_meta));
    }
    const Seconds t = static_cast<double>(moved) / bw;
    std::lock_guard lock(stats_mu);
    max_executor_time = std::max(max_executor_time, t);
    total_moved += moved;
  });

  stats.modelled_time = max_executor_time;
  stats.bytes_moved = total_moved;
  scope.finish(stats);
  SPCACHE_LOG(kInfo) << "parallel repartition: " << stats.files_touched << " files across "
                     << by_executor.size() << " executors, " << stats.bytes_moved / kMB
                     << " MB moved, modelled " << stats.modelled_time << " s";
  return stats;
}

std::optional<DeltaCutover> delta_repartition_file(PieceStore& store, LayoutService& layouts,
                                                   FileId id,
                                                   const std::vector<Bytes>& new_piece_sizes,
                                                   const std::vector<std::uint32_t>& new_servers) {
  const auto meta = layouts.peek(id);
  if (!meta || new_piece_sizes.size() != new_servers.size() ||
      std::accumulate(new_piece_sizes.begin(), new_piece_sizes.end(), Bytes{0}) != meta->size) {
    return std::nullopt;
  }
  const std::uint64_t staging_epoch = meta->epoch + 1;
  DeltaCutover out;
  out.plan = plan_range_transfer(meta->size, meta->piece_sizes, meta->servers, new_piece_sizes,
                                 new_servers);
  out.old_partitions = meta->partitions();
  const auto& pieces = out.plan.pieces;

  FileMeta next;
  next.size = meta->size;
  next.servers = new_servers;
  next.piece_sizes = new_piece_sizes;
  next.file_crc = meta->file_crc;  // content is unchanged, only its cut
  next.epoch = staging_epoch;

  // A new piece that is an old piece verbatim — same index, server and
  // bytes — is live already, so it is neither staged nor spliced (most
  // pieces of a tail merge are).
  std::vector<const PieceAssembly*> fresh;
  for (const auto& piece : pieces) {
    const bool resident = piece.sources.size() == 1 && piece.sources[0].local &&
                          piece.sources[0].old_piece == piece.new_piece &&
                          piece.piece_size == meta->piece_sizes[piece.new_piece];
    if (!resident) fresh.push_back(&piece);
  }

  // Phase 1 — stage every fresh piece out of band. Readers keep hitting
  // the old layout; nothing here is visible to them.
  bool staged = true;
  for (const auto* piece : fresh) {
    if (!store.stage(id, *piece, staging_epoch)) {
      staged = false;
      break;
    }
  }

  // Phase 2 — cutover: splice every sealed piece live and swap the layout,
  // unless another writer landed a layout since we planned (our staged
  // bytes would describe a stale file). A splice that fails part-way may
  // have overwritten same-key old pieces; readers detect the size
  // mismatch and fall back to stable storage until the next repartition
  // or repair lands a consistent layout.
  //
  // Phase 3 — GC, once the swap landed: an old piece whose index AND
  // server survive into the new layout was kept or overwritten by the
  // splice (same BlockKey) and must not be erased; everything else is now
  // unreachable through the master and can go. It runs inside the cutover
  // (under the file's guard in-process), so a later layout change cannot
  // land pieces under a key this GC is about to erase. A reader still
  // holding the old layout either sees unchanged bytes (CRC passes) or a
  // missing/mis-sized piece — both funnel into the invalidate/retry path.
  std::chrono::steady_clock::time_point t0;
  std::chrono::steady_clock::time_point t1;
  const auto splice = [&] {
    t0 = std::chrono::steady_clock::now();
    for (const auto* piece : fresh) {
      if (!store.publish_staged(id, piece->new_piece, piece->dst_server, staging_epoch)) {
        return false;
      }
    }
    return true;
  };
  const auto retire = [&] {
    t1 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < meta->servers.size(); ++i) {
      const bool reused_in_place = i < new_servers.size() && meta->servers[i] == new_servers[i];
      if (!reused_in_place) store.erase(id, static_cast<std::uint32_t>(i), meta->servers[i]);
    }
  };
  const bool swapped = staged && layouts.cutover(id, meta->epoch, next, splice, retire);
  if (!swapped) {
    for (const auto* piece : fresh) {
      store.discard_staged(id, piece->new_piece, piece->dst_server, staging_epoch);
    }
    return std::nullopt;
  }
  out.cutover_time = std::chrono::duration<double>(t1 - t0).count();
  return out;
}

void NicLedger::add(const RangeTransferPlan& plan) {
  for (const auto& piece : plan.pieces) {
    for (const auto& range : piece.sources) {
      if (range.local) continue;
      tx_[range.src_server] += static_cast<double>(range.length);
      rx_[piece.dst_server] += static_cast<double>(range.length);
    }
  }
}

Seconds NicLedger::drain_time(const std::vector<Bandwidth>& bandwidth) const {
  Seconds busiest = 0.0;
  for (std::size_t s = 0; s < tx_.size(); ++s) {
    busiest = std::max(busiest, (tx_[s] + rx_[s]) / bandwidth[s]);
  }
  return busiest;
}

RepartitionStats execute_delta_repartition(Cluster& cluster, Master& master,
                                           const RepartitionPlan& plan, ThreadPool& pool,
                                           obs::MetricsRegistry* registry,
                                           obs::TraceRecorder* trace) {
  RepartitionScope scope(registry, trace, plan.changed_files.size());
  RepartitionStats stats;
  const std::size_t n_changed = plan.changed_files.size();
  if (n_changed == 0) {
    scope.finish(stats);
    return stats;
  }
  // One file per pool task; the store stages on the task's own thread.
  const auto store = make_inproc_piece_store(cluster, nullptr);
  const auto layouts = make_inproc_layout_service(master, nullptr);

  // Shared accumulators: per-NIC traffic for the modelled time, plus the
  // headline byte counts. One mutex, taken once per file.
  std::mutex stats_mu;
  NicLedger nics(cluster.size());

  pool.parallel_for(n_changed, [&](std::size_t j) {
    const FileId id = plan.changed_files[j];
    const auto meta = master.peek(id);
    if (!meta) return;
    const auto& servers = plan.new_servers[j];
    const auto done = delta_repartition_file(
        *store, *layouts, id, plain_piece_sizes(meta->size, servers.size()), servers);
    if (!done) return;
    const auto& rplan = done->plan;
    if (registry) {
      registry->counter(obs::names::kRepartitionBytesMoved).add(rplan.bytes_moved);
      registry->counter(obs::names::kRepartitionBytesSaved).add(rplan.bytes_saved);
      registry->histogram(obs::names::kRepartitionCutover).record(done->cutover_time * 1e6);
    }
    if (trace) {
      trace->record(obs::TraceKind::kRepartitionCutover, 0, id, 0, 0, done->cutover_time);
    }

    std::lock_guard lock(stats_mu);
    stats.bytes_moved += rplan.bytes_moved;
    stats.bytes_saved += rplan.bytes_saved;
    stats.max_cutover_time = std::max(stats.max_cutover_time, done->cutover_time);
    ++stats.files_touched;
    nics.add(rplan);
  });

  stats.modelled_time = nics.drain_time(cluster.bandwidths());
  scope.finish(stats);
  SPCACHE_LOG(kInfo) << "delta repartition: " << stats.files_touched << " files, "
                     << stats.bytes_moved / kMB << " MB moved, " << stats.bytes_saved / kMB
                     << " MB saved in place, modelled " << stats.modelled_time
                     << " s, max cutover " << stats.max_cutover_time * 1e6 << " us";
  return stats;
}

}  // namespace spcache
