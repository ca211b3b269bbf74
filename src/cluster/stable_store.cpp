#include "cluster/stable_store.h"

#include <algorithm>
#include <cassert>
#include <span>
#include <stdexcept>

#include "common/log.h"
#include "erasure/rs_code.h"
#include "obs/metrics.h"

namespace spcache {

StableStore::StableStore(Bandwidth bandwidth) : bandwidth_(bandwidth) {
  assert(bandwidth > 0.0);
}

void StableStore::checkpoint(FileId id, std::span<const std::uint8_t> bytes) {
  Block block;
  block.bytes.assign(bytes.begin(), bytes.end());
  block.crc = crc32(block.bytes);
  std::lock_guard lock(mu_);
  files_[id] = std::move(block);
}

bool StableStore::contains(FileId id) const {
  std::lock_guard lock(mu_);
  return files_.count(id) > 0;
}

std::optional<std::vector<std::uint8_t>> StableStore::restore(FileId id) const {
  Block copy;
  {
    std::lock_guard lock(mu_);
    const auto it = files_.find(id);
    if (it == files_.end()) return std::nullopt;
    copy = it->second;
  }
  if (crc32(copy.bytes) != copy.crc) {
    throw std::runtime_error("StableStore::restore: corrupted stable copy");
  }
  return copy.bytes;
}

std::size_t StableStore::file_count() const {
  std::lock_guard lock(mu_);
  return files_.size();
}

Bytes StableStore::bytes_stored() const {
  std::lock_guard lock(mu_);
  Bytes total = 0;
  for (const auto& [id, block] : files_) total += block.bytes.size();
  return total;
}

RecoveryManager::RecoveryManager(Cluster& cluster, Master& master, StableStore& stable)
    : owned_store_(make_inproc_piece_store(cluster, nullptr)),
      store_(*owned_store_),
      master_(master),
      stable_(stable),
      n_servers_(cluster.size()),
      is_alive_([&cluster](std::uint32_t s) { return cluster.is_alive(s); }) {}

RecoveryManager::RecoveryManager(PieceStore& store, Master& master, StableStore& stable,
                                 std::size_t n_servers, LivenessFn is_alive)
    : store_(store),
      master_(master),
      stable_(stable),
      n_servers_(n_servers),
      is_alive_(std::move(is_alive)) {}

RecoveryStats RecoveryManager::repair_file(FileId id) {
  // Serialize against concurrent layout mutations (repartition, online
  // split/merge) of the same file while pieces are re-created.
  const auto guard = master_.lock_file(id);
  if (!guard) throw std::runtime_error("repair_file: unknown file");
  const auto stats = repair_pieces(id);
  record_repair(stats);
  return stats;
}

void RecoveryManager::attach_observability(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    probes_.store(nullptr, std::memory_order_release);
    return;
  }
  namespace n = obs::names;
  auto probes = std::make_unique<ObsProbes>();
  probes->pieces = &registry->counter(n::kRecoveryPieces);
  probes->bytes = &registry->counter(n::kRecoveryBytes);
  probes->repair_time = &registry->histogram(n::kRecoveryRepairTime);
  probes_storage_ = std::move(probes);
  probes_.store(probes_storage_.get(), std::memory_order_release);
}

void RecoveryManager::record_repair(const RecoveryStats& stats) {
  const auto* probes = probes_.load(std::memory_order_acquire);
  if (probes == nullptr) return;
  probes->pieces->add(stats.pieces_recovered);
  probes->bytes->add(stats.bytes_restored);
  if (stats.pieces_recovered > 0) probes->repair_time->record(stats.modelled_time);
}

namespace {

// The slices of the restored file that rebuild `pieces` of `meta`, and the
// servers `meta` places them on. The write path stores contiguous slices,
// so cutting the file by the layout's (possibly heterogeneous —
// write_sized) piece sizes reproduces each piece exactly, split_plain's
// rounding included.
struct Replacement {
  std::vector<std::span<const std::uint8_t>> slices;
  std::vector<std::uint32_t> servers;
  Bytes bytes = 0;
};
Replacement slice_pieces(const std::vector<std::uint8_t>& file, const FileMeta& meta,
                         const std::vector<std::uint32_t>& pieces) {
  std::vector<Bytes> offsets(meta.partitions() + 1, 0);
  for (std::size_t i = 0; i < meta.partitions(); ++i) {
    offsets[i + 1] = offsets[i] + meta.piece_sizes[i];
  }
  Replacement out;
  for (const std::uint32_t i : pieces) {
    out.slices.emplace_back(file.data() + offsets[i], meta.piece_sizes[i]);
    out.servers.push_back(meta.servers[i]);
    out.bytes += meta.piece_sizes[i];
  }
  return out;
}

// A stable copy is usable only if it is the file the layout describes:
// the slices are cut from it by the layout's piece sizes.
bool matches(const std::vector<std::uint8_t>& bytes, const FileMeta& meta) {
  return bytes.size() == meta.size && crc32(bytes) == meta.file_crc;
}

// Those of `pieces` that do not arrive intact when fetched: absent,
// unreachable, or (in-process, where nothing else scans a resident block)
// rotted since the put.
std::vector<std::uint32_t> unreadable(PieceStore& store, FileId id, const FileMeta& meta,
                                      std::vector<std::uint32_t> pieces) {
  struct Arrivals final : PieceSink {
    const FileMeta* meta = nullptr;
    std::vector<char> arrived;
    void on_piece(PieceView piece) override {
      if (intact(piece, meta->piece_sizes[piece.piece])) arrived[piece.piece] = 1;
    }
  } sink;
  sink.meta = &meta;
  sink.arrived.assign(meta.partitions(), 0);
  store.fetch(id, meta, pieces, sink);
  std::erase_if(pieces, [&](std::uint32_t i) { return sink.arrived[i] != 0; });
  return pieces;
}

}  // namespace

RecoveryStats RecoveryManager::repair_pieces(FileId id) {
  RecoveryStats stats;
  const auto meta = master_.peek(id);
  if (!meta) throw std::runtime_error("repair_file: unknown file");

  // Which pieces are gone? A piece whose server is down cannot be
  // re-placed in place — that is a server-loss repair, not a piece repair.
  std::vector<std::uint32_t> on_live;
  bool on_dead_server = false;
  for (std::uint32_t i = 0; i < meta->partitions(); ++i) {
    if (is_alive_(meta->servers[i])) {
      on_live.push_back(i);
    } else {
      on_dead_server = true;
    }
  }
  if (on_dead_server) {
    SPCACHE_LOG(kWarn) << "repair_file: file " << id
                       << " has piece(s) on a dead server; run repair_after_server_loss";
    ++stats.files_skipped;
  }
  const auto missing = unreadable(store_, id, *meta, std::move(on_live));
  if (missing.empty()) return stats;

  const auto bytes = stable_.restore(id);
  if (!bytes) throw std::runtime_error("repair_file: file was never checkpointed");
  if (!matches(*bytes, *meta)) {
    throw std::runtime_error("repair_file: stable copy does not match the cached file");
  }

  // Re-place the lost pieces on their own servers, under the layout's own
  // epoch.
  const auto lost = slice_pieces(*bytes, *meta, missing);
  store_.put(id, lost.slices, lost.servers, meta->epoch, missing);
  stats.pieces_recovered = missing.size();
  stats.bytes_restored = bytes->size();
  // Restore pulls the whole file from stable storage; re-placing the lost
  // pieces rides the (fast) cluster network, one stream at a time.
  stats.modelled_time = static_cast<double>(stats.bytes_restored) / stable_.bandwidth() +
                        store_.write_time({lost.servers.front()}, lost.bytes);
  SPCACHE_LOG(kInfo) << "recovered " << stats.pieces_recovered << " piece(s) of file " << id
                     << " from stable storage (" << stats.bytes_restored / kKB << " kB)";
  return stats;
}

RecoveryStats RecoveryManager::repair_after_server_loss(std::uint32_t failed_server) {
  SPCACHE_LOG(kWarn) << "repairing after loss of server " << failed_server;
  RecoveryStats total;
  // Current per-server piece counts (for least-loaded re-placement). The
  // scan is advisory — layouts move underneath it — but each file's actual
  // mutation happens under its guard below, so a stale count only costs
  // balance, never correctness.
  std::vector<std::size_t> load(n_servers_, 0);
  const auto ids = master_.file_ids();
  for (FileId id : ids) {
    const auto meta = master_.peek(id);
    if (!meta) continue;
    for (std::uint32_t s : meta->servers) ++load[s];
  }

  for (FileId id : ids) {
    const auto guard = master_.lock_file(id);
    if (!guard) continue;  // removed since the scan
    auto meta = master_.peek(id);
    if (!meta) continue;

    // Slots still on the failed server. None ⇒ already repaired (by an
    // earlier or concurrent run) — idempotent skip.
    std::vector<std::uint32_t> slots;
    for (std::uint32_t i = 0; i < meta->partitions(); ++i) {
      if (meta->servers[i] == failed_server) slots.push_back(i);
    }
    if (slots.empty()) continue;

    const auto bytes = stable_.restore(id);
    if (!bytes || !matches(*bytes, *meta)) {
      SPCACHE_LOG(kWarn) << "repair_after_server_loss: no usable stable copy of file " << id
                         << " — skipped";
      ++total.files_skipped;
      continue;
    }

    // Choose the least-loaded live replacement for each lost slot: a
    // server not yet holding the file when there is one, else (a cluster
    // too small for an exclusive server) any live survivor — suboptimal
    // for balance, but the bytes stay readable, which is the repair's
    // whole point.
    bool placed = true;
    auto new_meta = *meta;
    for (std::uint32_t i : slots) {
      std::size_t best = n_servers_;
      std::size_t fallback = n_servers_;
      for (std::size_t s = 0; s < n_servers_; ++s) {
        if (s == failed_server || !is_alive_(static_cast<std::uint32_t>(s))) continue;
        if (fallback == n_servers_ || load[s] < load[fallback]) fallback = s;
        if (std::find(new_meta.servers.begin(), new_meta.servers.end(),
                      static_cast<std::uint32_t>(s)) != new_meta.servers.end()) {
          continue;
        }
        if (best == n_servers_ || load[s] < load[best]) best = s;
      }
      if (best == n_servers_) best = fallback;
      if (best == n_servers_) {
        placed = false;
        break;
      }
      if (load[failed_server] > 0) --load[failed_server];
      ++load[best];
      new_meta.servers[i] = static_cast<std::uint32_t>(best);
    }
    if (!placed) {
      SPCACHE_LOG(kWarn) << "repair_after_server_loss: no live replacement server for file " << id
                         << " — skipped";
      ++total.files_skipped;
      continue;
    }

    // Write the replacement pieces first, publish the layout second:
    // readers holding the new layout always find the bytes; readers
    // holding the old one fail, retry, and pick up the new layout. The
    // pieces carry the next epoch, so a worker rejects multi-GETs built
    // against the old layout.
    new_meta.epoch = meta->epoch + 1;
    const auto lost = slice_pieces(*bytes, new_meta, slots);
    try {
      store_.put(id, lost.slices, lost.servers, new_meta.epoch, slots);
    } catch (const std::exception& e) {
      // Publish nothing: the old layout stays, and the next sweep retries.
      SPCACHE_LOG(kError) << "repair_after_server_loss: re-placing file " << id
                          << " failed: " << e.what();
      ++total.files_skipped;
      continue;
    }
    master_.update_file(id, new_meta);
    total.pieces_recovered += slots.size();
    total.bytes_restored += bytes->size();
    // Repartitioned files recover in parallel in a real deployment; we
    // report the aggregate serial time as a conservative upper bound.
    total.modelled_time += static_cast<double>(bytes->size()) / stable_.bandwidth() +
                           store_.write_time({lost.servers.front()}, lost.bytes);
  }
  record_repair(total);
  return total;
}

}  // namespace spcache
