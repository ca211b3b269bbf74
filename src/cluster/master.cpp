#include "cluster/master.h"

#include <algorithm>
#include <cassert>
#include <chrono>

#include "common/hash_mix.h"
#include "obs/metrics.h"

namespace spcache {

Master::Shard& Master::shard_for(FileId id) { return shards_[shard_of<kShards>(id)]; }

const Master::Shard& Master::shard_for(FileId id) const {
  return shards_[shard_of<kShards>(id)];
}

namespace {

// Layout epochs are strictly monotone per file no matter what the writer
// proposed: a stale or unset (0) proposal still lands above the previous
// epoch, so cached-layout clients can always order two layouts.
std::uint64_t next_epoch(std::uint64_t proposed, std::uint64_t current) {
  return std::max(proposed, current + 1);
}

}  // namespace

void Master::register_file(FileId id, FileMeta meta) {
  assert(meta.servers.size() == meta.piece_sizes.size());
  auto& shard = shard_for(id);
  std::unique_lock lock(shard.mu);
  auto [it, inserted] = shard.files.try_emplace(id);
  if (inserted) it->second = std::make_shared<MasterFileEntry>();
  // Re-registering keeps the existing access count (matches the pre-shard
  // behaviour of try_emplace on the counter map).
  meta.epoch = next_epoch(meta.epoch, inserted ? 0 : it->second->meta.epoch);
  it->second->meta = std::move(meta);
}

void Master::update_file(FileId id, FileMeta meta) {
  assert(meta.servers.size() == meta.piece_sizes.size());
  if (const auto* probes = probes_.load(std::memory_order_acquire)) {
    probes->updates->add(1);
  }
  auto& shard = shard_for(id);
  std::unique_lock lock(shard.mu);
  const auto it = shard.files.find(id);
  assert(it != shard.files.end());
  meta.epoch = next_epoch(meta.epoch, it->second->meta.epoch);
  it->second->meta = std::move(meta);
}

bool Master::update_file_if(FileId id, FileMeta meta, std::uint64_t expected_epoch) {
  assert(meta.servers.size() == meta.piece_sizes.size());
  auto& shard = shard_for(id);
  std::unique_lock lock(shard.mu);
  const auto it = shard.files.find(id);
  if (it == shard.files.end() || it->second->meta.epoch != expected_epoch) return false;
  if (const auto* probes = probes_.load(std::memory_order_acquire)) {
    probes->updates->add(1);
  }
  meta.epoch = next_epoch(meta.epoch, expected_epoch);
  it->second->meta = std::move(meta);
  return true;
}

bool Master::remove_file(FileId id) {
  auto& shard = shard_for(id);
  std::unique_lock lock(shard.mu);
  return shard.files.erase(id) > 0;
}

std::optional<FileMeta> Master::lookup_for_read(FileId id) {
  const auto* probes = probes_.load(std::memory_order_acquire);
  if (probes == nullptr) {
    // Uninstrumented fast path: identical to the pre-observability code.
    auto& shard = shard_for(id);
    std::shared_lock lock(shard.mu);
    const auto it = shard.files.find(id);
    if (it == shard.files.end()) return std::nullopt;
    it->second->access_count.fetch_add(1, std::memory_order_relaxed);
    return it->second->meta;
  }
  probes->lookups->add(1);
  const auto start = std::chrono::steady_clock::now();
  auto& shard = shard_for(id);
  // try_lock first purely to observe contention; on failure fall back to
  // the normal blocking acquire and count the stall.
  std::shared_lock lock(shard.mu, std::try_to_lock);
  if (!lock.owns_lock()) {
    probes->contention->add(1);
    lock.lock();
  }
  std::optional<FileMeta> out;
  const auto it = shard.files.find(id);
  if (it != shard.files.end()) {
    it->second->access_count.fetch_add(1, std::memory_order_relaxed);
    out = it->second->meta;
  }
  lock.unlock();
  probes->lookup_latency->record(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count());
  return out;
}

std::optional<FileMeta> Master::peek(FileId id) const {
  const auto& shard = shard_for(id);
  std::shared_lock lock(shard.mu);
  const auto it = shard.files.find(id);
  if (it == shard.files.end()) return std::nullopt;
  return it->second->meta;
}

std::uint64_t Master::file_epoch(FileId id) const {
  const auto& shard = shard_for(id);
  std::shared_lock lock(shard.mu);
  const auto it = shard.files.find(id);
  return it == shard.files.end() ? 0 : it->second->meta.epoch;
}

std::uint64_t Master::report_access(FileId id, std::uint64_t delta) {
  if (delta == 0) return 0;
  auto& shard = shard_for(id);
  std::shared_lock lock(shard.mu);
  const auto it = shard.files.find(id);
  if (it == shard.files.end()) return 0;
  it->second->access_count.fetch_add(delta, std::memory_order_relaxed);
  if (const auto* probes = probes_.load(std::memory_order_acquire)) {
    probes->lookups_saved->add(delta);
  }
  return delta;
}

std::uint64_t Master::report_access_batch(
    const std::vector<std::pair<FileId, std::uint64_t>>& deltas) {
  std::uint64_t applied = 0;
  for (const auto& [id, delta] : deltas) applied += report_access(id, delta);
  return applied;
}

std::uint64_t Master::access_count(FileId id) const {
  const auto& shard = shard_for(id);
  std::shared_lock lock(shard.mu);
  const auto it = shard.files.find(id);
  return it == shard.files.end() ? 0
                                 : it->second->access_count.load(std::memory_order_relaxed);
}

void Master::reset_access_counts() {
  for (auto& shard : shards_) {
    // Shared lock: the map is not mutated, only the (atomic) counters.
    std::shared_lock lock(shard.mu);
    for (auto& [id, entry] : shard.files) {
      entry->access_count.store(0, std::memory_order_relaxed);
    }
  }
}

std::size_t Master::file_count() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    std::shared_lock lock(shard.mu);
    n += shard.files.size();
  }
  return n;
}

std::vector<FileId> Master::file_ids() const {
  std::vector<FileId> ids;
  for (const auto& shard : shards_) {
    std::shared_lock lock(shard.mu);
    for (const auto& [id, entry] : shard.files) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

Catalog Master::snapshot_catalog(Seconds window, double min_rate) const {
  assert(window > 0.0);
  // FileIds are expected to be dense (0..n-1) as produced by the workload
  // generators; the catalog is indexed by id. Collect (id, size, count)
  // shard by shard, then build the dense table.
  struct Row {
    FileId id;
    Bytes size;
    std::uint64_t count;
  };
  std::vector<Row> rows;
  for (const auto& shard : shards_) {
    std::shared_lock lock(shard.mu);
    for (const auto& [id, entry] : shard.files) {
      rows.push_back(
          Row{id, entry->meta.size, entry->access_count.load(std::memory_order_relaxed)});
    }
  }
  FileId max_id = 0;
  for (const auto& r : rows) max_id = std::max(max_id, r.id);
  std::vector<FileInfo> infos(rows.empty() ? 0 : max_id + 1);
  for (const auto& r : rows) {
    infos[r.id].size = r.size;
    infos[r.id].request_rate = std::max(min_rate, static_cast<double>(r.count) / window);
  }
  return Catalog(std::move(infos));
}

void Master::attach_observability(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    probes_.store(nullptr, std::memory_order_release);
    return;
  }
  namespace n = obs::names;
  auto probes = std::make_unique<ObsProbes>();
  probes->lookups = &registry->counter(n::kMasterLookups);
  probes->updates = &registry->counter(n::kMasterUpdates);
  probes->contention = &registry->counter(n::kMasterShardContention);
  probes->lookups_saved = &registry->counter(n::kMasterLookupsSaved);
  probes->lookup_latency = &registry->histogram(n::kMasterLookupLatency);
  probes_storage_ = std::move(probes);
  probes_.store(probes_storage_.get(), std::memory_order_release);
}

Master::FileGuard Master::lock_file(FileId id) {
  std::shared_ptr<MasterFileEntry> entry;
  {
    auto& shard = shard_for(id);
    std::shared_lock lock(shard.mu);
    const auto it = shard.files.find(id);
    if (it == shard.files.end()) return {};
    entry = it->second;
  }
  // Lock outside the shard lock: a guard holder blocking on op_mu must not
  // stall unrelated lookups in the same shard.
  FileGuard guard;
  guard.lock_ = std::unique_lock(entry->op_mu);
  guard.entry_ = std::move(entry);
  return guard;
}

}  // namespace spcache
