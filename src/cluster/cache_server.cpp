#include "cluster/cache_server.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>

#include "fault/fault_injector.h"
#include "obs/metrics.h"

namespace spcache {

namespace {

// Times one request and records service time + in-flight depth on exit —
// including the throwing exits, so error paths are measured too.
class ServeScope {
 public:
  explicit ServeScope(const CacheServer::ObsProbes* probes) : probes_(probes) {
    if (probes_ == nullptr) return;
    probes_->in_flight->add(1);
    start_ = std::chrono::steady_clock::now();
  }
  ~ServeScope() {
    if (probes_ == nullptr) return;
    probes_->in_flight->sub(1);
    probes_->service->record(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count());
  }

 private:
  const CacheServer::ObsProbes* probes_;
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace

CacheServer::CacheServer(std::uint32_t id, Bandwidth bandwidth)
    : id_(id), bandwidth_(bandwidth) {}

void CacheServer::attach_observability(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    probes_.store(nullptr, std::memory_order_release);
    return;
  }
  namespace n = obs::names;
  auto probes = std::make_unique<ObsProbes>();
  probes->gets = &registry->counter(n::server_metric(id_, n::kServerGets));
  probes->misses = &registry->counter(n::server_metric(id_, n::kServerMisses));
  probes->errors = &registry->counter(n::server_metric(id_, n::kServerErrors));
  probes->puts = &registry->counter(n::server_metric(id_, n::kServerPuts));
  probes->service = &registry->histogram(n::server_metric(id_, n::kServerServiceTime));
  probes->in_flight = &registry->gauge(n::server_metric(id_, n::kServerInFlight));
  probes_storage_ = std::move(probes);
  probes_.store(probes_storage_.get(), std::memory_order_release);
}

void CacheServer::insert_block(const BlockKey& key, std::shared_ptr<Block> block) {
  const Bytes incoming = block->bytes.size();
  Bytes replaced = 0;
  {
    auto& stripe = stripe_for(key);
    std::lock_guard lock(stripe.mu);
    auto [it, inserted] = stripe.blocks.try_emplace(key);
    if (!inserted) replaced = it->second->bytes.size();
    it->second = std::move(block);
  }
  if (replaced > 0) bytes_stored_.fetch_sub(replaced, std::memory_order_relaxed);
  bytes_stored_.fetch_add(incoming, std::memory_order_relaxed);
}

void CacheServer::put(BlockKey key, std::vector<std::uint8_t> bytes) {
  const auto* probes = probes_.load(std::memory_order_acquire);
  ServeScope scope(probes);
  if (probes) probes->puts->add(1);
  if (!alive()) {
    throw std::runtime_error("CacheServer::put: server " + std::to_string(id_) + " is down");
  }
  // Checksum and allocation happen before the stripe lock; the critical
  // section is just the map probe and pointer swap.
  auto block = std::make_shared<Block>(Block{std::move(bytes), 0});
  block->crc = crc32(block->bytes);
  insert_block(key, std::move(block));
}

void CacheServer::put_copy(BlockKey key, std::span<const std::uint8_t> bytes) {
  const auto* probes = probes_.load(std::memory_order_acquire);
  ServeScope scope(probes);
  if (probes) probes->puts->add(1);
  if (!alive()) {
    throw std::runtime_error("CacheServer::put: server " + std::to_string(id_) + " is down");
  }
  // The ingest copy and the checksum are one fused pass over the payload
  // (crc32_copy): the source view is read once, never rescanned.
  auto block = std::make_shared<Block>();
  block->bytes.resize(bytes.size());
  block->crc = crc32_copy(block->bytes, bytes);
  insert_block(key, std::move(block));
}

BlockRef CacheServer::get(const BlockKey& key) const { return lookup_block(key, true); }

BlockRef CacheServer::get_for_serve(const BlockKey& key) const {
  return lookup_block(key, false);
}

BlockRef CacheServer::lookup_block(const BlockKey& key, bool verify) const {
  // Probes are loaded before the alive-check so requests against a dead
  // server still count as attempts (and as errors).
  const auto* probes = probes_.load(std::memory_order_acquire);
  ServeScope scope(probes);
  if (probes) probes->gets->add(1);
  if (!alive()) {
    if (probes) probes->errors->add(1);
    throw std::runtime_error("CacheServer::get: server " + std::to_string(id_) + " is down");
  }
  auto* injector = injector_.load(std::memory_order_acquire);
  if (injector && injector->fail_fetch(id_)) {
    if (probes) probes->errors->add(1);
    throw std::runtime_error("CacheServer::get: injected fetch failure (server " +
                             std::to_string(id_) + ")");
  }
  BlockRef block;
  {
    auto& stripe = stripe_for(key);
    std::lock_guard lock(stripe.mu);
    const auto it = stripe.blocks.find(key);
    if (it == stripe.blocks.end()) {
      if (probes) probes->misses->add(1);
      return nullptr;
    }
    block = it->second;
  }
  bytes_served_.fetch_add(block->bytes.size(), std::memory_order_relaxed);
  if (injector && !block->bytes.empty() && injector->corrupt_read(id_)) {
    // Post-checksum wire flip: hand back a bit-flipped copy carrying the
    // original CRC. The resident block stays pristine; only the caller's
    // end-to-end verification can notice. A fused-verify server (get_for_
    // serve) would catch the flip against the original CRC, so for that
    // path the copy's crc field is restamped to match the flipped bytes —
    // the flip happened "after" the worker's checksum, by construction.
    auto corrupted = std::make_shared<Block>(*block);
    corrupted->bytes[corrupted->bytes.size() / 2] ^= 0x40;
    if (!verify) corrupted->crc = crc32(corrupted->bytes);
    return corrupted;
  }
  if (!verify) return block;  // the caller's fused copy+CRC is the scan
  // Verify outside the lock: CRC over the payload is the expensive part of
  // a read and must not serialize the stripe. The block is immutable once
  // published, so the check is race-free.
  if (crc32(block->bytes) != block->crc) {
    if (probes) probes->errors->add(1);
    throw std::runtime_error("CacheServer::get: checksum mismatch (corrupted block)");
  }
  return block;
}

std::vector<std::uint8_t> CacheServer::get_range(const BlockKey& key, Bytes offset,
                                                 Bytes length) const {
  const auto* probes = probes_.load(std::memory_order_acquire);
  ServeScope scope(probes);
  if (probes) probes->gets->add(1);
  if (!alive()) {
    if (probes) probes->errors->add(1);
    throw std::runtime_error("CacheServer::get_range: server " + std::to_string(id_) +
                             " is down");
  }
  auto* injector = injector_.load(std::memory_order_acquire);
  if (injector && injector->fail_fetch(id_)) {
    if (probes) probes->errors->add(1);
    throw std::runtime_error("CacheServer::get_range: injected fetch failure (server " +
                             std::to_string(id_) + ")");
  }
  BlockRef block;
  {
    auto& stripe = stripe_for(key);
    std::lock_guard lock(stripe.mu);
    const auto it = stripe.blocks.find(key);
    if (it == stripe.blocks.end()) {
      if (probes) probes->misses->add(1);
      throw std::runtime_error("CacheServer::get_range: block not found");
    }
    block = it->second;
  }
  if (offset + length > block->bytes.size()) {
    if (probes) probes->errors->add(1);
    throw std::runtime_error("CacheServer::get_range: range out of bounds");
  }
  // Same discipline as get(): the CRC pass runs outside the stripe lock,
  // over the immutable published block. The whole block is verified — a
  // migrated range must never launder a corrupted byte into a new piece.
  if (crc32(block->bytes) != block->crc) {
    if (probes) probes->errors->add(1);
    throw std::runtime_error("CacheServer::get_range: checksum mismatch (corrupted block)");
  }
  bytes_served_.fetch_add(length, std::memory_order_relaxed);
  return std::vector<std::uint8_t>(
      block->bytes.begin() + static_cast<std::ptrdiff_t>(offset),
      block->bytes.begin() + static_cast<std::ptrdiff_t>(offset + length));
}

void CacheServer::stage_range(const BlockKey& key, std::uint64_t epoch, Bytes piece_size,
                              Bytes offset, std::span<const std::uint8_t> bytes) {
  if (!alive()) {
    throw std::runtime_error("CacheServer::stage_range: server " + std::to_string(id_) +
                             " is down");
  }
  if (offset + bytes.size() > piece_size) {
    throw std::runtime_error("CacheServer::stage_range: range exceeds piece size");
  }
  std::lock_guard lock(stage_mu_);
  auto [it, inserted] = staged_.try_emplace(StageKey{key, epoch});
  auto& piece = it->second;
  if (inserted) {
    piece.block = std::make_shared<Block>();
    piece.block->bytes.resize(piece_size);
  } else if (piece.block->bytes.size() != piece_size) {
    throw std::runtime_error("CacheServer::stage_range: piece size disagreement");
  }
  // In-order assembly contract: each range lands exactly where the
  // previous one ended, so `filled` alone proves completeness.
  if (offset != piece.filled) {
    throw std::runtime_error("CacheServer::stage_range: out-of-order range (staged " +
                             std::to_string(piece.filled) + ", got offset " +
                             std::to_string(offset) + ")");
  }
  // Fused copy+CRC: the range lands in the piece buffer with the running
  // checksum advanced in the same pass. Because ranges arrive strictly in
  // offset order, the accumulated state at completion IS the whole-piece
  // CRC — finalize never rescans a byte.
  piece.crc_state = crc32_copy_update(
      piece.crc_state,
      std::span<std::uint8_t>(piece.block->bytes.data() + offset, bytes.size()), bytes);
  piece.filled += bytes.size();
  piece.finalized = false;
}

bool CacheServer::finalize_staged(const BlockKey& key, std::uint64_t epoch) {
  // O(1): the CRC was accumulated range-by-range during staging, so the
  // seal is a completeness check plus a finalize of the running state —
  // no byte pass, one lock acquisition. (The pre-fusion implementation
  // rescanned the whole piece here, outside the lock; keeping the seal
  // cheap matters because the executor calls it right before the cutover
  // critical section.)
  std::lock_guard lock(stage_mu_);
  const auto it = staged_.find(StageKey{key, epoch});
  if (it == staged_.end()) return false;
  auto& piece = it->second;
  if (piece.filled != piece.block->bytes.size()) return false;
  piece.block->crc = crc32_final(piece.crc_state);
  piece.finalized = true;
  return true;
}

bool CacheServer::publish_staged(const BlockKey& key, std::uint64_t epoch) {
  if (!alive()) {
    throw std::runtime_error("CacheServer::publish_staged: server " + std::to_string(id_) +
                             " is down");
  }
  std::shared_ptr<Block> block;
  {
    std::lock_guard lock(stage_mu_);
    const auto it = staged_.find(StageKey{key, epoch});
    if (it == staged_.end()) return false;
    if (!it->second.finalized) {
      throw std::runtime_error("CacheServer::publish_staged: piece not finalized");
    }
    block = std::move(it->second.block);
    staged_.erase(it);
  }
  const Bytes incoming = block->bytes.size();
  Bytes replaced = 0;
  {
    auto& stripe = stripe_for(key);
    std::lock_guard lock(stripe.mu);
    auto [it, inserted] = stripe.blocks.try_emplace(key);
    if (!inserted) replaced = it->second->bytes.size();
    it->second = std::move(block);
  }
  if (replaced > 0) bytes_stored_.fetch_sub(replaced, std::memory_order_relaxed);
  bytes_stored_.fetch_add(incoming, std::memory_order_relaxed);
  return true;
}

bool CacheServer::discard_staged(const BlockKey& key, std::uint64_t epoch) {
  std::lock_guard lock(stage_mu_);
  return staged_.erase(StageKey{key, epoch}) > 0;
}

std::size_t CacheServer::staged_count() const {
  std::lock_guard lock(stage_mu_);
  return staged_.size();
}

bool CacheServer::contains(const BlockKey& key) const {
  if (!alive()) return false;
  auto& stripe = stripe_for(key);
  std::lock_guard lock(stripe.mu);
  return stripe.blocks.count(key) > 0;
}

void CacheServer::kill() {
  alive_.store(false, std::memory_order_release);
  clear();  // a crash loses every in-memory block
  std::lock_guard lock(stage_mu_);
  staged_.clear();  // ...and every piece still under construction
}

void CacheServer::revive() {
  alive_.store(true, std::memory_order_release);
}

void CacheServer::clear() {
  for (auto& stripe : stripes_) {
    std::lock_guard lock(stripe.mu);
    stripe.blocks.clear();
  }
  bytes_stored_.store(0, std::memory_order_relaxed);
}

bool CacheServer::erase(const BlockKey& key) {
  Bytes dropped = 0;
  {
    auto& stripe = stripe_for(key);
    std::lock_guard lock(stripe.mu);
    const auto it = stripe.blocks.find(key);
    if (it == stripe.blocks.end()) return false;
    dropped = it->second->bytes.size();
    stripe.blocks.erase(it);
  }
  bytes_stored_.fetch_sub(dropped, std::memory_order_relaxed);
  return true;
}

Bytes CacheServer::bytes_stored() const {
  return bytes_stored_.load(std::memory_order_relaxed);
}

std::size_t CacheServer::blocks_stored() const {
  std::size_t n = 0;
  for (const auto& stripe : stripes_) {
    std::lock_guard lock(stripe.mu);
    n += stripe.blocks.size();
  }
  return n;
}

double CacheServer::bytes_served() const {
  return static_cast<double>(bytes_served_.load(std::memory_order_relaxed));
}

void CacheServer::reset_load_counters() {
  bytes_served_.store(0, std::memory_order_relaxed);
}

Cluster::Cluster(std::size_t n_servers, Bandwidth bandwidth) {
  servers_.reserve(n_servers);
  for (std::size_t i = 0; i < n_servers; ++i) {
    servers_.push_back(std::make_unique<CacheServer>(static_cast<std::uint32_t>(i), bandwidth));
  }
}

std::vector<Bandwidth> Cluster::bandwidths() const {
  std::vector<Bandwidth> out;
  out.reserve(servers_.size());
  for (const auto& s : servers_) out.push_back(s->bandwidth());
  return out;
}

std::vector<double> Cluster::served_bytes() const {
  std::vector<double> out;
  out.reserve(servers_.size());
  for (const auto& s : servers_) out.push_back(s->bytes_served());
  return out;
}

std::vector<double> Cluster::stored_bytes() const {
  std::vector<double> out;
  out.reserve(servers_.size());
  for (const auto& s : servers_) out.push_back(static_cast<double>(s->bytes_stored()));
  return out;
}

void Cluster::reset_load_counters() {
  for (auto& s : servers_) s->reset_load_counters();
}

std::size_t Cluster::alive_count() const {
  std::size_t n = 0;
  for (const auto& s : servers_) n += s->alive() ? 1 : 0;
  return n;
}

void Cluster::set_fault_injector(fault::FaultInjector* injector) {
  for (auto& s : servers_) s->set_fault_injector(injector);
}

void Cluster::attach_observability(obs::MetricsRegistry* registry) {
  for (auto& s : servers_) s->attach_observability(registry);
}

}  // namespace spcache
