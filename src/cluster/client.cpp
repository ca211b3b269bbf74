#include "cluster/client.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <stdexcept>

#include "cluster/stable_store.h"
#include "core/repartition.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace spcache {

namespace {

double elapsed_seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

// The in-process PieceStore: direct calls into the Cluster's block stores,
// fanned out on the ThreadPool (or run inline without one). Fetches hand
// out the resident BlockRefs (zero-copy); modelled times follow the
// GoodputModel.
class InprocPieceStore final : public PieceStore {
 public:
  InprocPieceStore(Cluster& cluster, ThreadPool* pool, GoodputModel goodput)
      : cluster_(cluster), pool_(pool), goodput_(goodput) {}

  void put(FileId id, std::span<const std::span<const std::uint8_t>> pieces,
           const std::vector<std::uint32_t>& servers, std::uint64_t /*epoch*/,
           std::span<const std::uint32_t> piece_ids) override {
    // Each piece's only copy is the fused copy+CRC pass inside put_copy,
    // straight into the server's block.
    for_each(pieces.size(), [&](std::size_t i) {
      cluster_.server(servers[i]).put_copy(key_of(id, piece_ids, i), pieces[i]);
    });
  }

  void put_owned(FileId id, std::vector<std::vector<std::uint8_t>> pieces,
                 const std::vector<std::uint32_t>& servers, std::uint64_t /*epoch*/) override {
    for_each(pieces.size(), [&](std::size_t i) {
      cluster_.server(servers[i]).put(BlockKey{id, static_cast<PieceIndex>(i)},
                                      std::move(pieces[i]));
    });
  }

  bool fetch(FileId id, const FileMeta& layout, std::span<const std::uint32_t> pieces,
             PieceSink& sink) override {
    // A thread never throws out of the pool: a dead server or an injected
    // fetch failure just leaves the piece undelivered. The block is handed
    // out unscanned with its stamped CRC: the sink's pass over the bytes is
    // the only one, and it checks them.
    for_each(pieces.size(), [&](std::size_t j) {
      const std::uint32_t i = pieces[j];
      try {
        auto block = cluster_.server(layout.servers[i]).get_for_serve(BlockKey{id, i});
        if (!block) return;
        const std::span<const std::uint8_t> bytes = block->bytes;
        const std::uint32_t crc = block->crc;
        sink.on_piece(PieceView{i, bytes, std::move(block), crc});
      } catch (const std::exception&) {
      }
    });
    return true;
  }

  // Client NICs are provisioned like server NICs in the paper's clusters:
  // a read is bounded by the slowest piece transfer at its server's
  // goodput-degraded bandwidth (queueing belongs to the simulator), a write
  // by the client's uplink shared across its parallel streams.
  Seconds read_time(const FileMeta& layout, std::span<const std::uint32_t> pieces,
                    std::size_t streams) const override {
    Seconds slowest = 0.0;
    for (const std::uint32_t i : pieces) {
      const Bandwidth bw = cluster_.server(layout.servers[i]).bandwidth();
      slowest = std::max(slowest, static_cast<double>(layout.piece_sizes[i]) /
                                      (bw * goodput_.factor(streams)));
    }
    return slowest;
  }

  Seconds write_time(const std::vector<std::uint32_t>& servers, Bytes bytes) const override {
    assert(!servers.empty());
    const Bandwidth client_bw = cluster_.server(servers.front()).bandwidth();
    return static_cast<double>(bytes) / (client_bw * goodput_.factor(servers.size()));
  }

  // Staging runs on the caller's thread: the delta executor already runs
  // one file per pool task.
  bool stage(FileId id, const PieceAssembly& piece, std::uint64_t epoch) override {
    try {
      auto& dst = cluster_.server(piece.dst_server);
      const BlockKey key{id, piece.new_piece};
      Bytes filled = 0;
      for (const auto& range : piece.sources) {
        const auto bytes = get_range(cluster_.server(range.src_server),
                                     BlockKey{id, range.old_piece}, range.offset_in_piece,
                                     range.length);
        dst.stage_range(key, epoch, piece.piece_size, filled, bytes);
        filled += bytes.size();
      }
      return dst.finalize_staged(key, epoch);
    } catch (const std::exception&) {
      return false;
    }
  }

  bool publish_staged(FileId id, std::uint32_t piece, std::uint32_t server,
                      std::uint64_t epoch) override {
    try {
      return cluster_.server(server).publish_staged(BlockKey{id, piece}, epoch);
    } catch (const std::exception&) {
      return false;  // the destination died between finalize and publish
    }
  }

  void discard_staged(FileId id, std::uint32_t piece, std::uint32_t server,
                      std::uint64_t epoch) override {
    cluster_.server(server).discard_staged(BlockKey{id, piece}, epoch);
  }

  void erase(FileId id, std::uint32_t piece, std::uint32_t server) override {
    cluster_.server(server).erase(BlockKey{id, piece});
  }

 private:
  static BlockKey key_of(FileId id, std::span<const std::uint32_t> piece_ids, std::size_t i) {
    return BlockKey{id, piece_ids.empty() ? static_cast<PieceIndex>(i) : piece_ids[i]};
  }

  // A transient fault should not abort a whole file's migration; a
  // persistent one still throws after kRangeFetchAttempts.
  static std::vector<std::uint8_t> get_range(const CacheServer& src, const BlockKey& key,
                                             Bytes offset, Bytes length) {
    for (int attempt = 1;; ++attempt) {
      try {
        return src.get_range(key, offset, length);
      } catch (const std::exception&) {
        if (attempt >= kRangeFetchAttempts) throw;
      }
    }
  }

  template <typename F>
  void for_each(std::size_t n, F&& fn) {
    if (pool_ != nullptr) {
      pool_->parallel_for(n, fn);
    } else {
      for (std::size_t i = 0; i < n; ++i) fn(i);
    }
  }

  Cluster& cluster_;
  ThreadPool* pool_;
  GoodputModel goodput_;
};

// The in-process LayoutService: the Master itself, plus an optional
// attached StableStore for failover restores.
class InprocLayoutService final : public LayoutService {
 public:
  InprocLayoutService(Master& master, StableStore* stable) : master_(master), stable_(stable) {}

  LookupStatus lookup(FileId id, FileMeta& out) override {
    auto meta = master_.lookup_for_read(id);
    if (!meta) return LookupStatus::kUnknownFile;
    out = std::move(*meta);
    return LookupStatus::kFound;
  }

  std::optional<FileMeta> peek(FileId id) override { return master_.peek(id); }

  std::uint64_t epoch(FileId id) override { return master_.file_epoch(id); }

  std::uint64_t publish(FileId id, const FileMeta& meta) override {
    if (master_.peek(id).has_value()) {
      master_.update_file(id, meta);
    } else {
      master_.register_file(id, meta);
    }
    return master_.file_epoch(id);
  }

  bool cutover(FileId id, std::uint64_t expected_epoch, const FileMeta& next,
               const std::function<bool()>& splice,
               const std::function<void()>& retire) override {
    // The guard serializes this cutover against every other guarded
    // read-modify-write of the file; update_file_if re-checks the epoch
    // under the shard lock, so an unguarded client write landing during
    // the splice is not overwritten either.
    const auto guard = master_.lock_file(id);
    if (!guard || master_.file_epoch(id) != expected_epoch) return false;
    if (!splice() || !master_.update_file_if(id, next, expected_epoch)) return false;
    retire();
    return true;
  }

  std::optional<std::uint64_t> report_access(
      const std::vector<std::pair<FileId, std::uint64_t>>& deltas) override {
    return master_.report_access_batch(deltas);
  }

  std::optional<StableCopy> restore(FileId id) override {
    if (stable_ == nullptr) return std::nullopt;
    auto bytes = stable_->restore(id);
    if (!bytes) return std::nullopt;
    const Seconds time = static_cast<double>(bytes->size()) / stable_->bandwidth();
    return StableCopy{std::move(*bytes), time};
  }

 private:
  Master& master_;
  StableStore* stable_;
};

}  // namespace

bool intact(const PieceView& piece, Bytes size) {
  return piece.bytes.size() == size &&
         (!piece.expected_crc || crc32(piece.bytes) == *piece.expected_crc);
}

std::unique_ptr<PieceStore> make_inproc_piece_store(Cluster& cluster, ThreadPool* pool,
                                                    GoodputModel goodput) {
  return std::make_unique<InprocPieceStore>(cluster, pool, goodput);
}

std::unique_ptr<LayoutService> make_inproc_layout_service(Master& master, StableStore* stable) {
  return std::make_unique<InprocLayoutService>(master, stable);
}

SpClient::SpClient(Cluster& cluster, Master& master, ThreadPool& pool, GoodputModel goodput)
    : SpClient(cluster, master, pool, nullptr, fault::RetryPolicy{}, goodput) {}

SpClient::SpClient(Cluster& cluster, Master& master, ThreadPool& pool, StableStore* stable,
                   fault::RetryPolicy retry, GoodputModel goodput, ClientCacheConfig cache)
    : SpClient(make_inproc_piece_store(cluster, &pool, goodput),
               make_inproc_layout_service(master, stable), retry, cache) {}

SpClient::SpClient(std::unique_ptr<PieceStore> store, std::unique_ptr<LayoutService> layouts,
                   fault::RetryPolicy retry, ClientCacheConfig cache)
    : store_(std::move(store)),
      layouts_(std::move(layouts)),
      retry_(retry),
      cache_config_(cache),
      layout_cache_(cache.cache_capacity),
      access_acc_(cache.report_flush_threshold) {}

SpClient::~SpClient() {
  try {
    flush_access_reports();
  } catch (const std::exception&) {
    // Best effort: an unreachable master must not fail teardown.
  }
}

std::uint64_t SpClient::flush_access_reports() {
  const auto deltas = access_acc_.drain();
  if (deltas.empty()) return 0;
  const auto applied = layouts_->report_access(deltas);
  if (!applied) {
    // The report was lost: put the counts back so the next flush retries
    // them — popularity must not silently leak away.
    for (const auto& [id, delta] : deltas) access_acc_.record(id, delta);
    return 0;
  }
  return *applied;
}

LookupStatus SpClient::layout_for_pass(FileId id, std::size_t pass, bool& from_cache,
                                       FileMeta& out) {
  const auto* probes = probes_.load(std::memory_order_acquire);
  from_cache = false;
  if (cache_config_.layout_cache && pass == 1) {
    if (layout_cache_.get_into(id, out)) {
      from_cache = true;
      if (probes) probes->layout_hits->add(1);
      // The master saw no LOOKUP for this read: tally it locally and ship
      // the batch once the threshold fills.
      if (access_acc_.record(id)) flush_access_reports();
      return LookupStatus::kFound;
    }
    if (probes) probes->layout_misses->add(1);
  }
  const LookupStatus status = layouts_->lookup(id, out);
  if (status == LookupStatus::kFound && cache_config_.layout_cache) layout_cache_.put(id, out);
  return status;
}

void SpClient::invalidate_layout(FileId id) {
  if (!cache_config_.layout_cache) return;
  layout_cache_.invalidate(id);
  if (const auto* probes = probes_.load(std::memory_order_acquire)) {
    probes->layout_invalidations->add(1);
  }
}

IoResult SpClient::write(FileId id, std::span<const std::uint8_t> data,
                         const std::vector<std::uint32_t>& servers) {
  assert(!servers.empty());
  return write_sized(id, data, servers, plain_piece_sizes(data.size(), servers.size()));
}

IoResult SpClient::write_sized(FileId id, std::span<const std::uint8_t> data,
                               const std::vector<std::uint32_t>& servers,
                               const std::vector<Bytes>& piece_sizes) {
  assert(servers.size() == piece_sizes.size());
  // Pieces are views into `data`; the store copies each exactly once.
  std::vector<std::span<const std::uint8_t>> pieces(piece_sizes.size());
  split_sized_views(data, piece_sizes, pieces);
  FileMeta meta;
  meta.size = data.size();
  meta.servers = servers;
  meta.piece_sizes = piece_sizes;
  meta.file_crc = crc32(data);
  // Propose the next layout generation. The pieces carry it so a worker
  // can reject a later fetch against the *previous* generation; the master
  // keeps max(proposal, current + 1), so a weak proposal never regresses.
  meta.epoch = layouts_->epoch(id) + 1;
  store_->put(id, pieces, servers, meta.epoch, {});
  meta.epoch = layouts_->publish(id, meta);
  if (cache_config_.layout_cache) layout_cache_.put(id, std::move(meta));
  layouts_->checkpoint(id, data);

  IoResult result;
  result.network_time = store_->write_time(servers, data.size());
  return result;
}

namespace {

// Receives one pass's pieces: each zero-copy view is copied exactly once,
// straight to its final offset in the reassembly buffer, through the fused
// crc32_copy kernel that also yields the piece CRC for the O(k·32)
// whole-file combine. Runs on pool threads for distinct pieces.
struct ReassemblySink final : PieceSink {
  FileId id;
  const FileMeta& meta;
  std::uint8_t* out;
  std::span<const Bytes> offsets;
  std::span<std::uint32_t> piece_crcs;
  std::span<std::uint8_t> fetched;
  obs::TraceRecorder* trace;
  std::uint64_t op;

  ReassemblySink(FileId id, const FileMeta& meta, std::uint8_t* out,
                 std::span<const Bytes> offsets, std::span<std::uint32_t> piece_crcs,
                 std::span<std::uint8_t> fetched, obs::TraceRecorder* trace, std::uint64_t op)
      : id(id), meta(meta), out(out), offsets(offsets), piece_crcs(piece_crcs),
        fetched(fetched), trace(trace), op(op) {}

  void on_piece(PieceView piece) override {
    const std::uint32_t i = piece.piece;
    if (piece.bytes.size() != meta.piece_sizes[i]) return;
    piece_crcs[i] = crc32_copy(std::span<std::uint8_t>(out + offsets[i], piece.bytes.size()),
                               piece.bytes);
    // The copy is the piece check: a piece that rotted at rest stays
    // pending, and the retry or the stable failover overwrites its range.
    if (piece.expected_crc && piece_crcs[i] != *piece.expected_crc) return;
    fetched[i] = 1;
    if (trace) {
      trace->record(obs::TraceKind::kPieceFetch, op, id, meta.servers[i], i,
                    static_cast<double>(piece.bytes.size()));
    }
  }
};

}  // namespace

// One pass of the degraded-read state machine:
//   fetch (per-piece retries) -> failover (stable restore) -> verify.
// A false return means "retry the whole read with a fresh layout": a
// server rejected the layout's epoch, pieces stayed unfetchable with no
// usable stable copy, or the end-to-end CRC failed (racing repartition,
// injected wire flip) — all heal on a later pass once the layout settles
// or the flip doesn't recur.
bool SpClient::read_pass(FileId id, std::size_t pass, std::uint64_t op,
                         ReadScratch& scratch, const char*& error) {
  const auto* probes = probes_.load(std::memory_order_acquire);
  obs::TraceRecorder* trace = probes ? probes->trace : nullptr;
  const FileMeta& meta = scratch.meta;
  IoResult& result = scratch.result;
  const std::size_t k = meta.partitions();
  // Per-pass bookkeeping lives in the scratch arena: no vector allocations
  // on the hot path, and reset() makes the next pass start from a clean
  // bump pointer.
  scratch.arena.reset();
  auto offsets = scratch.arena.make_span<Bytes>(k);
  auto fetched = scratch.arena.make_span<std::uint8_t>(k);
  auto piece_crcs = scratch.arena.make_span<std::uint32_t>(k);
  auto pending = scratch.arena.make_span<std::uint32_t>(k);
  Bytes total = 0;
  for (std::size_t i = 0; i < k; ++i) {
    offsets[i] = total;
    total += meta.piece_sizes[i];
    fetched[i] = 0;
    pending[i] = static_cast<std::uint32_t>(i);
  }

  // resize, not assign(total, 0): every byte of the live range is written
  // by a piece copy (or the stable-store restore) before the pass can
  // succeed, so pre-zeroing is pure overhead; a warmed buffer reuses its
  // capacity and allocates nothing.
  result.bytes.resize(total);
  ReassemblySink sink(id, meta, result.bytes.data(), offsets, piece_crcs, fetched, trace, op);
  std::size_t n_pending = k;
  for (std::size_t attempt = 1; n_pending > 0; ++attempt) {
    if (!store_->fetch(id, meta, pending.first(n_pending), sink)) {
      error = "stale layout epoch";
      return false;
    }
    std::size_t still = 0;
    for (std::size_t j = 0; j < n_pending; ++j) {
      if (!fetched[pending[j]]) pending[still++] = pending[j];
    }
    n_pending = still;
    if (n_pending == 0 || attempt >= retry_.piece_attempts) break;
    result.retries += n_pending;
    if (trace) {
      for (std::size_t j = 0; j < n_pending; ++j) {
        trace->record(obs::TraceKind::kPieceRetry, op, id, meta.servers[pending[j]], pending[j],
                      static_cast<double>(attempt));
      }
    }
    fault::backoff_sleep(retry_, attempt, fault::retry_token(id, pending[0], pass));
  }

  std::optional<StableCopy> stable;
  if (n_pending > 0) {
    // Failover: restore the checkpointed file inline and serve the
    // unfetchable pieces from it (the read completes degraded while the
    // repair catches up in the background).
    stable = layouts_->restore(id);
    if (!stable || stable->bytes.size() != total || crc32(stable->bytes) != meta.file_crc) {
      error = "piece(s) unfetchable and no usable stable copy";
      return false;
    }
    for (std::size_t j = 0; j < n_pending; ++j) {
      const std::uint32_t i = pending[j];
      const auto from = stable->bytes.begin() + static_cast<std::ptrdiff_t>(offsets[i]);
      std::copy(from, from + static_cast<std::ptrdiff_t>(meta.piece_sizes[i]),
                result.bytes.begin() + static_cast<std::ptrdiff_t>(offsets[i]));
      if (trace) {
        trace->record(obs::TraceKind::kPieceDegraded, op, id, meta.servers[i], i);
      }
    }
  }

  // Whole-file verification. Clean pass: stitch the per-piece CRCs from
  // the fused copies into crc32(result.bytes) with crc32_combine, O(log n)
  // carry-less multiplies per piece; the reassembled buffer is never
  // rescanned. Degraded pass: some ranges came from the stable restore (no
  // fused CRC), so fall back to one full pass.
  std::uint32_t whole_crc = 0;
  if (n_pending == 0 && k > 0) {
    whole_crc = piece_crcs[0];
    for (std::size_t i = 1; i < k; ++i) {
      whole_crc = crc32_combine(whole_crc, piece_crcs[i], meta.piece_sizes[i]);
    }
  } else {
    whole_crc = crc32(result.bytes);
  }
  if (whole_crc != meta.file_crc) {
    error = "whole-file checksum mismatch";
    return false;
  }
  result.degraded_pieces += n_pending;
  result.degraded = result.degraded_pieces > 0;

  // Modelled time: the pieces served from the cache in parallel, and a
  // degraded read additionally pays the whole-file restore.
  std::size_t n_fetched = 0;
  for (std::size_t i = 0; i < k; ++i) {
    if (fetched[i]) pending[n_fetched++] = static_cast<std::uint32_t>(i);
  }
  result.network_time = store_->read_time(meta, pending.first(n_fetched), k);
  if (stable) result.network_time = std::max(result.network_time, stable->modelled_time);
  return true;
}

IoResult SpClient::read(FileId id) {
  // One-shot scratch. Hot callers (benches, the adversarial scenario
  // readers) hold a ReadScratch per thread and call the allocation-free
  // overload directly.
  ReadScratch scratch;
  return std::move(read(id, scratch));
}

IoResult& SpClient::read(FileId id, ReadScratch& scratch) {
  const auto* probes = probes_.load(std::memory_order_acquire);
  obs::TraceRecorder* trace = probes ? probes->trace : nullptr;
  const std::uint64_t op = trace ? trace->begin_op() : 0;
  if (trace) trace->record(obs::TraceKind::kReadStart, op, id);
  const auto start = std::chrono::steady_clock::now();

  IoResult& result = scratch.result;
  result.network_time = 0.0;
  result.compute_time = 0.0;
  result.retries = 0;
  result.degraded_pieces = 0;
  result.degraded = false;
  result.layout_cached = false;
  const char* error = "layout lookup failed";
  for (std::size_t pass = 1; pass <= retry_.read_attempts; ++pass) {
    result.passes = pass;
    if (pass > 1) {
      ++result.retries;
      if (trace) {
        trace->record(obs::TraceKind::kReadRepeatPass, op, id, 0, 0,
                      static_cast<double>(pass));
      }
      fault::backoff_sleep(retry_, pass, fault::retry_token(id, 0, pass));
    }
    bool from_cache = false;
    const LookupStatus status = layout_for_pass(id, pass, from_cache, scratch.meta);
    if (status == LookupStatus::kUnknownFile) {
      if (probes) probes->read_failures->add(1);
      if (trace) trace->record(obs::TraceKind::kReadFailed, op, id);
      throw std::runtime_error("SpClient::read: unknown file");
    }
    if (status == LookupStatus::kUnavailable) continue;  // transient: back off, retry
    if (read_pass(id, pass, op, scratch, error)) {
      result.layout_cached = from_cache;
      // A degraded success means this layout references pieces that are
      // gone. Drop it so the next read re-LOOKUPs and picks up a repair's
      // re-placement, instead of replaying the stale layout and paying the
      // stable-store failover on every read forever.
      if (result.degraded) invalidate_layout(id);
      if (probes) {
        const double wall = elapsed_seconds(start);
        probes->reads->add(1);
        probes->retries->add(result.retries);
        if (result.degraded) probes->degraded_reads->add(1);
        probes->degraded_pieces->add(result.degraded_pieces);
        probes->read_wall->record(wall);
        probes->read_model->record(result.network_time + result.compute_time);
        probes->arena_high_water->set(
            static_cast<std::int64_t>(scratch.arena.high_water()));
        probes->arena_fallbacks->set(
            static_cast<std::int64_t>(scratch.arena.fallback_allocs()));
        if (trace) trace->record(obs::TraceKind::kReadDone, op, id, 0, 0, wall);
      }
      return result;
    }
    invalidate_layout(id);
  }
  if (probes) {
    probes->read_failures->add(1);
    probes->retries->add(result.retries);
    if (trace) trace->record(obs::TraceKind::kReadFailed, op, id);
  }
  throw std::runtime_error(std::string("SpClient::read: ") + error + " after " +
                           std::to_string(retry_.read_attempts) + " attempts");
}

void SpClient::attach_observability(obs::MetricsRegistry* registry,
                                    obs::TraceRecorder* trace) {
  if (registry == nullptr) {
    probes_.store(nullptr, std::memory_order_release);
    return;
  }
  namespace n = obs::names;
  auto probes = std::make_unique<ObsProbes>();
  probes->reads = &registry->counter(n::kClientReads);
  probes->read_failures = &registry->counter(n::kClientReadFailures);
  probes->retries = &registry->counter(n::kClientRetries);
  probes->degraded_reads = &registry->counter(n::kClientDegradedReads);
  probes->degraded_pieces = &registry->counter(n::kClientDegradedPieces);
  probes->layout_hits = &registry->counter(n::kClientLayoutHits);
  probes->layout_misses = &registry->counter(n::kClientLayoutMisses);
  probes->layout_invalidations = &registry->counter(n::kClientLayoutInvalidations);
  probes->read_wall = &registry->histogram(n::kClientReadLatency);
  probes->read_model = &registry->histogram(n::kClientReadModelled);
  probes->arena_high_water = &registry->gauge(n::kArenaHighWater);
  probes->arena_fallbacks = &registry->gauge(n::kArenaFallbackAllocs);
  probes->trace = trace;
  probes_storage_ = std::move(probes);
  probes_.store(probes_storage_.get(), std::memory_order_release);
}

EcClient::EcClient(Cluster& cluster, Master& master, ThreadPool& pool, std::size_t k,
                   std::size_t n, GoodputModel goodput)
    : EcClient(make_inproc_piece_store(cluster, &pool, goodput),
               make_inproc_layout_service(master, nullptr), k, n) {}

EcClient::EcClient(std::unique_ptr<PieceStore> store, std::unique_ptr<LayoutService> layouts,
                   std::size_t k, std::size_t n)
    : store_(std::move(store)), layouts_(std::move(layouts)), rs_(k, n) {}

IoResult EcClient::write(FileId id, std::span<const std::uint8_t> data,
                         const std::vector<std::uint32_t>& servers) {
  if (servers.size() != rs_.total_shards()) {
    throw std::invalid_argument("EcClient::write: need exactly n servers");
  }
  const auto encode_start = std::chrono::steady_clock::now();
  auto shards = rs_.encode(data);
  const double encode_time = elapsed_seconds(encode_start);
  if (auto* probes = probes_.load(std::memory_order_acquire)) {
    probes->encode_bytes->add(data.size());
    if (encode_time > 0.0) {
      probes->encode_gbps->set(static_cast<std::int64_t>(
          static_cast<double>(data.size()) / encode_time / 1e6));  // x1e3 GB/s
    }
  }

  FileMeta meta;
  meta.size = data.size();
  meta.servers = servers;
  meta.file_crc = crc32(data);
  std::vector<std::vector<std::uint8_t>> pieces;
  pieces.reserve(shards.size());
  Bytes total = 0;
  for (auto& s : shards) {
    meta.piece_sizes.push_back(s.bytes.size());
    total += s.bytes.size();
    pieces.push_back(std::move(s.bytes));
  }
  meta.epoch = layouts_->epoch(id) + 1;
  store_->put_owned(id, std::move(pieces), servers, meta.epoch);
  layouts_->publish(id, meta);

  IoResult result;
  result.network_time = store_->write_time(servers, total);
  result.compute_time = encode_time;
  return result;
}

namespace {

// Collects the late-binding sample's shards by their slot in the sample;
// the owners keep every view alive through the decode.
struct ShardSink final : PieceSink {
  std::span<const std::size_t> picks;
  std::vector<PieceView> got;

  explicit ShardSink(std::span<const std::size_t> picks) : picks(picks), got(picks.size()) {}

  void on_piece(PieceView piece) override {
    for (std::size_t j = 0; j < picks.size(); ++j) {
      if (picks[j] == piece.piece) {
        got[j] = std::move(piece);
        return;
      }
    }
  }
};

}  // namespace

IoResult EcClient::read(FileId id, Rng& rng) {
  FileMeta meta;
  const LookupStatus status = layouts_->lookup(id, meta);
  if (status != LookupStatus::kFound) {
    throw std::runtime_error(status == LookupStatus::kUnknownFile
                                 ? "EcClient::read: unknown file"
                                 : "EcClient::read: layout lookup failed");
  }
  const std::size_t k = rs_.data_shards();
  const std::size_t n = rs_.total_shards();
  if (meta.partitions() != n) throw std::runtime_error("EcClient::read: layout mismatch");

  // Late binding: fetch k+1 distinct shards and decode from the first k of
  // the sample that arrived (in the real system, the k fastest), so one
  // lost shard costs nothing.
  const std::size_t fetch_count = std::min(k + 1, n);
  const auto picks = rng.sample_without_replacement(n, fetch_count);
  std::vector<std::uint32_t> wanted(picks.begin(), picks.end());
  ShardSink sink(picks);
  if (!store_->fetch(id, meta, wanted, sink)) {
    throw std::runtime_error("EcClient::read: stale layout epoch");
  }
  // Zero-copy decode: the decoder reads the fetched bytes through the
  // non-owning views while the sink's owners keep them alive, and returns
  // the whole-file CRC stitched from its rows, so the output is never
  // rescanned. That CRC is the check of every shard the decode read: no
  // shard is scanned on its own unless it fails.
  const auto decode_start = std::chrono::steady_clock::now();
  IoResult result;
  result.bytes.resize(meta.size);
  RsScratch scratch;
  std::vector<ShardView> views;
  views.reserve(k);
  const auto decode = [&] {
    views.clear();
    wanted.clear();
    for (std::size_t j = 0; j < fetch_count && views.size() < k; ++j) {
      if (!sink.got[j].owner) continue;
      views.push_back(ShardView{picks[j], sink.got[j].bytes});
      wanted.push_back(static_cast<std::uint32_t>(picks[j]));
    }
    if (views.size() < k) throw std::runtime_error("EcClient::read: not enough shards survived");
    return rs_.decode_into(views, meta.size, result.bytes, scratch);
  };
  std::uint32_t crc = decode();
  if (crc != meta.file_crc) {
    // Only a failed decode pays for finding the culprit: every fetched
    // shard (the spare too) is checked against the CRC stamped at put, the
    // rotted ones are dropped, and the survivors are decoded once more.
    bool dropped = false;
    for (std::size_t j = 0; j < fetch_count; ++j) {
      auto& got = sink.got[j];
      if (got.owner && !intact(got, meta.piece_sizes[picks[j]])) {
        got = PieceView{};
        dropped = true;
      }
    }
    if (dropped) crc = decode();
  }
  result.compute_time = elapsed_seconds(decode_start);
  if (auto* probes = probes_.load(std::memory_order_acquire)) {
    probes->decode_bytes->add(meta.size);
    if (result.compute_time > 0.0) {
      probes->decode_gbps->set(static_cast<std::int64_t>(
          static_cast<double>(meta.size) / result.compute_time / 1e6));  // x1e3 GB/s
    }
  }
  if (crc != meta.file_crc) {
    throw std::runtime_error("EcClient::read: whole-file checksum mismatch");
  }
  result.network_time = store_->read_time(meta, wanted, fetch_count);
  return result;
}

void EcClient::attach_observability(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    probes_.store(nullptr, std::memory_order_release);
    return;
  }
  namespace n = obs::names;
  auto probes = std::make_unique<CodecProbes>();
  probes->encode_bytes = &registry->counter(n::kCodecEncodeBytes);
  probes->decode_bytes = &registry->counter(n::kCodecDecodeBytes);
  probes->encode_gbps = &registry->gauge(n::kCodecEncodeGbps);
  probes->decode_gbps = &registry->gauge(n::kCodecDecodeGbps);
  probes_storage_ = std::move(probes);
  probes_.store(probes_storage_.get(), std::memory_order_release);
}

}  // namespace spcache
