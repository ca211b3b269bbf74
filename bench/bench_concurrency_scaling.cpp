// Concurrency scaling of the threaded-cluster hot read path.
//
// Four implementations of the same whole-file read (LOOKUP + k piece GETs
// + integrity verification + reassembly) run the same workload at 1-32
// client threads, with each piece's transfer emulated as wall-clock time —
// the same NIC model (`Bytes / Bandwidth`) every other bench in this repo
// uses for data movement, here applied to the piece being served. The
// emulated links are 10 Gbps rather than the paper's 1 Gbps testbed: at
// 1 Gbps a 1 MB read sleeps ~8 ms against ~0.2 ms of CPU work, so the NIC
// hides the entire data plane; at 10 Gbps the per-byte CPU costs (copies,
// checksums, allocation) become the bottleneck at high thread counts,
// which is precisely the regime the kernel work targets:
//
//   global        "old-style global-lock" baseline: one mutex guards the
//                 metadata map and the block store. Without shared block
//                 ownership, serving a piece without copying it means the
//                 lock stays pinned while the piece is consumed (transfer
//                 + CRC verification) — release it mid-serve and a
//                 concurrent erase/overwrite invalidates the bytes
//                 being read. Every in-flight read therefore serializes.
//   global_copy   the seed's actual compromise: same single mutex, but
//                 each piece is copied out while the lock is held, then
//                 verified/transferred/appended after release. Reads
//                 overlap, at the price of touching every byte twice on
//                 the CPU (copy-out + append) plus per-piece and
//                 whole-file CRC passes.
//   sharded       the sharded-hot-path PR: sharded master (shared locks +
//                 relaxed atomic access counters), striped stores whose
//                 get() returns std::shared_ptr<const Block> — the stripe
//                 lock drops before the piece is verified or transferred,
//                 and the bytes are copied exactly once, into their final
//                 offset. Whole-file integrity is a separate crc32 rescan
//                 of the reassembled bytes.
//   fused         what SpClient does: same sharded stores, but each piece
//                 is fetched unscanned (get_for_serve) and lands through
//                 the fused crc32_copy kernel (copy + checksum in one pass,
//                 compared with the CRC stamped at put — the only scan of
//                 the piece), the whole-file CRC is stitched
//                 from the per-piece CRCs in O(k) combine operations
//                 instead of a second 1 MB scan, and the reassembly buffer
//                 and combine operators live in a per-thread scratch — the
//                 steady-state read touches each byte once and never
//                 allocates.
//
// Reported per thread count: aggregate ops/sec and p99 end-to-end read
// latency per mode, plus sharded-vs-global speedup. On a single-core host
// the sharding itself (lock spreading) is barely visible — what the
// measurement isolates is the ownership change (drop the lock before the
// piece is consumed) and the single-copy read path; on multicore hosts
// the per-shard locks compound on top. Output: console table + CSV +
// machine-readable BENCH_concurrency.json.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <span>
#include <cstdint>
#include <iostream>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench_common.h"
#include "cluster/cache_server.h"
#include "cluster/master.h"
#include "common/crc32.h"
#include "common/rng.h"
#include "common/table.h"

namespace spcache::bench {
namespace {

constexpr std::size_t kNServers = 8;
constexpr std::size_t kFiles = 48;
constexpr std::size_t kPieces = 4;
constexpr std::size_t kFileBytes = 1 << 20;  // 1 MB files, 256 kB pieces
constexpr double kMeasureSeconds = 0.8;
constexpr double kLinkGbps = 10.0;  // see header: fast NIC exposes the CPU data plane

using Clock = std::chrono::steady_clock;

// Emulate serving `n` bytes over the server NIC.
void transfer(Bytes n) {
  std::this_thread::sleep_for(
      std::chrono::duration<double>(static_cast<double>(n) / gbps(kLinkGbps)));
}

std::vector<std::uint8_t> file_payload(FileId id) {
  std::vector<std::uint8_t> v(kFileBytes);
  std::uint64_t s = mix64(id);
  for (std::size_t i = 0; i < v.size(); i += 8) {
    s = mix64(s);
    for (std::size_t b = 0; b < 8 && i + b < v.size(); ++b) {
      v[i + b] = static_cast<std::uint8_t>(s >> (8 * b));
    }
  }
  return v;
}

struct ModeResult {
  double ops_per_sec = 0.0;
  double p99_us = 0.0;
};

// ---------------------------------------------------------------------------
// Baselines: one mutex in front of seed-style maps (FileMeta by value,
// Block by value), exactly the pre-refactor data layout.
// ---------------------------------------------------------------------------
class GlobalLockStore {
 public:
  void populate(Rng& rng) {
    for (FileId id = 0; id < kFiles; ++id) {
      const auto data = file_payload(id);
      const auto picks = rng.sample_without_replacement(kNServers, kPieces);
      FileMeta meta;
      meta.size = data.size();
      meta.file_crc = crc32(data);
      const std::size_t piece_bytes = kFileBytes / kPieces;
      for (std::size_t i = 0; i < kPieces; ++i) {
        meta.servers.push_back(static_cast<std::uint32_t>(picks[i]));
        meta.piece_sizes.push_back(piece_bytes);
        std::vector<std::uint8_t> piece(
            data.begin() + static_cast<std::ptrdiff_t>(i * piece_bytes),
            data.begin() + static_cast<std::ptrdiff_t>((i + 1) * piece_bytes));
        const std::uint32_t crc = crc32(piece);
        blocks_[BlockKey{id, static_cast<PieceIndex>(i)}] = Block{std::move(piece), crc};
      }
      metas_[id] = std::move(meta);
    }
  }

  // "global": the lock is pinned across each piece's verify + transfer +
  // append, because the reference into the map is only valid while held.
  std::vector<std::uint8_t> read_locked_serve(FileId id) {
    FileMeta meta;
    {
      std::lock_guard lock(mu_);
      meta = metas_.at(id);
    }
    std::vector<std::uint8_t> out;
    out.reserve(meta.size);
    for (std::size_t i = 0; i < meta.partitions(); ++i) {
      std::lock_guard lock(mu_);
      const Block& block = blocks_.at(BlockKey{id, static_cast<PieceIndex>(i)});
      if (crc32(block.bytes) != block.crc) throw std::runtime_error("global: piece corrupt");
      transfer(block.bytes.size());
      out.insert(out.end(), block.bytes.begin(), block.bytes.end());
    }
    if (crc32(out) != meta.file_crc) throw std::runtime_error("global: file corrupt");
    return out;
  }

  // "global_copy": the seed's discipline — copy each piece out under the
  // lock, then verify/transfer/append unlocked.
  std::vector<std::uint8_t> read_copy_out(FileId id) {
    FileMeta meta;
    {
      std::lock_guard lock(mu_);
      meta = metas_.at(id);
    }
    std::vector<std::uint8_t> out;
    out.reserve(meta.size);
    for (std::size_t i = 0; i < meta.partitions(); ++i) {
      Block copy;
      {
        std::lock_guard lock(mu_);
        copy = blocks_.at(BlockKey{id, static_cast<PieceIndex>(i)});
      }
      if (crc32(copy.bytes) != copy.crc) throw std::runtime_error("global_copy: piece corrupt");
      transfer(copy.bytes.size());
      out.insert(out.end(), copy.bytes.begin(), copy.bytes.end());
    }
    if (crc32(out) != meta.file_crc) throw std::runtime_error("global_copy: file corrupt");
    return out;
  }

 private:
  std::mutex mu_;
  std::unordered_map<FileId, FileMeta> metas_;
  std::unordered_map<BlockKey, Block, BlockKeyHash> blocks_;
};

// ---------------------------------------------------------------------------
// The refactored path: sharded master lookup, striped zero-copy get() —
// CRC verification and the transfer happen on the shared block with no
// lock held, and each byte is copied once, to its final offset.
// ---------------------------------------------------------------------------
class ShardedReader {
 public:
  ShardedReader(Cluster& cluster, Master& master) : cluster_(cluster), master_(master) {}

  void populate(Rng& rng) {
    for (FileId id = 0; id < kFiles; ++id) {
      const auto data = file_payload(id);
      const auto picks = rng.sample_without_replacement(kNServers, kPieces);
      FileMeta meta;
      meta.size = data.size();
      meta.file_crc = crc32(data);
      const std::size_t piece_bytes = kFileBytes / kPieces;
      for (std::size_t i = 0; i < kPieces; ++i) {
        meta.servers.push_back(static_cast<std::uint32_t>(picks[i]));
        meta.piece_sizes.push_back(piece_bytes);
        cluster_.server(picks[i]).put(
            BlockKey{id, static_cast<PieceIndex>(i)},
            std::vector<std::uint8_t>(
                data.begin() + static_cast<std::ptrdiff_t>(i * piece_bytes),
                data.begin() + static_cast<std::ptrdiff_t>((i + 1) * piece_bytes)));
      }
      master_.register_file(id, std::move(meta));
    }
  }

  std::vector<std::uint8_t> read(FileId id) {
    const auto meta = master_.lookup_for_read(id);
    if (!meta) throw std::runtime_error("sharded: unknown file");
    std::vector<std::uint8_t> out(meta->size);
    Bytes offset = 0;
    for (std::size_t i = 0; i < meta->partitions(); ++i) {
      const auto block =
          cluster_.server(meta->servers[i]).get(BlockKey{id, static_cast<PieceIndex>(i)});
      if (!block) throw std::runtime_error("sharded: missing piece");
      transfer(block->bytes.size());
      std::copy(block->bytes.begin(), block->bytes.end(),
                out.begin() + static_cast<std::ptrdiff_t>(offset));
      offset += block->bytes.size();
    }
    if (crc32(out) != meta->file_crc) throw std::runtime_error("sharded: file corrupt");
    return out;
  }

 private:
  Cluster& cluster_;
  Master& master_;
};

// SpClient's steady-state read: fused copy+CRC per piece, whole-file CRC by
// combination, reassembly buffer reused across reads (one
// Scratch per bench thread — zero heap allocations once warmed).
class FusedReader {
 public:
  struct Scratch {
    std::vector<std::uint8_t> out;
    std::array<std::uint32_t, kPieces> piece_crcs{};
  };

  FusedReader(Cluster& cluster, Master& master) : cluster_(cluster), master_(master) {}

  const std::vector<std::uint8_t>& read(FileId id, Scratch& s) {
    const auto meta = master_.lookup_for_read(id);
    if (!meta) throw std::runtime_error("fused: unknown file");
    s.out.resize(meta->size);
    Bytes offset = 0;
    for (std::size_t i = 0; i < meta->partitions(); ++i) {
      // Unscanned block, as SpClient fetches it: the fused copy's CRC is
      // the piece check against the CRC stamped at put.
      const auto block = cluster_.server(meta->servers[i])
                             .get_for_serve(BlockKey{id, static_cast<PieceIndex>(i)});
      if (!block) throw std::runtime_error("fused: missing piece");
      transfer(block->bytes.size());
      s.piece_crcs[i] = crc32_copy(
          std::span<std::uint8_t>(s.out.data() + offset, block->bytes.size()), block->bytes);
      if (s.piece_crcs[i] != block->crc) throw std::runtime_error("fused: piece corrupt");
      offset += block->bytes.size();
    }
    std::uint32_t whole = s.piece_crcs[0];
    for (std::size_t i = 1; i < meta->partitions(); ++i) {
      whole = crc32_combine(whole, s.piece_crcs[i], meta->piece_sizes[i]);
    }
    if (whole != meta->file_crc) throw std::runtime_error("fused: file corrupt");
    return s.out;
  }

 private:
  Cluster& cluster_;
  Master& master_;
};

template <typename ReadFn>
ModeResult run_mode(ReadFn&& read_one, std::size_t n_threads) {
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::vector<std::uint64_t> ops(n_threads, 0);
  std::vector<std::vector<double>> latencies(n_threads);

  std::vector<std::thread> threads;
  threads.reserve(n_threads);
  for (std::size_t t = 0; t < n_threads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(0x5eed + t);
      auto& lat = latencies[t];
      lat.reserve(1 << 12);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      while (!stop.load(std::memory_order_relaxed)) {
        const FileId id = static_cast<FileId>(rng.uniform_index(kFiles));
        const auto op_start = Clock::now();
        const auto& bytes = read_one(id);
        const auto op_end = Clock::now();
        if (bytes.size() != kFileBytes) throw std::runtime_error("bench: short read");
        ++ops[t];
        lat.push_back(std::chrono::duration<double, std::micro>(op_end - op_start).count());
      }
    });
  }

  const auto start = Clock::now();
  go.store(true, std::memory_order_release);
  while (std::chrono::duration<double>(Clock::now() - start).count() < kMeasureSeconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : threads) th.join();
  const double elapsed = std::chrono::duration<double>(Clock::now() - start).count();

  ModeResult result;
  std::uint64_t total_ops = 0;
  std::vector<double> all;
  for (std::size_t t = 0; t < n_threads; ++t) {
    total_ops += ops[t];
    all.insert(all.end(), latencies[t].begin(), latencies[t].end());
  }
  result.ops_per_sec = static_cast<double>(total_ops) / elapsed;
  if (!all.empty()) {
    std::sort(all.begin(), all.end());
    result.p99_us = all[std::min(all.size() - 1,
                                 static_cast<std::size_t>(0.99 * static_cast<double>(all.size())))];
  }
  return result;
}

}  // namespace
}  // namespace spcache::bench

int main() {
  using namespace spcache;
  using namespace spcache::bench;

  print_experiment_header(
      std::cout, "Concurrency scaling",
      "Aggregate read throughput and p99 latency vs client threads, pieces\n"
      "served over emulated 10 Gbps links: global-lock baseline (lock pinned\n"
      "while each piece is served), the seed's copy-out-under-lock variant,\n"
      "the sharded zero-copy path, and SpClient's fused kernel path. " +
          std::to_string(kFiles) + " files x " + std::to_string(kFileBytes / 1024) +
          " kB, k=" + std::to_string(kPieces) + ", " + std::to_string(kNServers) + " servers.");

  Cluster cluster(kNServers, gbps(kLinkGbps));
  Master master;
  Rng rng(17);

  GlobalLockStore baseline;
  baseline.populate(rng);
  ShardedReader sharded(cluster, master);
  sharded.populate(rng);
  FusedReader fused(cluster, master);

  // Warm-up all four paths.
  for (FileId id = 0; id < 4; ++id) {
    (void)baseline.read_locked_serve(id);
    (void)baseline.read_copy_out(id);
    (void)sharded.read(id);
    FusedReader::Scratch warm;
    (void)fused.read(id, warm);
  }

  Table table({"threads", "global_ops_s", "copy_ops_s", "sharded_ops_s", "fused_ops_s",
               "fused_p99_ms", "speedup", "fused_gain"});
  table.set_precision(4);
  std::vector<JsonRow> json_rows;

  for (const std::size_t n_threads : {1u, 2u, 4u, 8u, 16u, 32u}) {
    const auto global =
        run_mode([&](FileId id) { return baseline.read_locked_serve(id); }, n_threads);
    const auto copy = run_mode([&](FileId id) { return baseline.read_copy_out(id); }, n_threads);
    const auto shard = run_mode([&](FileId id) { return sharded.read(id); }, n_threads);
    const auto fuse = run_mode(
        [&](FileId id) -> const std::vector<std::uint8_t>& {
          thread_local FusedReader::Scratch scratch;
          return fused.read(id, scratch);
        },
        n_threads);
    const double speedup = global.ops_per_sec > 0 ? fuse.ops_per_sec / global.ops_per_sec : 0.0;
    // The data-plane PR's win over the sharded (previous-PR) read path.
    const double fused_gain =
        shard.ops_per_sec > 0 ? fuse.ops_per_sec / shard.ops_per_sec : 0.0;
    table.add_row({static_cast<long long>(n_threads), global.ops_per_sec, copy.ops_per_sec,
                   shard.ops_per_sec, fuse.ops_per_sec, fuse.p99_us / 1e3, speedup, fused_gain});
    json_rows.push_back(JsonRow{{"threads", static_cast<double>(n_threads)},
                                {"global_ops_per_sec", global.ops_per_sec},
                                {"global_p99_us", global.p99_us},
                                {"global_copy_ops_per_sec", copy.ops_per_sec},
                                {"global_copy_p99_us", copy.p99_us},
                                {"sharded_ops_per_sec", shard.ops_per_sec},
                                {"sharded_p99_us", shard.p99_us},
                                {"fused_ops_per_sec", fuse.ops_per_sec},
                                {"fused_p99_us", fuse.p99_us},
                                {"speedup", speedup},
                                {"fused_gain_over_sharded", fused_gain}});
  }

  table.print(std::cout);
  std::cout << "\n";
  table.print_csv(std::cout);
  const auto path = write_json_report("concurrency", json_rows);
  std::cout << "\nwrote " << path << "\n";
  return 0;
}
