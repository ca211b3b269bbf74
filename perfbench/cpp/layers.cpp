#include "layers.h"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "cluster/repartition_exec.h"
#include "common/hash_mix.h"
#include "core/sp_cache.h"
#include "erasure/rs_code.h"
#include "rpc/frame.h"
#include "simd/simd.h"
#include "tcp_cluster.h"

namespace perfbench {

using namespace spcache;

namespace {

constexpr std::size_t kReplayReadsPerThread = 400;
constexpr Bytes kReplayByteCap = 64 * kMiB;

double median3(double a, double b, double c) {
  return std::max(std::min(a, b), std::min(std::max(a, b), c));
}

// Files of `seqs` in first-seen order until their bytes reach `cap`, and
// the sequences filtered down to those files.
std::vector<FileId> capped_files(const Catalog& catalog, std::vector<std::vector<FileId>>& seqs,
                                 Bytes cap) {
  std::vector<char> chosen(catalog.size(), 0);
  std::vector<FileId> files;
  Bytes total = 0;
  for (std::size_t i = 0;; ++i) {
    bool any = false;
    for (const auto& s : seqs) {
      if (i >= s.size()) continue;
      any = true;
      const FileId f = s[i];
      if (chosen[f] || total + catalog.file(f).size > cap) continue;
      chosen[f] = 1;
      total += catalog.file(f).size;
      files.push_back(f);
    }
    if (!any) break;
  }
  for (auto& s : seqs) {
    s.erase(std::remove_if(s.begin(), s.end(), [&](FileId f) { return !chosen[f]; }), s.end());
  }
  return files;
}

std::vector<std::vector<FileId>> sequences(const Workload& w, std::uint64_t seed, std::size_t n) {
  std::vector<std::vector<FileId>> out;
  for (std::size_t t = 0; t < caller_threads(); ++t) {
    out.push_back(file_sequence(w.catalog(), seed, t, n));
  }
  return out;
}

// SP placement of the workload's catalog on its own server count.
std::vector<FilePlacement> sp_placements(const WorkloadShape& shape, const Catalog& catalog) {
  SpCacheConfig cfg;
  cfg.search = model_config(shape);
  SpCacheScheme scheme(cfg);
  Rng rng = thread_rng(kDatasetSeed, 0, 7);
  scheme.place(catalog, bandwidths(shape), rng);
  return scheme.placements();
}

void make_dir(const std::string& path) {
  if (::mkdir(path.c_str(), 0700) != 0 && errno != EEXIST) {
    throw std::runtime_error("cannot create " + path);
  }
}

}  // namespace

double LayerReport::span_mean_us(const std::string& name) const {
  const auto totals = span_totals(workload->spans.collect());
  const auto it = totals.find(name);
  return it == totals.end() ? 0.0 : it->second.mean_s() * 1e6;
}

double LayerReport::span_mean_self_us(const std::string& name) const {
  const auto totals = span_totals(workload->spans.collect());
  const auto it = totals.find(name);
  return it == totals.end() ? 0.0 : it->second.mean_self_s() * 1e6;
}

void sp_client_metrics(LayerReport& r, obs::MetricsRegistry* registry, std::uint64_t reads,
                       std::uint64_t retries) {
  const auto snap = registry->snapshot();
  const double hits = static_cast<double>(snap.counter_value(obs::names::kClientLayoutHits));
  const double misses = static_cast<double>(snap.counter_value(obs::names::kClientLayoutMisses));
  r.metrics.add("cluster.client.read_us", r.span_mean_us("cluster.client.read"), "us");
  r.metrics.add("cluster.client.write_us", r.span_mean_us("cluster.client.write"), "us");
  r.metrics.add("cluster.client.layout_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0,
                "ratio");
  r.metrics.add("cluster.client.retries_per_read",
                reads ? static_cast<double>(retries) / static_cast<double>(reads) : 0.0, "count");
  r.metrics.add("cluster.client.arena_fallbacks",
                static_cast<double>(snap.gauge_value(obs::names::kArenaFallbackAllocs)), "count");
}

void epoch_metrics(LayerReport& r, const std::vector<EpochStats>& epochs) {
  auto med = [&](double (*field)(const EpochStats&)) {
    std::vector<double> v;
    for (const auto& e : epochs) v.push_back(field(e));
    std::sort(v.begin(), v.end());
    return v.empty() ? 0.0 : v[v.size() / 2];
  };
  using E = const EpochStats&;
  r.metrics.add("math.scale_factor_s", med([](E e) { return e.scale_factor_s; }), "s");
  r.metrics.add("math.scale_factor_iterations",
                med([](E e) { return static_cast<double>(e.scale_factor_iterations); }), "count");
  r.metrics.add("core.plan_repartition_ms", med([](E e) { return e.plan_s * 1e3; }), "ms");
  r.metrics.add("core.changed_fraction", med([](E e) { return e.changed_fraction; }), "ratio");
  r.metrics.add("cluster.repartition.bytes_moved_mb",
                med([](E e) { return static_cast<double>(e.exec.bytes_moved) / kMiB; }), "MiB");
  r.metrics.add("cluster.repartition.bytes_saved_mb",
                med([](E e) { return static_cast<double>(e.exec.bytes_saved) / kMiB; }), "MiB");
  r.metrics.add("cluster.repartition.cutover_max_ms",
                med([](E e) { return e.exec.max_cutover_time * 1e3; }), "ms");
}

void replay_rpc(LayerReport& report) {
  const Workload& w = *report.workload;
  auto seqs = sequences(w, report.options->seed, kReplayReadsPerThread);
  const std::vector<FileId> files = capped_files(w.catalog(), seqs, kReplayByteCap);
  WorkloadShape shape = w.shape();
  shape.servers = 3;
  const auto placements = sp_placements(shape, w.catalog());

  const std::string logdir = report.options->workdir + "/rpc-replay";
  make_dir(logdir);
  obs::MetricsRegistry registry;
  TcpCluster cluster(report.options->bindir, logdir, shape.servers, 120);
  cluster.boot();
  auto& client = cluster.client();
  std::vector<std::uint8_t> buf;
  for (FileId f : files) {
    buf.resize(w.catalog().file(f).size);
    fill_content(buf, report.options->seed, f, 0);
    client.write(f, buf, placements[f].servers);
  }
  client.prefetch_layouts(files);
  cluster.bus().attach_observability(&registry);
  const auto before = cluster.transport().counters();
  std::vector<std::uint64_t> passes(seqs.size(), 0), shared(seqs.size(), 0), bad(seqs.size(), 0);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < seqs.size(); ++t) {
    threads.emplace_back([&, t] {
      for (FileId f : seqs[t]) {
        ScopedSpan op(&report.workload->spans, "op.read");
        try {
          rpc::RpcReadStats r;
          {
            ScopedSpan c(&report.workload->spans, "rpc.client.read");
            r = client.read_with_stats(f);
          }
          passes[t] += r.passes;
          shared[t] += r.shared ? 1 : 0;
          if (!content_matches(r.bytes, report.options->seed, f, 0)) ++bad[t];
        } catch (const std::exception&) {
          ++bad[t];
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  const auto after = cluster.transport().counters();
  double reads = 0.0;
  for (const auto& s : seqs) reads += static_cast<double>(s.size());
  const double rtt_us = cluster.ping_rtt_s(200) * 1e6;
  const auto routed =
      static_cast<double>(registry.snapshot().counter_value(obs::names::kBusRouted));
  std::vector<DaemonExit> exits;
  const bool clean = cluster.stop_checked(exits).empty();
  double server_writev = 0, server_frames = 0, server_bytes = 0;
  for (const auto& e : exits) {
    server_writev += e.counter("transport.writev_calls");
    server_frames += e.counter("transport.frames_sent");
    server_bytes += e.counter("transport.bytes_tx");
  }
  if (!clean || std::accumulate(bad.begin(), bad.end(), std::uint64_t{0}) != 0) {
    throw std::runtime_error("rpc replay: failed or mismatched reads, or transport errors");
  }
  auto& m = report.metrics;
  m.add("rpc.client.read_us", report.span_mean_us("rpc.client.read"), "us");
  m.add("rpc.client.passes_per_read",
        std::accumulate(passes.begin(), passes.end(), 0.0) / reads, "count");
  m.add("rpc.client.singleflight_shared_ratio",
        std::accumulate(shared.begin(), shared.end(), 0.0) / reads, "ratio");
  m.add("rpc.bus.envelopes_per_read", routed / reads, "count");
  // Client gather syscalls per read; the daemons' batch depth and bytes per
  // gather syscall, off their exit lines.
  m.add("rpc.transport.writev_per_read",
        static_cast<double>(after.writev_calls - before.writev_calls) / reads, "count");
  m.add("rpc.transport.frames_per_writev",
        server_writev > 0 ? server_frames / server_writev : 0.0, "count");
  m.add("rpc.transport.bytes_per_syscall", server_writev > 0 ? server_bytes / server_writev : 0.0,
        "B");
  m.add("rpc.tcp.rtt_us", rtt_us, "us");
}

void replay_sp(LayerReport& report) {
  const Workload& w = *report.workload;
  SpanRecorder* spans = &report.workload->spans;
  auto seqs = sequences(w, report.options->seed, kReplayReadsPerThread);
  obs::MetricsRegistry registry;  // outlives the harness, which reports into it on teardown
  SpHarness h(w.shape(), caller_threads());
  h.cluster.attach_observability(&registry);
  h.master.attach_observability(&registry);
  h.client.attach_observability(&registry);
  std::vector<FileId> ids(w.catalog().size());
  std::iota(ids.begin(), ids.end(), FileId{0});
  OpSamples writes;
  h.load(w.catalog(), ids, report.options->seed, spans, writes);
  std::vector<std::uint64_t> retries(seqs.size(), 0), bad(seqs.size(), 0);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < seqs.size(); ++t) {
    threads.emplace_back([&, t] {
      ReadScratch scratch;
      for (FileId f : seqs[t]) {
        ScopedSpan op(spans, "op.read");
        try {
          IoResult* r = nullptr;
          {
            ScopedSpan c(spans, "cluster.client.read");
            r = &h.client.read(f, scratch);
          }
          retries[t] += r->retries;
          if (!content_matches(r->bytes, report.options->seed, f, 0)) ++bad[t];
        } catch (const std::exception&) {
          ++bad[t];
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  std::uint64_t reads = 0;
  for (const auto& s : seqs) reads += s.size();
  if (writes.bad() != 0 || std::accumulate(bad.begin(), bad.end(), std::uint64_t{0}) != 0) {
    throw std::runtime_error("sp replay: failed or mismatched operations");
  }
  sp_client_metrics(report, &registry, reads,
                    std::accumulate(retries.begin(), retries.end(), std::uint64_t{0}));
  Rng rng = thread_rng(kDatasetSeed, 0, 11);
  std::vector<EpochStats> epochs;
  for (std::size_t e = 1; e <= 4; ++e) {
    epochs.push_back(h.rebalance(epoch_popularity(w.catalog(), e), rng, spans, &registry));
  }
  epoch_metrics(report, epochs);
}

void replay_common(LayerReport& report) {
  const Workload& w = *report.workload;
  const Catalog& catalog = w.catalog();
  const std::uint64_t seed = report.options->seed;
  const auto placements = sp_placements(w.shape(), catalog);
  const auto seqs = sequences(w, seed, 5000);
  const auto& seq0 = seqs[0];

  // --- cluster.master: lookups of the recorded sequence, 1 and 4 threads.
  {
    obs::MetricsRegistry registry;
    Master master;
    for (FileId f = 0; f < catalog.size(); ++f) {
      FileMeta meta;
      meta.size = catalog.file(f).size;
      meta.servers = placements[f].servers;
      meta.piece_sizes = placements[f].piece_bytes;
      master.register_file(f, std::move(meta));
    }
    auto lookups = [&](std::size_t threads) {
      std::vector<double> per(threads, 0.0);
      std::vector<std::thread> pool;
      for (std::size_t t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
          const auto t0 = Clock::now();
          std::size_t found = 0;
          for (int rep = 0; rep < 4; ++rep) {
            for (FileId f : seqs[t % seqs.size()]) found += master.lookup_for_read(f).has_value();
          }
          per[t] = seconds_since(t0) / static_cast<double>(found);
        });
      }
      for (auto& th : pool) th.join();
      return std::accumulate(per.begin(), per.end(), 0.0) / static_cast<double>(threads) * 1e9;
    };
    report.metrics.add("cluster.master.lookup_ns_1t", lookups(1), "ns");
    master.attach_observability(&registry);
    const double ns4 = lookups(caller_threads());
    const auto snap = registry.snapshot();
    const auto total = static_cast<double>(snap.counter_value(obs::names::kMasterLookups));
    const auto contended =
        static_cast<double>(snap.counter_value(obs::names::kMasterShardContention));
    report.metrics.add("cluster.master.lookup_ns_4t", ns4, "ns");
    report.metrics.add("cluster.master.shard_contention", total > 0 ? contended / total : 0.0,
                       "ratio");
  }

  // A source region shaped like the workload's resident data: the dataset
  // size, capped at 192 MiB (still past the 105 MiB L3 of the reference
  // host) so the replays stay small.
  const Bytes region_bytes = std::min<Bytes>(catalog.total_bytes(), 192 * kMiB);
  std::vector<std::uint8_t> region(region_bytes);
  fill_content(region, seed, 0xFFFFFF, 0);
  auto src_for = [&](FileId f, std::size_t piece, Bytes len) {
    const Bytes span = region_bytes > len ? region_bytes - len : 1;
    const Bytes offset = mix64((static_cast<std::uint64_t>(f) << 8) ^ piece) % span;
    return region.data() + (offset & ~Bytes{63});
  };
  // The piece sizes a read of the sequence moves, capped at kReplayByteCap.
  struct Piece {
    FileId file;
    std::size_t index;
    Bytes len;
  };
  std::vector<Piece> pieces;
  Bytes piece_bytes = 0;
  for (FileId f : seq0) {
    for (std::size_t i = 0; i < placements[f].piece_bytes.size(); ++i) {
      pieces.push_back(Piece{f, i, placements[f].piece_bytes[i]});
      piece_bytes += placements[f].piece_bytes[i];
    }
    if (piece_bytes >= 4 * kReplayByteCap) break;
  }
  Bytes max_piece = 1;
  for (const auto& p : pieces) max_piece = std::max(max_piece, p.len);

  // --- simd: fused CRC+copy and plain memcpy over the same pieces.
  {
    std::vector<std::uint8_t> dst(max_piece);
    const auto& k = simd::kernels();
    auto pass = [&](bool crc) {
      std::uint32_t state = 0xFFFFFFFFu;
      const auto t0 = Clock::now();
      for (const auto& p : pieces) {
        const std::uint8_t* src = src_for(p.file, p.index, p.len);
        if (crc) {
          state = k.crc32_copy_update(state, dst.data(), src, p.len);
        } else {
          std::memcpy(dst.data(), src, p.len);
        }
      }
      const double s = seconds_since(t0);
      volatile std::uint32_t sink = state ^ dst[0];
      (void)sink;
      return static_cast<double>(piece_bytes) / s / 1e9;
    };
    double crc[3], mem[3];
    for (int i = 0; i < 3; ++i) {
      crc[i] = pass(true);
      mem[i] = pass(false);
    }
    const double crc_gbps = median3(crc[0], crc[1], crc[2]);
    const double mem_gbps = median3(mem[0], mem[1], mem[2]);
    report.metrics.add("simd.crc32_copy_gbps", crc_gbps, "GB/s");
    report.metrics.add("simd.memcpy_gbps", mem_gbps, "GB/s");
    report.metrics.add("simd.crc32_copy_frac_memcpy", crc_gbps / mem_gbps, "ratio");

    // GF(256) multiply-accumulate over the sequence's RS(10,14) shard sizes.
    std::vector<std::uint8_t> acc(catalog.file(0).size / 10 + 64);
    for (FileId f : seq0) {
      acc.resize(std::max<std::size_t>(acc.size(), catalog.file(f).size / 10 + 64));
    }
    Bytes gf_bytes = 0;
    const auto t0 = Clock::now();
    for (FileId f : seq0) {
      const Bytes shard = (catalog.file(f).size + 9) / 10;
      for (std::size_t i = 0; i < 10; ++i) {
        k.gf256_mul_add(acc.data(), src_for(f, i, shard), shard, static_cast<std::uint8_t>(2 + i));
      }
      gf_bytes += 10 * shard;
      if (gf_bytes >= 4 * kReplayByteCap) break;
    }
    const double gf_s = seconds_since(t0);
    report.metrics.add("simd.gf256_mul_add_gbps", static_cast<double>(gf_bytes) / gf_s / 1e9,
                       "GB/s");

    // --- erasure: RS(10,14) encode and late-binding decode of the sequence's files.
    ReedSolomon rs(10, 14);
    RsScratch scratch;
    Rng rng = thread_rng(seed, 0, 13);
    double enc_s = 0.0, dec_s = 0.0;
    Bytes coded = 0;
    std::vector<std::vector<std::uint8_t>> shards(14);
    std::vector<std::uint8_t> out;
    for (FileId f : seq0) {
      const Bytes size = catalog.file(f).size;
      const std::uint8_t* src = src_for(f, 0, size);
      const std::size_t shard = rs.shard_size(size);
      std::vector<std::span<std::uint8_t>> views;
      for (auto& s : shards) {
        s.resize(shard);
        views.emplace_back(s);
      }
      auto t0e = Clock::now();
      rs.encode_into(std::span<const std::uint8_t>(src, size), views);
      enc_s += seconds_since(t0e);
      const auto picks = rng.sample_without_replacement(14, 11);
      std::vector<ShardView> sv;
      for (std::size_t i = 0; i < 10; ++i) sv.push_back(ShardView{picks[i], shards[picks[i]]});
      out.resize(size);
      auto t0d = Clock::now();
      rs.decode_into(sv, size, out, scratch);
      dec_s += seconds_since(t0d);
      if (std::memcmp(out.data(), src, size) != 0) throw std::runtime_error("RS replay mismatch");
      coded += size;
      if (coded >= kReplayByteCap) break;
    }
    const double enc = static_cast<double>(coded) / enc_s / 1e9;
    const double dec = static_cast<double>(coded) / dec_s / 1e9;
    report.metrics.add("erasure.encode_gbps", enc, "GB/s");
    report.metrics.add("erasure.decode_gbps", dec, "GB/s");
    report.metrics.add("erasure.decode_frac_memcpy", dec / mem_gbps, "ratio");
  }

  // --- cluster.store: put then get the sequence's pieces on one CacheServer.
  {
    CacheServer store(0, gbps(w.shape().link_gbps));
    Bytes put_bytes = 0;
    std::size_t stored = 0;
    const auto t0 = Clock::now();
    for (const auto& p : pieces) {
      if (put_bytes >= kReplayByteCap) break;
      store.put_copy(BlockKey{p.file, static_cast<PieceIndex>(p.index)},
                     std::span<const std::uint8_t>(src_for(p.file, p.index, p.len), p.len));
      put_bytes += p.len;
      ++stored;
    }
    const double put_s = seconds_since(t0);
    report.metrics.add("cluster.store.put_gbps", static_cast<double>(put_bytes) / put_s / 1e9,
                       "GB/s");
    std::size_t gets = 0;
    const auto t1 = Clock::now();
    for (int rep = 0; rep < 4; ++rep) {
      for (std::size_t i = 0; i < stored; ++i) {
        const BlockKey key{pieces[i].file, static_cast<PieceIndex>(pieces[i].index)};
        gets += store.get(key) != nullptr;
      }
    }
    const double get_s = seconds_since(t1);
    report.metrics.add("cluster.store.get_ns", get_s / static_cast<double>(gets) * 1e9, "ns");
  }

  // --- rpc.frame: header encode and full-frame decode at the reply sizes.
  {
    rpc::Envelope env;
    env.from = rpc::kFirstWorkerNode;
    env.to = rpc::kFirstClientNode;
    env.is_reply = true;
    env.method = rpc::kGetBlock;
    std::uint64_t sink = 0;
    const auto t0 = Clock::now();
    std::size_t encoded = 0;
    for (int rep = 0; rep < 20; ++rep) {
      for (const auto& p : pieces) {
        env.request_id = encoded++;
        sink += rpc::encode_frame_header(env, p.len)[7];
      }
    }
    const double enc_s = seconds_since(t0);
    report.metrics.add("rpc.frame.encode_ns", enc_s / static_cast<double>(encoded) * 1e9, "ns");
    std::vector<std::uint8_t> stream;
    stream.reserve(kReplayByteCap + max_piece + 64 * rpc::kFrameHeaderSize);
    std::size_t frames = 0;
    for (const auto& p : pieces) {
      if (stream.size() >= kReplayByteCap) break;
      env.request_id = frames++;
      env.payload.assign(src_for(p.file, p.index, p.len), src_for(p.file, p.index, p.len) + p.len);
      rpc::encode_frame(env, stream);
    }
    rpc::FrameDecoder decoder;
    const auto t1 = Clock::now();
    decoder.feed(stream);
    std::size_t decoded = 0;
    while (auto e = decoder.next()) {
      sink += e->payload.size();
      ++decoded;
    }
    const double s = seconds_since(t1);
    if (decoded != frames) throw std::runtime_error("frame replay lost frames");
    report.metrics.add("rpc.frame.decode_ns", s / static_cast<double>(decoded) * 1e9, "ns");
    volatile std::uint64_t keep = sink;
    (void)keep;
  }
}

}  // namespace perfbench
