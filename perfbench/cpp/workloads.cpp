#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "cluster/repartition_exec.h"
#include "common/hash_mix.h"
#include "core/repartition.h"
#include "core/sp_cache.h"
#include "layers.h"

namespace perfbench {

using namespace spcache;

// ---- Shared pieces ------------------------------------------------------------

void OpSamples::merge(const OpSamples& other) {
  latency_s.insert(latency_s.end(), other.latency_s.begin(), other.latency_s.end());
  bytes += other.bytes;
  attempted += other.attempted;
  failed += other.failed;
  mismatched += other.mismatched;
  if (first_error.empty()) first_error = other.first_error;
}

namespace {

constexpr double kModelUtilization = 0.3;
constexpr std::size_t kPostWindowEpochs = 9;

double weighted_mean_size(const Catalog& catalog) {
  double m = 0.0;
  for (const auto& f : catalog.files()) {
    m += catalog.popularity(f.id) * static_cast<double>(f.size);
  }
  return m;
}

// Rates for Algorithm 1: the cluster kModelUtilization busy at `popularity`.
void set_model_rate(Catalog& popularity, const WorkloadShape& shape) {
  const double capacity = static_cast<double>(shape.servers) * gbps(shape.link_gbps);
  popularity.set_total_rate(kModelUtilization * capacity / weighted_mean_size(popularity));
}

// File i takes the request rate of file (i + shift) % n: the popularity
// ranks move while the sizes stay put.
Catalog rotate_popularity(const Catalog& base, std::size_t shift) {
  std::vector<FileInfo> files = base.files();
  const std::size_t n = files.size();
  for (std::size_t i = 0; i < n; ++i) {
    files[i].request_rate = base.file(static_cast<FileId>((i + shift) % n)).request_rate;
  }
  return Catalog(std::move(files));
}

void run_threads(std::size_t n, const std::function<void(std::size_t)>& body) {
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (std::size_t t = 0; t < n; ++t) threads.emplace_back(body, t);
  for (auto& th : threads) th.join();
}

// The dataset is loaded by one closed-loop writer in file-id order, so the
// load's write latencies do not depend on how concurrent loaders interleave.
template <class Write>
void load_dataset(const Catalog& catalog, const std::vector<FileId>& ids, std::uint64_t seed,
                  SpanRecorder* spans, const char* span_name, OpSamples& writes, Write write) {
  const auto start = Clock::now();
  std::vector<std::uint8_t> buf;
  for (FileId id : ids) {
    ScopedSpan op(spans, "op.write");
    buf.resize(catalog.file(id).size);
    {
      ScopedSpan s(spans, "bench.content");
      fill_content(buf, seed, id, 0);
    }
    ++writes.attempted;
    const auto t0 = Clock::now();
    try {
      ScopedSpan s(spans, span_name);
      write(id, std::span<const std::uint8_t>(buf));
      writes.record(seconds_since(t0), buf.size());
    } catch (const std::exception& e) {
      writes.fail(e);
    }
  }
  writes.add_wall(seconds_since(start), 0.0);
}

std::vector<FileId> all_ids(const Catalog& catalog) {
  std::vector<FileId> ids(catalog.size());
  std::iota(ids.begin(), ids.end(), FileId{0});
  return ids;
}

}  // namespace

Catalog make_catalog(const WorkloadShape& shape, std::uint64_t seed) {
  Rng rng(mix64(seed ^ 0xCA7A1060ull));
  const Catalog raw = make_yahoo_catalog(shape.files, shape.zipf, 1.0, YahooSizeModel{}, rng);
  const double scale = shape.mean_read_bytes / weighted_mean_size(raw);
  std::vector<FileInfo> files = raw.files();
  for (auto& f : files) {
    const auto scaled = static_cast<Bytes>(std::llround(static_cast<double>(f.size) * scale));
    f.size = std::max<Bytes>(1024, scaled);
  }
  Catalog catalog(std::move(files));
  set_model_rate(catalog, shape);
  return catalog;
}

ScaleFactorConfig model_config(const WorkloadShape& shape) {
  ScaleFactorConfig cfg;
  cfg.fetch_overhead = 20e-6;
  cfg.client_setup_per_fetch = 5e-6;
  cfg.goodput = GoodputModel::calibrated(gbps(shape.link_gbps));
  return cfg;
}

std::vector<Bandwidth> bandwidths(const WorkloadShape& shape) {
  return std::vector<Bandwidth>(shape.servers, gbps(shape.link_gbps));
}

Rng thread_rng(std::uint64_t seed, std::size_t thread, std::uint64_t stream) {
  return Rng(mix64(seed * 0x9E3779B97F4A7C15ull + thread * 0xBF58476D1CE4E5B9ull + stream));
}

ZipfStream::ZipfStream(const Catalog& catalog) {
  cdf_.reserve(catalog.size());
  double acc = 0.0;
  for (const auto& f : catalog.files()) cdf_.push_back(acc += catalog.popularity(f.id));
}

FileId ZipfStream::next(Rng& rng) const {
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), rng.uniform() * cdf_.back());
  return static_cast<FileId>(std::min<std::size_t>(it - cdf_.begin(), cdf_.size() - 1));
}

Catalog epoch_popularity(const Catalog& catalog, std::size_t e) {
  return rotate_popularity(catalog, e % 2 == 1 ? catalog.size() / 7 : 0);
}

std::vector<FileId> file_sequence(const Catalog& catalog, std::uint64_t seed, std::size_t thread,
                                  std::size_t n) {
  Rng rng = thread_rng(seed, thread, 1);
  const ZipfStream zipf(catalog);
  std::vector<FileId> out(n);
  for (auto& f : out) f = zipf.next(rng);
  return out;
}

std::size_t caller_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw == 0 ? 1 : hw, 1, 4);
}

// ---- SpHarness ------------------------------------------------------------------

SpHarness::SpHarness(const WorkloadShape& s, std::size_t pool_threads)
    : shape(s),
      cluster(s.servers, gbps(s.link_gbps)),
      pool(pool_threads),
      client(cluster, master, pool) {}

void SpHarness::load(const Catalog& catalog, const std::vector<FileId>& ids, std::uint64_t seed,
                     SpanRecorder* spans, OpSamples& writes) {
  SpCacheConfig cfg;
  cfg.search = model_config(shape);
  SpCacheScheme scheme(cfg);
  Rng rng = thread_rng(kDatasetSeed, 0, 7);
  scheme.place(catalog, bandwidths(shape), rng);
  ids_ = ids;
  load_dataset(catalog, ids, seed, spans, "cluster.client.write", writes,
               [&](FileId id, auto data) { client.write(id, data, scheme.placement(id).servers); });
}

EpochStats SpHarness::rebalance(Catalog popularity, Rng& rng, SpanRecorder* spans,
                                obs::MetricsRegistry* registry) {
  EpochStats st;
  const auto t0 = Clock::now();
  ScopedSpan op(spans, "op.repartition");
  set_model_rate(popularity, shape);
  ScaleFactorResult sf;
  {
    ScopedSpan s(spans, "math.scale_factor");
    const auto t = Clock::now();
    sf = find_scale_factor(popularity, bandwidths(shape), model_config(shape), rng);
    st.scale_factor_s = seconds_since(t);
    st.scale_factor_iterations = sf.iterations;
  }
  std::vector<std::size_t> old_k(popularity.size(), 1);
  std::vector<std::vector<std::uint32_t>> old_servers(popularity.size());
  for (std::size_t i = 0; i < popularity.size(); ++i) {
    if (auto meta = master.peek(static_cast<FileId>(i))) {
      old_k[i] = meta->partitions();
      old_servers[i] = meta->servers;
    }
  }
  RepartitionPlan plan;
  {
    ScopedSpan s(spans, "core.plan_repartition");
    const auto t = Clock::now();
    plan = plan_repartition_with_alpha(popularity, shape.servers, sf.alpha, old_k, old_servers,
                                       rng);
    st.plan_s = seconds_since(t);
    st.changed_fraction = plan.changed_fraction(popularity.size());
  }
  {
    ScopedSpan s(spans, "cluster.repartition.execute");
    st.exec = execute_delta_repartition(cluster, master, plan, pool, registry);
  }
  st.wall_s = seconds_since(t0);
  return st;
}

double SpHarness::stored_over_user_bytes() const {
  double stored = 0.0, user = 0.0;
  for (double b : cluster.stored_bytes()) stored += b;
  for (FileId id : ids_) {
    if (auto meta = master.peek(id)) user += static_cast<double>(meta->size);
  }
  return user > 0.0 ? stored / user : 0.0;
}

// ---- Workload base -------------------------------------------------------------------

Workload::Workload(const Options& options, WorkloadShape shape)
    : options_(options), shape_(shape), catalog_(make_catalog(shape, kDatasetSeed)) {}

namespace {

// ---- inproc-read ------------------------------------------------------------------------
// 30 in-process cache servers (paper §7.1) laid out by Algorithm 1, read
// through SpClient::read(id, ReadScratch&). The dataset is ~3x the host's
// 105 MiB L3, so reads are bound by memory bandwidth: the cluster and simd
// (CRC/copy) layers do the work, rpc does none.
class InprocRead : public Workload {
 public:
  InprocRead(const Options& o, WorkloadShape shape) : Workload(o, shape) {}

  Timing setup(OpSamples& load_writes) override {
    const Stopwatch clock;
    h_ = std::make_unique<SpHarness>(shape_, caller_threads());
    h_->load(catalog_, all_ids(catalog_), options_.seed, &spans, load_writes);
    warm_up();
    return clock.elapsed();
  }

  void teardown() override { h_.reset(); }

  WindowStats run_window(double seconds) override;

  std::vector<double> rebalance_epochs() override {
    // Periodic re-balances after the window, for a popularity shift and back.
    std::vector<double> out;
    Rng rng = thread_rng(kDatasetSeed, 0, 11);
    for (std::size_t e = 1; e <= kPostWindowEpochs; ++e) {
      const auto st = h_->rebalance(epoch_popularity(catalog_, e), rng, &spans, registry_);
      out.push_back(st.wall_s);
      epochs_.push_back(st);
    }
    return out;
  }

  void verify_written(OpSamples& checks) override {
    ReadScratch scratch;
    for (FileId id : all_ids(catalog_)) {
      ++checks.attempted;
      try {
        const auto& r = h_->client.read(id, scratch);
        if (!content_matches(r.bytes, options_.seed, id, 0)) ++checks.mismatched;
      } catch (const std::exception& e) {
        checks.fail(e);
      }
    }
  }

  double storage_overhead() override { return h_->stored_over_user_bytes(); }

  void attach_observability(obs::MetricsRegistry* registry) override {
    registry_ = registry;
    h_->cluster.attach_observability(registry);
    h_->master.attach_observability(registry);
    h_->client.attach_observability(registry);
  }

  void layer_metrics(LayerReport& report) override {
    sp_client_metrics(report, registry_, reads_traced_, retries_traced_);
    epoch_metrics(report, epochs_);
    replay_rpc(report);
  }

 private:
  void warm_up() {
    ReadScratch scratch;
    for (FileId id : all_ids(catalog_)) (void)h_->client.read(id, scratch);
    h_->master.reset_access_counts();
  }

  std::unique_ptr<SpHarness> h_;
  obs::MetricsRegistry* registry_ = nullptr;
  std::vector<EpochStats> epochs_;
  std::uint64_t reads_traced_ = 0;
  std::uint64_t retries_traced_ = 0;
  std::uint64_t window_index_ = 0;
};

// Closed-loop readers for `seconds`.
WindowStats InprocRead::run_window(double seconds) {
  WindowStats w;
  const auto served0 = h_->cluster.served_bytes();
  h_->master.reset_access_counts();
  const std::size_t readers = caller_threads();
  std::vector<OpSamples> reads(readers);
  std::vector<std::uint64_t> retries(readers, 0);
  std::vector<MemcpyProbe> probes(readers);
  const ZipfStream zipf(catalog_);
  const CpuTicks ticks = cpu_ticks();
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(seconds));
  const std::uint64_t stream = 1 + window_index_++;
  run_threads(readers, [&](std::size_t t) {
    ReadScratch scratch;
    Rng rng = thread_rng(options_.seed, t, stream);
    auto& s = reads[t];
    while (Clock::now() < deadline) {
      probes[t].tick();
      const FileId id = zipf.next(rng);
      ScopedSpan op(&spans, "op.read");
      ++s.attempted;
      const auto t0 = Clock::now();
      try {
        IoResult* r = nullptr;
        {
          ScopedSpan c(&spans, "cluster.client.read");
          r = &h_->client.read(id, scratch);
        }
        s.record(seconds_since(t0), r->bytes.size());
        retries[t] += r->retries;
        ScopedSpan v(&spans, "bench.verify");
        if (!content_matches(r->bytes, options_.seed, id, 0)) ++s.mismatched;
      } catch (const std::exception& e) {
        s.fail(e);
      }
    }
  });
  w.wall_s = seconds_since(start);
  w.steal = steal_fraction(ticks, cpu_ticks());
  for (std::size_t t = 0; t < readers; ++t) {
    w.reads.merge(reads[t]);
    w.reads.memcpy.add(probes[t]);
  }
  w.reads.add_wall(w.wall_s, w.steal);
  const auto served1 = h_->cluster.served_bytes();
  for (std::size_t i = 0; i < served1.size(); ++i) w.server_load.push_back(served1[i] - served0[i]);
  if (spans.enabled()) {
    reads_traced_ += w.reads.attempted;
    retries_traced_ += std::accumulate(retries.begin(), retries.end(), std::uint64_t{0});
  }
  return w;
}

// ---- inproc-ec ---------------------------------------------------------------------------
// The EC-Cache baseline: RS(10,14) over 30 in-process servers, ~10%
// EcClient::write (encode) and ~90% late-binding EcClient::read (decode).
// The only workload where the erasure layer and the GF(256) kernels run.
class InprocEc : public Workload {
 public:
  static constexpr std::size_t kK = 10, kN = 14;
  static constexpr double kWriteShare = 0.1;

  InprocEc(const Options& o, WorkloadShape shape) : Workload(o, shape) {}

  Timing setup(OpSamples& load_writes) override {
    const Stopwatch clock;
    d_ = std::make_unique<Deployment>(shape_);
    const std::size_t threads = caller_threads();
    Rng rng = thread_rng(kDatasetSeed, 0, 7);
    servers_.assign(catalog_.size() + threads, {});
    for (auto& s : servers_) {
      for (std::size_t i : rng.sample_without_replacement(shape_.servers, kN)) {
        s.push_back(static_cast<std::uint32_t>(i));
      }
    }
    slot_versions_.assign(threads, 0);
    slot_sizes_.assign(threads, 0);
    load_dataset(catalog_, all_ids(catalog_), options_.seed, &spans, "cluster.ec.write",
                 load_writes,
                 [&](FileId id, auto data) { d_->client.write(id, data, servers_[id]); });
    Rng warm = thread_rng(options_.seed, 0, 8);
    for (FileId id : all_ids(catalog_)) (void)d_->client.read(id, warm);
    return clock.elapsed();
  }

  void teardown() override { d_.reset(); }

  WindowStats run_window(double seconds) override {
    WindowStats w;
    const std::size_t threads = caller_threads();
    std::vector<OpSamples> reads(threads), writes(threads);
    std::vector<MemcpyProbe> probes(threads);
    const auto served0 = d_->cluster.served_bytes();
    const CpuTicks ticks = cpu_ticks();
    const auto start = Clock::now();
    const auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(seconds));
    const std::uint64_t stream = 1 + window_index_++;
    const ZipfStream zipf(catalog_);
    run_threads(threads, [&](std::size_t t) {
      Rng rng = thread_rng(options_.seed, t, stream);
      std::vector<std::uint8_t> buf;
      const FileId slot = static_cast<FileId>(catalog_.size() + t);
      while (Clock::now() < deadline) {
        probes[t].tick();
        const FileId id = zipf.next(rng);
        if (rng.uniform() < kWriteShare) {
          // Writes go to this thread's own slot file, sized like a file drawn
          // by popularity, so no read races an overwrite.
          ScopedSpan op(&spans, "op.write");
          const std::uint64_t v = slot_versions_[t] + 1;
          buf.resize(catalog_.file(id).size);
          fill_content(buf, options_.seed, slot, v);
          ++writes[t].attempted;
          const auto t0 = Clock::now();
          try {
            ScopedSpan c(&spans, "cluster.ec.write");
            d_->client.write(slot, buf, servers_[slot]);
            writes[t].record(seconds_since(t0), buf.size());
            slot_versions_[t] = v;
            slot_sizes_[t] = buf.size();
          } catch (const std::exception& e) {
            writes[t].fail(e);
          }
          continue;
        }
        ScopedSpan op(&spans, "op.read");
        ++reads[t].attempted;
        const auto t0 = Clock::now();
        try {
          IoResult r;
          {
            ScopedSpan c(&spans, "cluster.ec.read");
            r = d_->client.read(id, rng);
          }
          reads[t].record(seconds_since(t0), r.bytes.size());
          ScopedSpan v(&spans, "bench.verify");
          if (!content_matches(r.bytes, options_.seed, id, 0)) ++reads[t].mismatched;
        } catch (const std::exception& e) {
          reads[t].fail(e);
        }
      }
    });
    w.wall_s = seconds_since(start);
    w.steal = steal_fraction(ticks, cpu_ticks());
    for (std::size_t t = 0; t < threads; ++t) {
      w.reads.merge(reads[t]);
      w.writes.merge(writes[t]);
      w.reads.memcpy.add(probes[t]);
    }
    w.reads.add_wall(w.wall_s, w.steal);
    w.writes.add_wall(w.wall_s, w.steal);
    const auto served1 = d_->cluster.served_bytes();
    for (std::size_t i = 0; i < served1.size(); ++i) {
      w.server_load.push_back(served1[i] - served0[i]);
    }
    return w;
  }

  std::vector<double> rebalance_epochs() override {
    // EC-Cache's code rate is fixed; its only lever against a hot spot is
    // re-drawing where a hot file's 14 shards live. Each epoch re-encodes the
    // hottest 2% of the catalog (ids are in popularity order) onto fresh
    // random servers and erases the shards left behind.
    const auto hot = static_cast<FileId>(std::max<std::size_t>(1, catalog_.size() / 50));
    Rng rng = thread_rng(kDatasetSeed, 0, 11);
    std::vector<double> out;
    std::vector<std::uint8_t> buf;
    for (std::size_t e = 0; e < kPostWindowEpochs; ++e) {
      const auto t0 = Clock::now();
      ScopedSpan op(&spans, "op.repartition");
      for (FileId id = 0; id < hot; ++id) {
        std::vector<std::uint32_t> fresh;
        for (std::size_t i : rng.sample_without_replacement(shape_.servers, kN)) {
          fresh.push_back(static_cast<std::uint32_t>(i));
        }
        buf.resize(catalog_.file(id).size);
        fill_content(buf, options_.seed, id, 0);
        {
          ScopedSpan c(&spans, "cluster.ec.write");
          d_->client.write(id, buf, fresh);
        }
        for (std::size_t i = 0; i < kN; ++i) {
          if (servers_[id][i] != fresh[i]) {
            d_->cluster.server(servers_[id][i]).erase(BlockKey{id, static_cast<PieceIndex>(i)});
          }
        }
        servers_[id] = fresh;
      }
      out.push_back(seconds_since(t0));
    }
    return out;
  }

  void verify_written(OpSamples& checks) override {
    Rng rng = thread_rng(options_.seed, 0, 12);
    auto check = [&](FileId id, std::uint64_t version) {
      ++checks.attempted;
      try {
        if (!content_matches(d_->client.read(id, rng).bytes, options_.seed, id, version)) {
          ++checks.mismatched;
        }
      } catch (const std::exception& e) {
        checks.fail(e);
      }
    };
    for (FileId id : all_ids(catalog_)) check(id, 0);
    for (std::size_t t = 0; t < slot_versions_.size(); ++t) {
      if (slot_versions_[t] > 0) check(static_cast<FileId>(catalog_.size() + t), slot_versions_[t]);
    }
  }

  double storage_overhead() override {
    double stored = 0.0;
    for (double b : d_->cluster.stored_bytes()) stored += b;
    double user = static_cast<double>(catalog_.total_bytes());
    for (std::size_t size : slot_sizes_) user += static_cast<double>(size);
    return stored / user;
  }

  void attach_observability(obs::MetricsRegistry* registry) override {
    d_->cluster.attach_observability(registry);
    d_->master.attach_observability(registry);
    d_->client.attach_observability(registry);
  }

  void layer_metrics(LayerReport& report) override {
    replay_sp(report);
    replay_rpc(report);
  }

 private:
  struct Deployment {
    explicit Deployment(const WorkloadShape& s)
        : cluster(s.servers, gbps(s.link_gbps)), pool(caller_threads()),
          client(cluster, master, pool, kK, kN) {}
    Cluster cluster;
    Master master;
    ThreadPool pool;
    EcClient client;
  };

  std::unique_ptr<Deployment> d_;
  std::vector<std::vector<std::uint32_t>> servers_;  // per file id, slots last
  std::vector<std::uint64_t> slot_versions_;
  std::vector<std::size_t> slot_sizes_;
  std::uint64_t window_index_ = 0;
};

WorkloadShape shape_for(const std::string& name) {
  WorkloadShape s;
  if (name == "inproc-ec") {
    s.files = 1000;
    s.mean_read_bytes = 1.0 * 1024 * 1024;
  } else {
    s.files = 1000;
    s.mean_read_bytes = 3.0 * 1024 * 1024;
  }
  return s;
}

}  // namespace

std::vector<std::string> workload_names() {
  return {"inproc-read", "inproc-ec"};
}

std::unique_ptr<Workload> make_workload(const Options& options) {
  const std::string& n = options.workload;
  if (n == "inproc-read") return std::make_unique<InprocRead>(options, shape_for(n));
  if (n == "inproc-ec") return std::make_unique<InprocEc>(options, shape_for(n));
  return nullptr;
}

}  // namespace perfbench
