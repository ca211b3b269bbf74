// Degraded reads: per-piece retry with backoff, failover to an inline
// StableStore restore, and the IoResult degradation telemetry. The cases
// that hold for any deployment run value-parameterised over both seams of
// the one SpClient engine: in-process, and RPC over InprocTransport.
#include <gtest/gtest.h>

#include "cluster/client.h"
#include "cluster/stable_store.h"
#include "core/sp_cache.h"
#include "fault/fault_injector.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rpc/cache_service.h"

namespace spcache {
namespace {

std::vector<std::uint8_t> pattern_bytes(std::size_t n, std::uint32_t seed) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::uint8_t>(seed * 31 + i * 7);
  return v;
}

fault::RetryPolicy fast_retry() {
  fault::RetryPolicy policy;
  policy.piece_attempts = 3;
  policy.read_attempts = 6;
  policy.base_backoff = std::chrono::microseconds(50);
  policy.max_backoff = std::chrono::microseconds(500);
  return policy;
}

class DegradedReadTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kFiles = 8;
  static constexpr Bytes kFileSize = 64 * kKB;

  void populate() {
    auto catalog = make_uniform_catalog(kFiles, kFileSize, 1.05, 10.0);
    SpCacheScheme sp;
    sp.place(catalog, cluster_.bandwidths(), rng_);
    SpClient writer(cluster_, master_, pool_);
    originals_.resize(kFiles);
    for (FileId f = 0; f < kFiles; ++f) {
      originals_[f] = pattern_bytes(kFileSize, f);
      writer.write(f, originals_[f], sp.placement(f).servers);
      stable_.checkpoint(f, originals_[f]);
    }
  }

  Cluster cluster_{8, gbps(1.0)};
  Master master_;
  ThreadPool pool_{4};
  StableStore stable_;
  Rng rng_{2026};
  std::vector<std::vector<std::uint8_t>> originals_;
};

TEST_F(DegradedReadTest, MissingPieceFailsOverToStable) {
  populate();
  SpClient client(cluster_, master_, pool_, &stable_, fast_retry());
  const auto meta = master_.peek(0);
  ASSERT_GE(meta->partitions(), 1u);
  cluster_.server(meta->servers[0]).erase(BlockKey{0, 0});

  const auto result = client.read(0);
  EXPECT_EQ(result.bytes, originals_[0]);
  EXPECT_TRUE(result.degraded);
  EXPECT_EQ(result.degraded_pieces, 1u);
  EXPECT_GT(result.retries, 0u) << "the missing piece should have been retried before failover";
  EXPECT_GT(result.network_time, 0.0);
}

TEST_F(DegradedReadTest, KilledServerFailsOverToStable) {
  populate();
  SpClient client(cluster_, master_, pool_, &stable_, fast_retry());
  const auto meta = master_.peek(1);
  const std::uint32_t victim = meta->servers[0];
  cluster_.kill(victim);

  const auto result = client.read(1);
  EXPECT_EQ(result.bytes, originals_[1]);
  EXPECT_TRUE(result.degraded);
  EXPECT_GE(result.degraded_pieces, 1u);
  cluster_.revive(victim);
}

TEST_F(DegradedReadTest, DegradedReadPaysStableBandwidth) {
  populate();
  SpClient client(cluster_, master_, pool_, &stable_, fast_retry());
  const auto healthy = client.read(2);
  ASSERT_FALSE(healthy.degraded);

  const auto meta = master_.peek(2);
  cluster_.server(meta->servers[0]).erase(BlockKey{2, 0});
  const auto degraded = client.read(2);
  ASSERT_TRUE(degraded.degraded);
  // The stable store is far slower than the cluster network, and a
  // failover restores the whole file through it.
  EXPECT_GT(degraded.network_time, healthy.network_time);
}

TEST_F(DegradedReadTest, HealthyReadReportsNoDegradation) {
  populate();
  SpClient client(cluster_, master_, pool_, &stable_, fast_retry());
  const auto result = client.read(4);
  EXPECT_EQ(result.bytes, originals_[4]);
  EXPECT_FALSE(result.degraded);
  EXPECT_EQ(result.degraded_pieces, 0u);
  EXPECT_EQ(result.retries, 0u);
}

TEST_F(DegradedReadTest, HeterogeneousPieceSizesFailOverCorrectly) {
  // write_sized layouts have unequal pieces; the stable failover must
  // slice the restored file by the recorded sizes, not an even split.
  const auto data = pattern_bytes(90 * kKB, 5);
  SpClient writer(cluster_, master_, pool_);
  const std::vector<std::uint32_t> servers{0, 1, 2};
  const std::vector<Bytes> sizes{10 * kKB, 30 * kKB, 50 * kKB};
  writer.write_sized(99, data, servers, sizes);
  stable_.checkpoint(99, data);

  cluster_.server(1).erase(BlockKey{99, 1});
  SpClient client(cluster_, master_, pool_, &stable_, fast_retry());
  const auto result = client.read(99);
  EXPECT_EQ(result.bytes, data);
  EXPECT_TRUE(result.degraded);
  EXPECT_EQ(result.degraded_pieces, 1u);
}

TEST_F(DegradedReadTest, EcInjectedFlipsNeverReachTheCaller) {
  // An injected flip is a post-checksum wire flip: its copy carries a CRC
  // matching the flipped bytes, so no per-shard check can name it and only
  // the decoder's whole-file CRC sees it. A flip in the spare shard costs
  // nothing; a flip in a decoded shard cannot be repaired and fails the
  // read. Either way the caller never holds wrong bytes.
  EcClient client(cluster_, master_, pool_, 4, 8);
  const auto data = pattern_bytes(100 * kKB + 5, 9);
  client.write(50, data, {0, 1, 2, 3, 4, 5, 6, 7});
  fault::FaultConfig cfg;
  cfg.corrupt_read_p = 0.05;
  fault::FaultInjector injector(91, cfg);
  cluster_.set_fault_injector(&injector);

  Rng rng(3);
  std::size_t returned = 0;
  std::size_t refused = 0;
  for (int i = 0; i < 200; ++i) {
    try {
      EXPECT_EQ(client.read(50, rng).bytes, data) << "read " << i;
      ++returned;
    } catch (const std::runtime_error&) {
      ++refused;
    }
  }
  cluster_.set_fault_injector(nullptr);
  EXPECT_GT(injector.stats().corrupt_reads, 0u) << "the corruption site never fired";
  EXPECT_GT(refused, 0u) << "a flip in a decoded shard must fail the read";
  EXPECT_GT(returned, 0u);
  // The flips were copies: the resident shards are untouched.
  EXPECT_EQ(client.read(50, rng).bytes, data);
}

TEST_F(DegradedReadTest, CorrelatedFailureDegradesEveryReadWhileRepairConverges) {
  // A rack loss: ceil(N/3) = 3 of the 8 servers die together, all of them
  // holding pieces of the same hot file. Every read — of the hot file and
  // of innocent bystanders with pieces on the dead servers — must complete
  // degraded-but-bit-exact from stable storage, and the repair sweep must
  // converge to a fully live layout under that traffic.
  populate();
  constexpr FileId kHot = 0;
  // Re-lay the hot file across 5 distinct servers so a 3-server loss hits
  // it multiple times while leaving enough live non-holders for repair to
  // re-place every lost slot (no two pieces of a file may share a server).
  SpClient writer(cluster_, master_, pool_);
  writer.write(kHot, originals_[kHot], {0, 1, 2, 3, 4});

  const auto meta = master_.peek(kHot);
  ASSERT_EQ(meta->partitions(), 5u);
  const std::size_t n_kill = (cluster_.size() + 2) / 3;  // ceil(8/3) = 3
  std::vector<std::uint32_t> victims(meta->servers.begin(),
                                     meta->servers.begin() + static_cast<long>(n_kill));
  for (const std::uint32_t v : victims) cluster_.kill(v);

  // Phase 1: the outage window. Every file still reads bit-exact; the hot
  // file is necessarily degraded (three of its holders are gone).
  SpClient client(cluster_, master_, pool_, &stable_, fast_retry());
  const auto hot_read = client.read(kHot);
  EXPECT_EQ(hot_read.bytes, originals_[kHot]);
  EXPECT_TRUE(hot_read.degraded);
  EXPECT_GE(hot_read.degraded_pieces, n_kill);
  for (FileId f = 0; f < kFiles; ++f) {
    EXPECT_EQ(client.read(f).bytes, originals_[f]) << "file " << f << " during the outage";
  }

  // Phase 2: repair converges while the servers are still dead — every
  // slot on a dead server moves to a live replacement and is restored
  // from stable storage before the layout is published.
  RecoveryManager recovery(cluster_, master_, stable_);
  for (const std::uint32_t v : victims) recovery.repair_after_server_loss(v);

  for (FileId f = 0; f < kFiles; ++f) {
    const auto repaired = master_.peek(f);
    ASSERT_TRUE(repaired.has_value());
    for (const std::uint32_t s : repaired->servers) {
      EXPECT_TRUE(cluster_.is_alive(s))
          << "file " << f << " still references dead server " << s << " after repair";
    }
    const auto result = client.read(f);
    EXPECT_EQ(result.bytes, originals_[f]) << "file " << f << " after repair";
    EXPECT_FALSE(result.degraded) << "file " << f << " should read clean after repair";
  }
  for (const std::uint32_t v : victims) cluster_.revive(v);
}

// The one SpClient engine in either deployment: over the in-process seam
// (a Cluster + Master), or over RpcSpClient's RPC seam (a MasterService
// and CacheWorkerServices on an InprocTransport bus). Each case builds its
// clients through client() and reaches the block stores through server().
enum class Deployment { kInproc, kRpc };

class EngineReadTest : public ::testing::TestWithParam<Deployment> {
 protected:
  static constexpr std::size_t kFiles = 8;
  static constexpr std::uint32_t kServers = 8;
  static constexpr Bytes kFileSize = 64 * kKB;

  EngineReadTest() {
    if (GetParam() != Deployment::kRpc) return;
    master_service_ = std::make_unique<rpc::MasterService>(bus_);
    for (std::uint32_t s = 0; s < kServers; ++s) {
      workers_.push_back(
          std::make_unique<rpc::CacheWorkerService>(bus_, rpc::kFirstWorkerNode + s, s, gbps(1.0)));
      worker_nodes_.push_back(workers_.back()->node_id());
    }
  }

  // A new client; the in-process one fails over to `stable` (the RPC seam
  // has no read-side stable tier).
  SpClient& client(fault::RetryPolicy retry, StableStore* stable) {
    if (GetParam() == Deployment::kInproc) {
      inproc_clients_.push_back(
          std::make_unique<SpClient>(cluster_, master_, pool_, stable, retry));
      return *inproc_clients_.back();
    }
    const auto node = rpc::kFirstClientNode + static_cast<rpc::NodeId>(rpc_clients_.size());
    rpc_clients_.push_back(std::make_unique<rpc::RpcSpClient>(
        bus_, node, rpc::kMasterNode, worker_nodes_, retry, std::chrono::milliseconds(1000)));
    return rpc_clients_.back()->engine();
  }

  Master& master() {
    return GetParam() == Deployment::kInproc ? master_ : master_service_->master();
  }
  CacheServer& server(std::uint32_t s) {
    return GetParam() == Deployment::kInproc ? cluster_.server(s) : workers_[s]->store();
  }
  void set_fault_injector(fault::FaultInjector* injector) {
    for (std::uint32_t s = 0; s < kServers; ++s) server(s).set_fault_injector(injector);
  }

  void populate() {
    auto catalog = make_uniform_catalog(kFiles, kFileSize, 1.05, 10.0);
    SpCacheScheme sp;
    sp.place(catalog, cluster_.bandwidths(), rng_);
    SpClient& writer = client(fast_retry(), nullptr);
    originals_.resize(kFiles);
    for (FileId f = 0; f < kFiles; ++f) {
      originals_[f] = pattern_bytes(kFileSize, f);
      writer.write(f, originals_[f], sp.placement(f).servers);
      stable_.checkpoint(f, originals_[f]);
    }
  }

  Cluster cluster_{kServers, gbps(1.0)};
  Master master_;
  ThreadPool pool_{4};
  StableStore stable_;
  Rng rng_{2026};
  rpc::Bus bus_;
  std::unique_ptr<rpc::MasterService> master_service_;
  std::vector<std::unique_ptr<rpc::CacheWorkerService>> workers_;
  std::vector<rpc::NodeId> worker_nodes_;
  std::vector<std::unique_ptr<SpClient>> inproc_clients_;
  std::vector<std::unique_ptr<rpc::RpcSpClient>> rpc_clients_;
  std::vector<std::vector<std::uint8_t>> originals_;
};

std::uint64_t count_kind(const std::vector<obs::TraceEvent>& events, obs::TraceKind kind) {
  std::uint64_t n = 0;
  for (const auto& e : events) n += (e.kind == kind) ? 1 : 0;
  return n;
}

TEST_P(EngineReadTest, WithoutStableStoreThrowsAfterRetries) {
  populate();
  SpClient& reader = client(fast_retry(), nullptr);
  const auto meta = master().peek(3);
  server(meta->servers[0]).erase(BlockKey{3, 0});
  EXPECT_THROW(reader.read(3), std::runtime_error);
}

TEST_P(EngineReadTest, InjectedFetchFailuresAreRetriedAway) {
  populate();
  fault::FaultConfig cfg;
  cfg.fetch_fail_p = 0.30;
  fault::FaultInjector injector(1234, cfg);
  set_fault_injector(&injector);

  SpClient& reader = client(fast_retry(), &stable_);
  obs::MetricsRegistry registry;
  obs::TraceRecorder trace;
  reader.attach_observability(&registry, &trace);
  std::size_t retries = 0;
  for (FileId f = 0; f < kFiles; ++f) {
    const auto result = reader.read(f);
    EXPECT_EQ(result.bytes, originals_[f]) << "file " << f;
    retries += result.retries;
  }
  EXPECT_GT(retries, 0u) << "a 30% fetch-failure rate must surface as retries";
  EXPECT_GT(injector.stats().fetch_failures, 0u);
  // Every retry the IoResults counted has its trace event.
  const auto events = trace.snapshot();
  EXPECT_EQ(count_kind(events, obs::TraceKind::kPieceRetry) +
                count_kind(events, obs::TraceKind::kReadRepeatPass),
            retries);
  set_fault_injector(nullptr);
}

TEST_P(EngineReadTest, InjectedCorruptionNeverReachesTheCaller) {
  populate();
  fault::FaultConfig cfg;
  cfg.corrupt_read_p = 0.15;
  fault::FaultInjector injector(77, cfg);
  set_fault_injector(&injector);

  SpClient& reader = client(fast_retry(), &stable_);
  for (int round = 0; round < 4; ++round) {
    for (FileId f = 0; f < kFiles; ++f) {
      const auto result = reader.read(f);
      // The whole-file CRC catches every injected flip; the read retries
      // until it passes verification, so the caller only ever sees
      // bit-exact data.
      EXPECT_EQ(result.bytes, originals_[f]) << "file " << f;
    }
  }
  EXPECT_GT(injector.stats().corrupt_reads, 0u) << "the corruption site never fired";
  set_fault_injector(nullptr);
}

TEST_P(EngineReadTest, StaleLayoutConvergesAfterReplacement) {
  SpClient& reader = client(fast_retry(), nullptr);
  SpClient& writer = client(fast_retry(), nullptr);
  const auto data = pattern_bytes(48 * kKB, 24);
  writer.write(5, data, {0, 1});

  // Warm the reader's cache with the {0,1} layout.
  EXPECT_EQ(reader.read(5).bytes, data);
  ASSERT_TRUE(reader.layout_cache().contains(5));

  // A repartition moves the file to {4,5} and erases the old pieces —
  // exactly what execute_parallel_repartition / a repair does.
  writer.write(5, data, {4, 5});
  server(0).erase(BlockKey{5, 0});
  server(1).erase(BlockKey{5, 1});

  // The reader's cached layout is now a dangling pointer: pass 1 fails on
  // the missing pieces, invalidates, and pass 2's fresh LOOKUP converges.
  const auto result = reader.read(5);
  EXPECT_EQ(result.bytes, data);
  EXPECT_FALSE(result.layout_cached);
  EXPECT_GE(result.retries, 1u);
  EXPECT_GE(reader.layout_cache().invalidations(), 1u);
  // And the refreshed layout serves the next read from cache again.
  EXPECT_TRUE(reader.read(5).layout_cached);
}

INSTANTIATE_TEST_SUITE_P(Deployments, EngineReadTest,
                         ::testing::Values(Deployment::kInproc, Deployment::kRpc),
                         [](const ::testing::TestParamInfo<Deployment>& info) {
                           return info.param == Deployment::kInproc ? "Inproc" : "Rpc";
                         });

TEST(RpcDegradedRead, RetriesRideThroughInjectedBusFaults) {
  rpc::Bus bus;
  fault::FaultConfig cfg;
  cfg.bus_drop_p = 0.05;
  cfg.bus_duplicate_p = 0.05;
  cfg.bus_delay_p = 0.10;
  cfg.bus_delay = std::chrono::microseconds(100);
  fault::FaultInjector injector(4321, cfg);

  rpc::MasterService master(bus);
  std::vector<rpc::NodeId> workers;
  std::vector<std::unique_ptr<rpc::CacheWorkerService>> services;
  for (std::uint32_t s = 0; s < 4; ++s) {
    services.push_back(std::make_unique<rpc::CacheWorkerService>(
        bus, rpc::kFirstWorkerNode + s, s, gbps(1.0)));
    workers.push_back(services.back()->node_id());
  }

  fault::RetryPolicy retry;
  retry.piece_attempts = 4;
  retry.read_attempts = 6;
  retry.base_backoff = std::chrono::microseconds(100);
  retry.max_backoff = std::chrono::milliseconds(1);
  rpc::RpcSpClient client(bus, rpc::kFirstClientNode, rpc::kMasterNode, workers, retry,
                          std::chrono::milliseconds(100));

  std::vector<std::vector<std::uint8_t>> originals;
  for (FileId f = 0; f < 6; ++f) {
    originals.push_back(pattern_bytes(32 * kKB, f));
    client.write(f, originals.back(), {0, 1, 2, 3});
  }

  // Chaos on: every envelope may be dropped, delayed, or duplicated.
  bus.set_fault_injector(&injector);
  std::size_t total_retries = 0;
  for (int round = 0; round < 3; ++round) {
    for (FileId f = 0; f < 6; ++f) {
      const auto stats = client.read_with_stats(f);
      EXPECT_EQ(stats.bytes, originals[f]) << "file " << f;
      total_retries += stats.retries;
    }
  }
  bus.set_fault_injector(nullptr);

  const auto fs = injector.stats();
  EXPECT_GT(fs.bus_drops + fs.bus_duplicates + fs.bus_delays, 0u);
  if (fs.bus_drops > 0) {
    EXPECT_GT(total_retries, 0u) << "dropped envelopes must surface as retries";
  }
}

}  // namespace
}  // namespace spcache
