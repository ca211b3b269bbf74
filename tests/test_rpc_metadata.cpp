// Metadata-light read path over RPC: epoch-validated layout caching
// (kWrongEpoch convergence after a repartition), per-worker multi-GET
// coalescing, single-flight dedup of concurrent same-file reads, batched
// kReportAccess popularity, kLookupBatch cache warmup, and the master's
// compare-and-swap layout cutover.
#include "rpc/cache_service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "core/sp_cache.h"
#include "obs/metrics.h"
#include "rpc/repartitioner_service.h"

namespace spcache::rpc {
namespace {

std::vector<std::uint8_t> random_bytes(std::size_t n, Rng& rng) {
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.uniform_index(256));
  return v;
}

fault::RetryPolicy hot_retries() {
  fault::RetryPolicy retry;
  retry.base_backoff = std::chrono::microseconds(0);
  retry.max_backoff = std::chrono::microseconds(0);
  return retry;
}

class RpcMetadataTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kWorkers = 6;

  RpcMetadataTest() {
    master_ = std::make_unique<MasterService>(bus_);
    for (std::size_t s = 0; s < kWorkers; ++s) {
      workers_.push_back(std::make_unique<CacheWorkerService>(
          bus_, kFirstWorkerNode + static_cast<NodeId>(s), static_cast<std::uint32_t>(s),
          gbps(1.0)));
      worker_nodes_.push_back(workers_.back()->node_id());
    }
    client_ = std::make_unique<RpcSpClient>(bus_, kFirstClientNode, kMasterNode, worker_nodes_,
                                            hot_retries());
    bus_.attach_observability(&registry_);
    client_->attach_observability(&registry_);
    master_->master().attach_observability(&registry_);
  }

  std::uint64_t counter(std::string_view name) { return registry_.counter(name).value(); }

  Bus bus_;
  obs::MetricsRegistry registry_;
  std::unique_ptr<MasterService> master_;
  std::vector<std::unique_ptr<CacheWorkerService>> workers_;
  std::vector<NodeId> worker_nodes_;
  std::unique_ptr<RpcSpClient> client_;
  Rng rng_{31};
};

TEST_F(RpcMetadataTest, CachedReadsSkipLookupAndCoalesceEnvelopes) {
  const auto data = random_bytes(120 * kKB, rng_);
  // Two pieces on worker 0, one on worker 1: the coalesced read needs two
  // envelopes where the per-piece baseline needs three.
  client_->write(1, data, {0, 0, 1});

  for (int i = 0; i < 4; ++i) {
    const auto stats = client_->read_with_stats(1);
    EXPECT_EQ(stats.bytes, data);
    EXPECT_TRUE(stats.layout_cached);  // the write warmed the cache
  }
  namespace n = obs::names;
  EXPECT_EQ(counter(n::kClientLayoutHits), 4u);
  EXPECT_EQ(counter(n::kClientLayoutMisses), 0u);
  // Each read saved one envelope (pieces 0+1 shared worker 0's multi-GET).
  EXPECT_EQ(counter(n::kBusEnvelopesCoalesced), 4u);
  // No LOOKUP reached the master until the batch flush.
  EXPECT_EQ(client_->access_count(1), 0u);
  EXPECT_EQ(client_->flush_access_reports(), 4u);
  EXPECT_EQ(client_->access_count(1), 4u);
  EXPECT_EQ(counter(n::kMasterLookupsSaved), 4u);
}

TEST_F(RpcMetadataTest, WrongEpochRejectsStaleMultiGet) {
  const auto data = random_bytes(60 * kKB, rng_);
  client_->write(2, data, {0, 1});
  EXPECT_EQ(client_->read(2), data);  // caches the epoch-1 layout

  // A second writer bumps the layout generation on an overlapping worker:
  // worker 0 now remembers a newer epoch than the cached layout carries.
  RpcSpClient writer(bus_, kFirstClientNode + 1, kMasterNode, worker_nodes_, hot_retries());
  writer.write(2, data, {0, 2});

  // The stale multi-GET draws kWrongEpoch; the client invalidates and the
  // next pass re-LOOKUPs the fresh layout.
  const auto stats = client_->read_with_stats(2);
  EXPECT_EQ(stats.bytes, data);
  EXPECT_GE(stats.passes, 2u);
  EXPECT_FALSE(stats.layout_cached);
  EXPECT_GE(client_->layout_cache().invalidations(), 1u);
  EXPECT_GE(counter(obs::names::kClientLayoutInvalidations), 1u);
  // Converged: the refreshed layout serves from cache again.
  EXPECT_TRUE(client_->read_with_stats(2).layout_cached);
}

TEST_F(RpcMetadataTest, StaleCacheConvergesAfterRpcRepartition) {
  const auto data = random_bytes(90 * kKB, rng_);
  client_->write(3, data, {0, 1, 2});
  EXPECT_EQ(client_->read(3), data);

  // Fig. 9b flow: a repartitioner moves the file onto {3, 4} (no range is
  // resident on its destination), publishes the new layout, and erases
  // the old pieces.
  RepartitionerService repartitioner(bus_, kFirstRepartitionerNode, 3, kMasterNode,
                                     worker_nodes_);
  RpcNode coordinator(bus_, kFirstClientNode + 7, "coordinator");
  coordinator.start();
  BufferWriter w;
  w.u32(3);
  w.u32(2);
  for (std::uint32_t s : {3u, 4u}) w.u32(s);
  const auto reply =
      coordinator.call_sync(repartitioner.node_id(), kDeltaRepartitionFile, w.take());
  ASSERT_TRUE(reply.ok()) << reply.error_text();
  BufferReader published(reply.payload);
  ASSERT_EQ(published.u8(), 1u);

  // The cached 3-piece layout is gone from the cluster; the read must
  // invalidate and converge on the 2-piece layout.
  const auto stats = client_->read_with_stats(3);
  EXPECT_EQ(stats.bytes, data);
  EXPECT_GE(stats.passes, 2u);
  EXPECT_TRUE(client_->read_with_stats(3).layout_cached);
}

TEST_F(RpcMetadataTest, CutoverRefusesALayoutThatMovedDuringTheSplice) {
  const auto data = random_bytes(40 * kKB, rng_);
  client_->write(30, data, {0, 1});
  RpcNode node(bus_, kFirstClientNode + 8, "cutover");
  node.start();
  const auto layouts = make_rpc_layout_service(node, kMasterNode, std::chrono::milliseconds(1000));
  const auto before = master_->master().peek(30);
  FileMeta next = *before;
  next.servers = {2, 3};
  next.epoch = before->epoch + 1;

  // Stale from the start: refused before the splice runs.
  bool spliced = false;
  bool retired = false;
  const auto retire = [&] { retired = true; };
  EXPECT_FALSE(
      layouts->cutover(30, before->epoch + 7, next, [&] { return spliced = true; }, retire));
  EXPECT_FALSE(spliced);

  // Current at the check, but another writer lands a layout during the
  // splice: the master's compare-and-swap must refuse ours.
  RpcSpClient writer(bus_, kFirstClientNode + 9, kMasterNode, worker_nodes_, hot_retries());
  EXPECT_FALSE(layouts->cutover(
      30, before->epoch, next,
      [&] {
        writer.write(30, data, {4, 5});
        return true;
      },
      retire));
  EXPECT_FALSE(retired);  // only a landed swap retires the old layout
  const auto after = master_->master().peek(30);
  EXPECT_EQ(after->servers, (std::vector<std::uint32_t>{4, 5}));
  EXPECT_EQ(after->epoch, before->epoch + 1);
  EXPECT_EQ(client_->read(30), data);
}

TEST_F(RpcMetadataTest, SingleFlightSharesConcurrentReads) {
  const auto data = random_bytes(512 * kKB, rng_);
  client_->write(4, data, {0, 1, 2, 3});

  constexpr std::size_t kThreads = 6;
  std::atomic<std::size_t> correct{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      const auto stats = client_->read_with_stats(4);
      if (stats.bytes == data) correct.fetch_add(1, std::memory_order_relaxed);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(correct.load(), kThreads);
  // Every read either performed the fetch (client.reads) or shared a
  // leader's (client.singleflight_shared) — the split is timing-dependent,
  // the sum is not.
  namespace n = obs::names;
  EXPECT_EQ(counter(n::kClientReads) + counter(n::kClientSingleFlightShared), kThreads);
}

TEST_F(RpcMetadataTest, LookupBatchWarmsCacheInOneEnvelope) {
  std::vector<std::vector<std::uint8_t>> blobs;
  for (FileId f = 10; f < 14; ++f) {
    blobs.push_back(random_bytes(20 * kKB + f, rng_));
    client_->write(f, blobs.back(), {static_cast<std::uint32_t>(f % kWorkers)});
  }
  // A second client with a cold cache warms it with one kLookupBatch.
  RpcSpClient fresh(bus_, kFirstClientNode + 2, kMasterNode, worker_nodes_, hot_retries());
  fresh.attach_observability(&registry_);
  EXPECT_EQ(fresh.prefetch_layouts({10, 11, 12, 13, 99}), 4u);  // 99 unknown
  for (FileId f = 10; f < 14; ++f) {
    const auto stats = fresh.read_with_stats(f);
    EXPECT_EQ(stats.bytes, blobs[f - 10]);
    EXPECT_TRUE(stats.layout_cached);
  }
}

TEST_F(RpcMetadataTest, BaselineConfigDisablesTheWholePath) {
  ClientCacheConfig baseline;
  baseline.layout_cache = false;
  baseline.coalesce = false;
  baseline.single_flight = false;
  RpcSpClient plain(bus_, kFirstClientNode + 3, kMasterNode, worker_nodes_, hot_retries(),
                    std::chrono::milliseconds(1000), baseline);
  const auto data = random_bytes(50 * kKB, rng_);
  plain.write(20, data, {0, 0, 1});
  const auto before = counter(obs::names::kBusEnvelopesCoalesced);
  for (int i = 0; i < 3; ++i) {
    const auto stats = plain.read_with_stats(20);
    EXPECT_EQ(stats.bytes, data);
    EXPECT_FALSE(stats.layout_cached);
    EXPECT_FALSE(stats.shared);
  }
  EXPECT_EQ(counter(obs::names::kBusEnvelopesCoalesced), before);  // nothing coalesced
  EXPECT_EQ(plain.access_count(20), 3u);  // every read paid a LOOKUP
}

}  // namespace
}  // namespace spcache::rpc
