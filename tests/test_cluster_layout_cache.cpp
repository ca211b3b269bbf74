// Metadata-light read path, in-process side: LayoutCache epoch rules,
// AccessAccumulator batching, cache-served SpClient reads, and concurrent
// readers racing a re-placement that erases the pieces a cached layout
// points at (the TSan target for this subsystem). The single-reader
// stale-layout case runs over both deployments in
// test_cluster_degraded_read (EngineReadTest).
#include "cluster/layout_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "cluster/client.h"
#include "common/rng.h"
#include "fault/fault_injector.h"
#include "obs/metrics.h"

namespace spcache {
namespace {

std::vector<std::uint8_t> random_bytes(std::size_t n, Rng& rng) {
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.uniform_index(256));
  return v;
}

FileMeta meta_with_epoch(std::uint64_t epoch, std::uint32_t server = 0) {
  FileMeta meta;
  meta.size = 100;
  meta.servers = {server};
  meta.piece_sizes = {100};
  meta.epoch = epoch;
  return meta;
}

// Retries stay hot so convergence tests don't sleep through backoff.
fault::RetryPolicy hot_retries() {
  fault::RetryPolicy retry;
  retry.base_backoff = std::chrono::microseconds(0);
  retry.max_backoff = std::chrono::microseconds(0);
  return retry;
}

TEST(LayoutCache, NewerEpochWinsOnRace) {
  LayoutCache cache(64);
  cache.put(1, meta_with_epoch(5, 10));
  // A slow LOOKUP reply from before the refresh must not clobber it.
  cache.put(1, meta_with_epoch(3, 99));
  ASSERT_TRUE(cache.get(1).has_value());
  EXPECT_EQ(cache.get(1)->epoch, 5u);
  EXPECT_EQ(cache.get(1)->servers[0], 10u);
  // Equal epoch refreshes (idempotent put), newer epoch replaces.
  cache.put(1, meta_with_epoch(6, 42));
  EXPECT_EQ(cache.get(1)->epoch, 6u);
  EXPECT_EQ(cache.get(1)->servers[0], 42u);
}

TEST(LayoutCache, InvalidateDropsEntryAndCounts) {
  LayoutCache cache(64);
  cache.put(7, meta_with_epoch(1));
  EXPECT_TRUE(cache.invalidate(7));
  EXPECT_FALSE(cache.get(7).has_value());
  EXPECT_FALSE(cache.invalidate(7));  // already gone; still counted
  EXPECT_EQ(cache.invalidations(), 2u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(LayoutCache, BoundedByCapacity) {
  LayoutCache cache(32);
  for (FileId f = 0; f < 10'000; ++f) cache.put(f, meta_with_epoch(1));
  EXPECT_LE(cache.size(), cache.capacity());
  EXPECT_GT(cache.size(), 0u);
}

TEST(AccessAccumulator, SignalsAtThresholdAndDrains) {
  AccessAccumulator acc(4);
  EXPECT_FALSE(acc.record(1));
  EXPECT_FALSE(acc.record(1));
  EXPECT_FALSE(acc.record(2));
  EXPECT_TRUE(acc.record(3));  // 4th pending access trips the threshold
  auto deltas = acc.drain();
  std::uint64_t total = 0;
  for (const auto& [id, delta] : deltas) total += delta;
  EXPECT_EQ(total, 4u);
  EXPECT_EQ(acc.pending(), 0u);
  EXPECT_TRUE(acc.drain().empty());
}

TEST(ClientLayoutCache, CachedReadsSkipMasterLookup) {
  Cluster cluster(8, gbps(1.0));
  Master master;
  ThreadPool pool(4);
  Rng rng(21);
  SpClient client(cluster, master, pool, nullptr, hot_retries());
  const auto data = random_bytes(64 * kKB, rng);
  client.write(3, data, {0, 1, 2});

  for (int i = 0; i < 5; ++i) {
    const auto result = client.read(3);
    EXPECT_EQ(result.bytes, data);
    EXPECT_TRUE(result.layout_cached);  // own write warmed the cache
  }
  EXPECT_EQ(client.layout_cache().hits(), 5u);
  // The master saw no LOOKUP: popularity arrives only with the flush.
  EXPECT_EQ(master.access_count(3), 0u);
  EXPECT_EQ(client.flush_access_reports(), 5u);
  EXPECT_EQ(master.access_count(3), 5u);
}

TEST(ClientLayoutCache, DisabledCacheRestoresAlwaysLookup) {
  Cluster cluster(8, gbps(1.0));
  Master master;
  ThreadPool pool(4);
  Rng rng(22);
  ClientCacheConfig config;
  config.layout_cache = false;
  SpClient client(cluster, master, pool, nullptr, hot_retries(), GoodputModel{}, config);
  const auto data = random_bytes(16 * kKB, rng);
  client.write(4, data, {0, 1});
  for (int i = 0; i < 3; ++i) {
    const auto result = client.read(4);
    EXPECT_EQ(result.bytes, data);
    EXPECT_FALSE(result.layout_cached);
  }
  EXPECT_EQ(master.access_count(4), 3u);  // every read paid a LOOKUP
  EXPECT_EQ(client.layout_cache().hits(), 0u);
}

TEST(ClientLayoutCache, EpochBumpsOnEveryLayoutMutation) {
  Cluster cluster(4, gbps(1.0));
  Master master;
  ThreadPool pool(2);
  Rng rng(23);
  SpClient client(cluster, master, pool, nullptr, hot_retries());
  const auto data = random_bytes(8 * kKB, rng);
  EXPECT_EQ(master.file_epoch(9), 0u);  // unknown file
  client.write(9, data, {0, 1});
  const auto e1 = master.file_epoch(9);
  EXPECT_GE(e1, 1u);
  client.write(9, data, {2, 3});  // update_file path
  EXPECT_GT(master.file_epoch(9), e1);
}

TEST(ClientLayoutCache, ConcurrentCachedReadersSurviveReplacementChurn) {
  // TSan target: reader threads serve from their shared client's layout
  // cache while the main thread repeatedly re-places the file and erases
  // the old generation, with a seeded injector flaking fetches. Readers
  // must converge through invalidate + re-LOOKUP and never return wrong
  // bytes.
  constexpr std::size_t kReaders = 4;
  constexpr std::size_t kReplacements = 12;
  Cluster cluster(8, gbps(1.0));
  Master master;
  ThreadPool pool(4);
  Rng rng(25);
  fault::FaultConfig fault_config;
  fault_config.fetch_fail_p = 0.05;
  fault::FaultInjector injector(77, fault_config);
  injector.arm();
  cluster.set_fault_injector(&injector);

  SpClient writer(cluster, master, pool, nullptr, hot_retries());
  const auto data = random_bytes(32 * kKB, rng);
  writer.write(6, data, {0, 1});

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> good_reads{0};
  std::atomic<std::size_t> transient_failures{0};
  std::vector<std::thread> readers;
  for (std::size_t t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      ThreadPool fetch_pool(2);
      SpClient client(cluster, master, fetch_pool, nullptr, hot_retries());
      while (!stop.load(std::memory_order_relaxed)) {
        try {
          const auto result = client.read(6);
          EXPECT_EQ(result.bytes, data);
          good_reads.fetch_add(1, std::memory_order_relaxed);
        } catch (const std::runtime_error&) {
          transient_failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
      client.flush_access_reports();
      (void)t;
    });
  }

  // Bounce the layout between server pairs, erasing the old generation.
  std::vector<std::uint32_t> prev{0, 1};
  for (std::size_t round = 0; round < kReplacements; ++round) {
    const std::uint32_t base = static_cast<std::uint32_t>(2 + 2 * (round % 3));
    writer.write(6, data, {base, base + 1});
    for (std::uint32_t i = 0; i < 2; ++i) {
      if (prev[i] != base && prev[i] != base + 1) {
        cluster.server(prev[i]).erase(BlockKey{6, static_cast<PieceIndex>(i)});
      }
    }
    prev = {base, base + 1};
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop.store(true);
  for (auto& t : readers) t.join();

  EXPECT_GT(good_reads.load(), 0u);
  // Popularity survives the cached path: flushed reports landed at the
  // master as access counts.
  EXPECT_GT(master.access_count(6), 0u);
}

}  // namespace
}  // namespace spcache
