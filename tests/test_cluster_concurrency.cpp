// Multi-threaded stress tests for the shard-per-core cluster substrate:
// concurrent readers + writers + a repartitioner + an online adjuster over
// the sharded master and striped block stores.
//
// The assertions pin down the concurrency contract:
//   * read-your-writes: a writer that rewrote its own file (and nobody
//     else writes it) always reads back the exact bytes;
//   * CRC integrity: a read that *returns* is bit-exact end to end — a
//     read racing a layout change may throw (missing piece / checksum
//     conflict, which real clients retry), but never yields torn data;
//   * exact access-count totals: the relaxed atomic counters lose no
//     bumps under contention;
//   * per-file linearizability: repartition RMWs and split/merge delta
//     cutovers on the same file serialize via Master::lock_file (a delta
//     move whose file changed underneath fails its epoch check), so the
//     layout and the stored pieces never diverge.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "cluster/cache_server.h"
#include "cluster/client.h"
#include "cluster/master.h"
#include "cluster/repartition_exec.h"
#include "cluster/stable_store.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "fault/fault_injector.h"
#include "fault/retry.h"

namespace spcache {
namespace {

std::vector<std::uint8_t> payload(FileId id, std::uint32_t version, std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::uint8_t>(mix64((static_cast<std::uint64_t>(id) << 40) ^
                                           (static_cast<std::uint64_t>(version) << 20) ^ i));
  }
  return v;
}

std::vector<std::uint32_t> distinct_servers(Rng& rng, std::size_t n_servers, std::size_t k) {
  const auto picks = rng.sample_without_replacement(n_servers, k);
  return std::vector<std::uint32_t>(picks.begin(), picks.end());
}

TEST(ClusterConcurrency, ReadYourWritesUnderContention) {
  constexpr std::size_t kServers = 8;
  constexpr std::size_t kWriters = 4;
  constexpr std::size_t kFilesPerWriter = 6;
  constexpr std::size_t kIterations = 25;
  constexpr std::size_t kFileSize = 8 * 1024;

  Cluster cluster(kServers, gbps(1.0));
  Master master;
  ThreadPool pool(4);
  SpClient client(cluster, master, pool);

  // Each writer owns a disjoint file range; nobody else writes those ids,
  // so every write must be immediately readable, bit-exact.
  std::vector<std::thread> threads;
  std::atomic<std::size_t> failures{0};
  for (std::size_t w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      Rng rng(1000 + w);
      for (std::uint32_t it = 0; it < kIterations; ++it) {
        for (std::size_t f = 0; f < kFilesPerWriter; ++f) {
          const FileId id = static_cast<FileId>(w * kFilesPerWriter + f);
          const auto data = payload(id, it, kFileSize);
          client.write(id, data, distinct_servers(rng, kServers, 3));
          const auto result = client.read(id);
          if (result.bytes != data) failures.fetch_add(1);
        }
      }
    });
  }
  // Concurrent foreign readers: they may race a rewrite and throw (a
  // conflict a real client retries) but must never crash or return data
  // that fails verification (read() CRC-checks internally).
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> foreign_ok{0};
  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(2000 + r);
      while (!stop.load()) {
        const FileId id =
            static_cast<FileId>(rng.uniform_index(kWriters * kFilesPerWriter));
        try {
          const auto result = client.read(id);
          if (!result.bytes.empty()) foreign_ok.fetch_add(1);
        } catch (const std::runtime_error&) {
          // unknown file / mid-rewrite conflict: acceptable, retried
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  stop.store(true);
  for (auto& t : readers) t.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GT(foreign_ok.load(), 0u);
  EXPECT_EQ(master.file_count(), kWriters * kFilesPerWriter);
}

TEST(ClusterConcurrency, ExactAccessCountTotalsUnderContention) {
  constexpr std::size_t kFiles = 64;
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kLookupsPerThread = 4000;

  Master master;
  for (FileId id = 0; id < kFiles; ++id) {
    FileMeta meta;
    meta.size = 100;
    meta.servers = {0};
    meta.piece_sizes = {100};
    master.register_file(id, meta);
  }

  // Every thread tallies its own lookups; the master's relaxed atomic
  // counters must agree exactly with the summed tallies.
  std::vector<std::vector<std::uint64_t>> tallies(kThreads,
                                                  std::vector<std::uint64_t>(kFiles, 0));
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(42 + t);
      for (std::size_t i = 0; i < kLookupsPerThread; ++i) {
        const FileId id = static_cast<FileId>(rng.uniform_index(kFiles));
        ASSERT_TRUE(master.lookup_for_read(id).has_value());
        ++tallies[t][id];
      }
    });
  }
  // A snapshotter runs alongside: shard-by-shard walks must not stall or
  // corrupt the counters.
  std::atomic<bool> stop{false};
  std::thread snapshotter([&] {
    while (!stop.load()) {
      const auto cat = master.snapshot_catalog(60.0);
      ASSERT_LE(cat.size(), kFiles);
      ASSERT_EQ(master.file_ids().size(), kFiles);
    }
  });
  for (auto& t : threads) t.join();
  stop.store(true);
  snapshotter.join();

  for (FileId id = 0; id < kFiles; ++id) {
    std::uint64_t expected = 0;
    for (std::size_t t = 0; t < kThreads; ++t) expected += tallies[t][id];
    EXPECT_EQ(master.access_count(id), expected) << "file " << id;
  }
  master.reset_access_counts();
  for (FileId id = 0; id < kFiles; ++id) EXPECT_EQ(master.access_count(id), 0u);
}

TEST(ClusterConcurrency, RepartitionerAndAdjusterVsReadersIntegrity) {
  constexpr std::size_t kServers = 8;
  constexpr std::size_t kFiles = 16;
  constexpr std::size_t kFileSize = 12 * 1024;
  constexpr std::size_t kRounds = 6;

  Cluster cluster(kServers, gbps(1.0));
  Master master;
  ThreadPool pool(4);
  SpClient client(cluster, master, pool);

  // Fixed content per file: repartition and split/merge move bytes around
  // but never change them, so EVERY successful read must be bit-exact.
  std::vector<std::vector<std::uint8_t>> golden(kFiles);
  Rng setup_rng(7);
  for (FileId id = 0; id < kFiles; ++id) {
    golden[id] = payload(id, 0, kFileSize);
    client.write(id, golden[id], distinct_servers(setup_rng, kServers, 3));
  }

  constexpr std::size_t kReaders = 3;
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> torn_reads{0};
  std::atomic<std::size_t> ok_reads{0};
  std::atomic<std::size_t> readers_started{0};  // readers past their first read
  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(300 + r);
      for (bool first = true; !stop.load(); first = false) {
        const FileId id = static_cast<FileId>(rng.uniform_index(kFiles));
        try {
          const auto result = client.read(id);
          if (result.bytes == golden[id]) {
            ok_reads.fetch_add(1);
          } else {
            torn_reads.fetch_add(1);  // passed CRC but wrong bytes: impossible
          }
        } catch (const std::runtime_error&) {
          // read raced a layout change; a real client retries
        }
        if (first) readers_started.fetch_add(1);
      }
    });
  }
  // The layout writers below start once every reader has finished one
  // read (bounded wait), so they always race live readers.
  const auto await_readers = [&] {
    for (int i = 0; i < 5000 && readers_started.load() < kReaders; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };

  // Repartitioner: flips every file between k=3 and k=4 layouts through
  // Algorithm 2's executor path (guarded per-file RMW).
  std::thread repartitioner([&] {
    await_readers();
    Rng rng(500);
    for (std::size_t round = 0; round < kRounds; ++round) {
      const std::size_t new_k = 3 + (round % 2);
      RepartitionPlan plan;
      plan.new_k.assign(kFiles, new_k);
      for (FileId id = 0; id < kFiles; ++id) {
        plan.changed_files.push_back(id);
        plan.new_servers.push_back(distinct_servers(rng, kServers, new_k));
        plan.executor.push_back(plan.new_servers.back().front());
      }
      execute_parallel_repartition(cluster, master, plan, pool);
    }
  });

  // Online adjuster: split piece 0 onto a random server, then merge it
  // back, each as one delta move racing the repartitioner on the same
  // files. A move whose file changed underneath fails to stage or loses
  // its epoch-checked cutover and is dropped, never corrupting the file.
  std::thread adjuster([&] {
    await_readers();
    Rng rng(700);
    const auto store = make_inproc_piece_store(cluster, nullptr);
    const auto layouts = make_inproc_layout_service(master, nullptr);
    for (std::size_t round = 0; round < kRounds * 4; ++round) {
      const FileId id = static_cast<FileId>(rng.uniform_index(kFiles));
      auto meta = *master.peek(id);
      const Bytes half = meta.piece_sizes[0] / 2;
      meta.piece_sizes.insert(meta.piece_sizes.begin() + 1, meta.piece_sizes[0] - half);
      meta.piece_sizes[0] = half;
      meta.servers.insert(meta.servers.begin() + 1,
                          static_cast<std::uint32_t>(rng.uniform_index(kServers)));
      if (!delta_repartition_file(*store, *layouts, id, meta.piece_sizes, meta.servers)) {
        continue;
      }
      meta.piece_sizes[0] += meta.piece_sizes[1];
      meta.piece_sizes.erase(meta.piece_sizes.begin() + 1);
      meta.servers.erase(meta.servers.begin() + 1);
      delta_repartition_file(*store, *layouts, id, meta.piece_sizes, meta.servers);
    }
  });

  repartitioner.join();
  adjuster.join();
  stop.store(true);
  for (auto& t : readers) t.join();

  EXPECT_EQ(torn_reads.load(), 0u);
  EXPECT_GT(ok_reads.load(), 0u);

  // Quiescent state: every file reassembles bit-exactly, and layout
  // metadata matches the resident pieces.
  for (FileId id = 0; id < kFiles; ++id) {
    const auto result = client.read(id);
    EXPECT_EQ(result.bytes, golden[id]) << "file " << id;
    const auto meta = master.peek(id);
    ASSERT_TRUE(meta.has_value());
    for (std::size_t i = 0; i < meta->partitions(); ++i) {
      EXPECT_TRUE(cluster.server(meta->servers[i])
                      .contains(BlockKey{id, static_cast<PieceIndex>(i)}));
    }
  }
}

// The ISSUE-5 acceptance bar for delta repartitioning: readers hammering a
// file *during* an epoch cutover, under seeded fetch faults, must never
// fail a read. The delta executor stages new pieces off the read path and
// publishes in one short critical section; a fault-tolerant client with
// stable-storage failover absorbs everything else (missing pieces after
// GC, stale layouts, injected fetch failures). Unlike the integrity test
// above — where racing reads may throw and "a real client retries" — here
// the client IS the retrying client, so any escape is a bug.
TEST(ClusterConcurrency, ReadersNeverFailDuringDeltaRepartition) {
  constexpr std::size_t kServers = 8;
  constexpr std::size_t kFiles = 12;
  constexpr std::size_t kFileSize = 16 * 1024;
  constexpr std::size_t kRounds = 8;

  Cluster cluster(kServers, gbps(1.0));
  Master master;
  ThreadPool pool(4);
  fault::FaultInjector injector(91, fault::FaultConfig{.fetch_fail_p = 0.02});
  cluster.set_fault_injector(&injector);
  StableStore stable;
  SpClient client(cluster, master, pool, &stable, fault::RetryPolicy{});

  std::vector<std::vector<std::uint8_t>> golden(kFiles);
  Rng setup_rng(17);
  for (FileId id = 0; id < kFiles; ++id) {
    golden[id] = payload(id, 0, kFileSize);
    stable.checkpoint(id, golden[id]);
    client.write(id, golden[id], distinct_servers(setup_rng, kServers, 3));
  }

  constexpr std::size_t kReaders = 3;
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> failed_reads{0};
  std::atomic<std::size_t> wrong_reads{0};
  std::atomic<std::size_t> ok_reads{0};
  std::atomic<std::size_t> readers_started{0};  // readers past their first read
  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(900 + r);
      for (bool first = true; !stop.load(); first = false) {
        const FileId id = static_cast<FileId>(rng.uniform_index(kFiles));
        try {
          const auto result = client.read(id);
          (result.bytes == golden[id] ? ok_reads : wrong_reads).fetch_add(1);
        } catch (const std::runtime_error&) {
          failed_reads.fetch_add(1);
        }
        if (first) readers_started.fetch_add(1);
      }
    });
  }

  // Delta repartitioner: flips every file between k=3 and k=4 while the
  // readers run. Each round stages under epoch+1, publishes, lazily GCs.
  // It starts once every reader has finished one read (bounded wait), so
  // the rounds always race live readers and ok_reads > 0 checks that reads
  // succeed, not that a reader got scheduled before the rounds ended.
  std::thread repartitioner([&] {
    for (int i = 0; i < 5000 && readers_started.load() < kReaders; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    Rng rng(1100);
    for (std::size_t round = 0; round < kRounds; ++round) {
      const std::size_t new_k = 3 + (round % 2);
      RepartitionPlan plan;
      plan.new_k.assign(kFiles, new_k);
      for (FileId id = 0; id < kFiles; ++id) {
        plan.changed_files.push_back(id);
        plan.new_servers.push_back(distinct_servers(rng, kServers, new_k));
        plan.executor.push_back(plan.new_servers.back().front());
      }
      execute_delta_repartition(cluster, master, plan, pool);
    }
  });

  repartitioner.join();
  stop.store(true);
  for (auto& t : readers) t.join();

  EXPECT_EQ(failed_reads.load(), 0u);
  EXPECT_EQ(wrong_reads.load(), 0u);
  EXPECT_GT(ok_reads.load(), 0u);

  // Quiescent: bit-exact content, no staged residue anywhere.
  cluster.set_fault_injector(nullptr);
  for (FileId id = 0; id < kFiles; ++id) {
    EXPECT_EQ(client.read(id).bytes, golden[id]) << "file " << id;
  }
  for (std::size_t s = 0; s < kServers; ++s) {
    EXPECT_EQ(cluster.server(s).staged_count(), 0u) << "server " << s;
  }
}

TEST(ClusterConcurrency, StripedStoreExactLoadAccounting) {
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kOpsPerThread = 500;
  constexpr std::size_t kBlockSize = 256;

  CacheServer server(0, gbps(1.0));
  // Pre-populate a disjoint key range per thread, then hammer get():
  // bytes_served must equal reads * block size exactly (no lost updates in
  // the relaxed counter), and reset must be race-free afterwards.
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < 8; ++i) {
      server.put(BlockKey{static_cast<FileId>(t), static_cast<PieceIndex>(i)},
                 payload(static_cast<FileId>(t), static_cast<std::uint32_t>(i), kBlockSize));
    }
  }
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(t);
      for (std::size_t i = 0; i < kOpsPerThread; ++i) {
        const auto block = server.get(
            BlockKey{static_cast<FileId>(t), static_cast<PieceIndex>(rng.uniform_index(8))});
        ASSERT_TRUE(block != nullptr);
        ASSERT_EQ(block->bytes.size(), kBlockSize);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_DOUBLE_EQ(server.bytes_served(),
                   static_cast<double>(kThreads * kOpsPerThread * kBlockSize));
  server.reset_load_counters();
  EXPECT_DOUBLE_EQ(server.bytes_served(), 0.0);
  EXPECT_EQ(server.blocks_stored(), kThreads * 8);
}

}  // namespace
}  // namespace spcache
