// Chaos test: concurrent readers racing online adjustments, failures, and
// recovery on one shared cluster. The invariants: no crashes or deadlocks,
// transient read failures are retryable, and at quiescence every file is
// bit-exact.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "cluster/client.h"
#include "cluster/health_monitor.h"
#include "cluster/online_adjust.h"
#include "cluster/repartition_exec.h"
#include "cluster/stable_store.h"
#include "core/sp_cache.h"
#include "fault/fault_injector.h"

namespace spcache {
namespace {

std::vector<std::uint8_t> pattern_bytes(std::size_t n, std::uint32_t seed) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::uint8_t>(seed * 31 + i * 7);
  return v;
}

TEST(ClusterChaos, ReadersSurviveOnlineAdjustmentsAndRecovery) {
  constexpr std::size_t kFiles = 24;
  constexpr Bytes kFileSize = 96 * kKB;
  Cluster cluster(16, gbps(1.0));
  Master master;
  ThreadPool io_pool(4);
  StableStore stable;
  Rng rng(2024);

  // Populate + checkpoint.
  auto catalog = make_uniform_catalog(kFiles, kFileSize, 1.05, 10.0);
  SpCacheScheme sp;
  sp.place(catalog, cluster.bandwidths(), rng);
  SpClient writer(cluster, master, io_pool);
  std::vector<std::vector<std::uint8_t>> originals(kFiles);
  for (FileId f = 0; f < kFiles; ++f) {
    originals[f] = pattern_bytes(kFileSize, f);
    writer.write(f, originals[f], sp.placement(f).servers);
    stable.checkpoint(f, originals[f]);
  }

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> good_reads{0};
  std::atomic<std::size_t> transient_failures{0};
  std::atomic<std::size_t> corruptions{0};

  // Reader threads: random files, tolerate transient errors (a read can
  // race a split's re-indexing window), but never tolerate wrong bytes.
  auto reader_loop = [&](std::uint64_t seed) {
    Rng local(seed);
    ThreadPool fetch_pool(2);
    SpClient client(cluster, master, fetch_pool);
    while (!stop.load()) {
      const auto f = static_cast<FileId>(local.uniform_index(kFiles));
      try {
        const auto bytes = client.read(f).bytes;
        if (bytes != originals[f]) {
          corruptions.fetch_add(1);
        } else {
          good_reads.fetch_add(1);
        }
      } catch (const std::exception&) {
        transient_failures.fetch_add(1);
      }
    }
  };
  std::thread r1(reader_loop, 1), r2(reader_loop, 2);

  // Chaos driver: bursts of online splits/merges, each file moved to its
  // target by one delta move, and one failure+recovery.
  Rng chaos(7);
  const auto store = make_inproc_piece_store(cluster, nullptr);
  const auto layouts = make_inproc_layout_service(master, nullptr);
  for (int round = 0; round < 6; ++round) {
    auto live = catalog;
    live.shuffle_popularities(chaos);
    OnlineAdjustConfig cfg;
    cfg.max_ops_per_file = 2;
    apply_adjust_targets(
        *store, *layouts,
        plan_online_adjust(live, *layouts, cluster.size(), 4.0 / live.max_load(), cfg),
        cluster.size());
  }
  {
    // Crash a server mid-traffic and repair it.
    cluster.server(3).clear();
    RecoveryManager recovery(cluster, master, stable);
    recovery.repair_after_server_loss(3);
  }

  // The chaos phase above can complete in single-digit milliseconds; keep
  // the (now healthy) cluster under reader traffic until at least one read
  // lands so the good_reads gate checks correctness, not scheduling luck.
  // Bounded: a genuine read outage still fails below.
  for (int i = 0; i < 5000 && good_reads.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  stop.store(true);
  r1.join();
  r2.join();

  EXPECT_EQ(corruptions.load(), 0u) << "readers must never see wrong bytes";
  EXPECT_GT(good_reads.load(), 0u);

  // Quiescent state: every file reassembles bit-exactly.
  SpClient verifier(cluster, master, io_pool);
  for (FileId f = 0; f < kFiles; ++f) {
    EXPECT_EQ(verifier.read(f).bytes, originals[f]) << "file " << f;
  }
}

// The acceptance scenario: a seeded FaultInjector drives transient fetch
// failures, wire corruption, and scheduled whole-server kill/revive storms
// against 16 servers while readers hammer the cluster. The HealthMonitor —
// not the test — detects each death from missed heartbeats and triggers
// RecoveryManager repair. Invariants: readers never observe wrong bytes,
// ≥99% of reads complete (the rest ride through as degraded reads, not
// errors), and the cluster quiesces to all-healthy with every file
// bit-exact.
TEST(ClusterChaos, InjectorDrivenKillReviveStormSelfHeals) {
  constexpr std::size_t kFiles = 24;
  constexpr Bytes kFileSize = 64 * kKB;
  constexpr std::uint32_t kServers = 16;
  Cluster cluster(kServers, gbps(1.0));
  Master master;
  ThreadPool io_pool(4);
  StableStore stable;
  Rng rng(2025);

  auto catalog = make_uniform_catalog(kFiles, kFileSize, 1.05, 10.0);
  SpCacheScheme sp;
  sp.place(catalog, cluster.bandwidths(), rng);
  SpClient writer(cluster, master, io_pool);
  std::vector<std::vector<std::uint8_t>> originals(kFiles);
  for (FileId f = 0; f < kFiles; ++f) {
    originals[f] = pattern_bytes(kFileSize, f);
    writer.write(f, originals[f], sp.placement(f).servers);
    stable.checkpoint(f, originals[f]);
  }

  // Seeded chaos: low-rate transient faults on every fetch, plus two
  // scheduled whole-server outages applied by the driver loop below.
  fault::FaultConfig fault_cfg;
  fault_cfg.fetch_fail_p = 0.02;
  fault_cfg.corrupt_read_p = 0.01;
  fault::FaultInjector injector(20260805, fault_cfg);
  injector.schedule({20, 5, fault::CrashEvent::Action::kKill});
  injector.schedule({120, 5, fault::CrashEvent::Action::kRevive});
  injector.schedule({60, 11, fault::CrashEvent::Action::kKill});
  injector.schedule({160, 11, fault::CrashEvent::Action::kRevive});
  cluster.set_fault_injector(&injector);

  // Self-healing pipeline: heartbeats -> death declared after K misses ->
  // automatic repair_after_server_loss. The test never calls repair.
  RecoveryManager recovery(cluster, master, stable);
  HealthMonitorConfig mon_cfg;
  mon_cfg.heartbeat_interval = std::chrono::milliseconds(1);
  mon_cfg.missed_beats_to_declare_dead = 3;
  mon_cfg.auto_repair = true;
  HealthMonitor monitor(cluster, recovery, mon_cfg);
  monitor.start();

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> attempted{0};
  std::atomic<std::size_t> completed{0};
  std::atomic<std::size_t> degraded{0};
  std::atomic<std::size_t> corruptions{0};

  fault::RetryPolicy retry;
  retry.piece_attempts = 3;
  retry.read_attempts = 5;
  retry.base_backoff = std::chrono::microseconds(100);
  retry.max_backoff = std::chrono::milliseconds(2);

  auto reader_loop = [&](std::uint64_t seed) {
    Rng local(seed);
    ThreadPool fetch_pool(2);
    SpClient client(cluster, master, fetch_pool, &stable, retry);
    while (!stop.load()) {
      const auto f = static_cast<FileId>(local.uniform_index(kFiles));
      attempted.fetch_add(1);
      try {
        const auto result = client.read(f);
        if (result.bytes != originals[f]) {
          corruptions.fetch_add(1);
        } else {
          completed.fetch_add(1);
          if (result.degraded) degraded.fetch_add(1);
        }
      } catch (const std::exception&) {
        // Counted against the >=99% completion bar below.
      }
    }
  };
  std::thread r1(reader_loop, 11), r2(reader_loop, 22), r3(reader_loop, 33);

  // Driver: one step per millisecond; scheduled crash events fire at their
  // step and are applied through Cluster::kill / Cluster::revive.
  for (std::uint64_t step = 0; step <= 200; ++step) {
    for (const auto& event : injector.due(step)) {
      if (event.action == fault::CrashEvent::Action::kKill) {
        cluster.kill(event.server);
      } else {
        cluster.revive(event.server);
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(injector.scheduled_remaining(), 0u);

  // Quiesce: stop injecting faults, let the monitor confirm all-healthy.
  injector.disarm();
  const bool healthy = monitor.wait_all_healthy(std::chrono::seconds(5));
  stop.store(true);
  r1.join();
  r2.join();
  r3.join();
  monitor.stop();
  cluster.set_fault_injector(nullptr);

  EXPECT_TRUE(healthy) << "cluster never quiesced to all-healthy";
  EXPECT_EQ(corruptions.load(), 0u) << "a reader saw corrupted bytes";
  ASSERT_GT(attempted.load(), 0u);
  const double completion =
      static_cast<double>(completed.load()) / static_cast<double>(attempted.load());
  EXPECT_GE(completion, 0.99) << completed.load() << "/" << attempted.load()
                              << " reads completed";

  // The self-healing pipeline actually ran: both outages were detected
  // from heartbeats and repaired without the test touching recovery.
  const auto hs = monitor.stats();
  EXPECT_GE(hs.deaths_declared, 2u);
  EXPECT_GE(hs.repairs_completed, 2u);
  EXPECT_EQ(hs.repair_failures, 0u);
  EXPECT_GT(hs.pieces_recovered, 0u);
  EXPECT_GE(hs.revivals_observed, 2u);
  const auto fs = injector.stats();
  EXPECT_GT(fs.decisions, 0u) << "the injector was never consulted";

  // Quiescent state: every file reassembles bit-exactly, and nothing is
  // left on a layout that still references a failed server.
  SpClient verifier(cluster, master, io_pool);
  for (FileId f = 0; f < kFiles; ++f) {
    const auto result = verifier.read(f);
    EXPECT_EQ(result.bytes, originals[f]) << "file " << f;
    EXPECT_FALSE(result.degraded) << "file " << f << " still reads degraded after repair";
  }
}

}  // namespace
}  // namespace spcache
