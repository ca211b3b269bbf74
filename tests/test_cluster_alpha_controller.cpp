// AlphaController: the online observe -> decide -> act loop.
//
// The properties pinned here are the ones the closed loop's correctness
// rests on: (1) the incremental Algorithm 1 (refine_scale_factor) lands on
// the same elbow as a from-scratch run over the same catalog and placement
// seed, regardless of where the warm start sits; (2) hysteresis — cooldown
// + alpha deadband — bounds how often oscillating rates can thrash the
// layout; (3) the Eq. 1 alpha is mandatory at the plan entry point; and
// (4) end to end, a burst on a cold file makes the controller split it,
// and a file with a dead holder keeps its layout until the holder is back.
//
// The controller acts only through the client seam, so every controller
// case runs in both deployments: over the threaded cluster, and over the
// RPC PieceStore/LayoutService against CacheWorkerServices and a
// MasterService on an InprocTransport bus.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <stdexcept>

#include "cluster/alpha_controller.h"
#include "cluster/client.h"
#include "cluster/online_adjust.h"
#include "cluster/stable_store.h"
#include "math/scale_factor.h"
#include "rpc/cache_service.h"
#include "workload/popularity_tracker.h"

namespace spcache {
namespace {

std::vector<std::uint8_t> pattern_bytes(std::size_t n, std::uint32_t seed) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::uint8_t>(seed * 31 + i * 7);
  return v;
}

// Property: warm-started refine matches from-scratch Algorithm 1 on the
// same catalog + placement seed, within one grid step (both searches walk
// the identical alpha^1 * 1.5^j grid; the warm start only moves the entry
// point, so any gap means the stopping rules diverged).
TEST(RefineScaleFactor, IncrementalMatchesScratchAcrossSeeds) {
  const std::vector<double> bandwidths(12, gbps(1.0));
  const ScaleFactorConfig config;
  const double warm_perturbations[] = {0.5, 0.8, 1.0, 1.3, 2.2};

  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    auto catalog = make_uniform_catalog(30, 2 * kMB, 1.05 + 0.05 * (seed % 3), 20.0);
    Rng shuffle_rng(seed * 77);
    catalog.shuffle_popularities(shuffle_rng);

    Rng scratch_rng(seed);
    const auto scratch = find_scale_factor(catalog, bandwidths, config, scratch_rng);
    ASSERT_GT(scratch.alpha, 0.0);
    // find_scale_factor draws the placement seed as its first u64.
    const std::uint64_t placement_seed = Rng(seed).next_u64();

    for (const double perturb : warm_perturbations) {
      const auto refined = refine_scale_factor(catalog, bandwidths, config, placement_seed,
                                               scratch.alpha * perturb);
      const double ratio = refined.alpha / scratch.alpha;
      EXPECT_GT(ratio, 1.0 / (config.inflation + 0.01))
          << "seed=" << seed << " perturb=" << perturb;
      EXPECT_LT(ratio, config.inflation + 0.01)
          << "seed=" << seed << " perturb=" << perturb;
      // The bound at the refined elbow must be as good as scratch's (same
      // grid, so a worse bound means refine stopped short of the elbow).
      EXPECT_LE(refined.bound, scratch.bound * 1.10)
          << "seed=" << seed << " perturb=" << perturb;
      // Warm starts near the elbow converge in far fewer evaluations than
      // the full exponential sweep.
      EXPECT_LE(refined.iterations, scratch.iterations + 2 * config.patience);
    }
  }
}

enum class Deployment { kInproc, kRpc };

class AlphaControllerTest : public ::testing::TestWithParam<Deployment> {
 protected:
  static constexpr std::uint32_t kServers = 10;
  static constexpr std::size_t kFiles = 16;
  static constexpr Bytes kFileSize = 32 * kKB;

  AlphaControllerTest() : cluster_(kServers, gbps(1.0)), pool_(1), tracker_(/*half_life=*/5.0) {
    if (!rpc()) {
      store_ = make_inproc_piece_store(cluster_, nullptr);
      layouts_ = make_inproc_layout_service(master_, nullptr);
      client_ = std::make_unique<SpClient>(cluster_, master_, pool_);
      return;
    }
    master_service_ = std::make_unique<rpc::MasterService>(bus_);
    for (std::uint32_t s = 0; s < kServers; ++s) {
      workers_.push_back(std::make_unique<rpc::CacheWorkerService>(
          bus_, rpc::kFirstWorkerNode + s, s, gbps(1.0)));
      worker_nodes_.push_back(workers_.back()->node_id());
    }
    node_ = std::make_unique<rpc::RpcNode>(bus_, rpc::kMonitorNode, "controller");
    node_->start();
    store_ = rpc::make_rpc_piece_store(bus_, *node_, worker_nodes_, std::chrono::seconds(1));
    layouts_ = rpc::make_rpc_layout_service(*node_, rpc::kMasterNode, std::chrono::seconds(1));
    rpc_client_ = std::make_unique<rpc::RpcSpClient>(bus_, rpc::kFirstClientNode,
                                                     rpc::kMasterNode, worker_nodes_);
  }

  bool rpc() const { return GetParam() == Deployment::kRpc; }
  Master& master() { return rpc() ? master_service_->master() : master_; }
  StableStore& stable() { return rpc() ? master_service_->stable() : stable_; }
  CacheServer& server(std::uint32_t s) {
    return rpc() ? workers_[s]->store() : cluster_.server(s);
  }
  SpClient& client() { return rpc() ? rpc_client_->engine() : *client_; }

  AlphaController controller(const AlphaControllerConfig& config, double initial_alpha,
                             std::uint64_t placement_seed) {
    return AlphaController(*layouts_, *store_, std::vector<Bandwidth>(kServers, gbps(1.0)),
                           tracker_, config, initial_alpha, placement_seed);
  }

  // Lay every file out on `k` servers with pattern bytes, checkpointed.
  void populate(std::size_t k) {
    Rng place(42);
    sizes_.assign(kFiles, kFileSize);
    for (FileId f = 0; f < kFiles; ++f) {
      const auto sampled = place.sample_without_replacement(kServers, k);
      std::vector<std::uint32_t> servers(sampled.begin(), sampled.end());
      client().write(f, pattern_bytes(kFileSize, f), servers);
      stable().checkpoint(f, pattern_bytes(kFileSize, f));
    }
  }

  void expect_all_bit_exact() {
    for (FileId f = 0; f < kFiles; ++f) {
      EXPECT_EQ(client().read(f).bytes, pattern_bytes(kFileSize, f)) << "file " << f;
    }
  }

  // A hard burst on `viral`, after a background trickle on every file
  // when `trickle` is set.
  Seconds burst(FileId viral, bool trickle) {
    Seconds now = 0.0;
    if (trickle) {
      for (FileId f = 0; f < kFiles; ++f) tracker_.record(f, now);
    }
    Rng rng(9);
    while (now < 10.0) {
      now += rng.exponential(1.0 / 50.0);
      tracker_.record(viral, now);
    }
    return now;
  }

  Cluster cluster_;
  Master master_;
  StableStore stable_;
  ThreadPool pool_;
  PopularityTracker tracker_;
  rpc::Bus bus_;
  std::unique_ptr<rpc::MasterService> master_service_;
  std::vector<std::unique_ptr<rpc::CacheWorkerService>> workers_;
  std::vector<rpc::NodeId> worker_nodes_;
  std::unique_ptr<rpc::RpcNode> node_;
  std::unique_ptr<PieceStore> store_;
  std::unique_ptr<LayoutService> layouts_;
  std::unique_ptr<SpClient> client_;
  std::unique_ptr<rpc::RpcSpClient> rpc_client_;
  std::vector<Bytes> sizes_;
};

TEST_P(AlphaControllerTest, MandatoryAlphaAtPlanEntry) {
  populate(2);
  Catalog catalog = make_uniform_catalog(kFiles, kFileSize, 1.05, 10.0);
  const OnlineAdjustConfig config;
  EXPECT_THROW(plan_online_adjust(catalog, *layouts_, kServers, 0.0, config),
               std::invalid_argument);
  EXPECT_THROW(plan_online_adjust(catalog, *layouts_, kServers, -1.0, config),
               std::invalid_argument);
  EXPECT_NO_THROW(plan_online_adjust(catalog, *layouts_, kServers, 0.5, config));
}

TEST_P(AlphaControllerTest, RejectsNonPositiveInitialAlpha) {
  AlphaControllerConfig config;
  EXPECT_THROW(controller(config, 0.0, 1), std::invalid_argument);
}

// Hysteresis: oscillating traffic that keeps the windowed eta above the
// trigger cannot adapt faster than the cooldown allows, and a re-run whose
// elbow did not move keeps alpha bit-identical (deadband).
TEST_P(AlphaControllerTest, HysteresisPreventsThrash) {
  populate(2);
  AlphaControllerConfig config;
  config.eta_trigger = 0.5;
  config.cooldown = 10.0;
  config.alpha_deadband = 0.2;

  obs::MetricsRegistry registry;
  AlphaController loop = controller(config, /*initial_alpha=*/0.8, 7);
  loop.attach_observability(&registry, nullptr);

  // Oscillating rates: the hot file alternates between 0 and 1 every
  // observation, keeping the tracker busy and the elbow roughly fixed.
  Seconds now = 0.0;
  std::vector<double> cumulative(kServers, 0.0);
  std::size_t adaptations = 0;
  std::size_t triggers = 0;
  double alpha_after_first = 0.0;
  for (int step = 0; step < 40; ++step) {
    const FileId hot = (step % 2 == 0) ? 0 : 1;
    for (int r = 0; r < 20; ++r) tracker_.record(hot, now + 0.01 * r);
    // Synthetic imbalanced window: one server takes nearly all the bytes.
    cumulative[step % 2] += 1000.0;
    for (std::size_t s = 2; s < kServers; ++s) cumulative[s] += 10.0;
    const auto outcome = loop.observe(cumulative, sizes_, now);
    triggers += outcome.triggered ? 1 : 0;
    adaptations += outcome.adapted ? 1 : 0;
    if (adaptations == 1 && alpha_after_first == 0.0) alpha_after_first = outcome.alpha_after;
    now += 0.5;
  }
  // 40 observations over 20 virtual seconds: the first call only baselines
  // the window; nearly every later one triggers...
  EXPECT_GE(triggers, 30u);
  // ...but the 10 s cooldown caps adaptation at twice (t=0.5 and t>=10.5).
  EXPECT_LE(adaptations, 3u);
  EXPECT_GE(adaptations, 1u);
  const auto snap = registry.snapshot();
  EXPECT_EQ(snap.counter_value(obs::names::kControllerAdaptations), adaptations);
  EXPECT_GT(snap.counter_value(obs::names::kControllerSkippedCooldown), 0u);
  expect_all_bit_exact();
}

// Deadband: two back-to-back forced adaptations on identical rates — the
// second re-run's elbow matches the first, so alpha must not move.
TEST_P(AlphaControllerTest, DeadbandKeepsAlphaStableOnUnchangedRates) {
  populate(2);
  AlphaControllerConfig config;
  config.cooldown = 0.0;
  obs::MetricsRegistry registry;
  AlphaController loop = controller(config, /*initial_alpha=*/0.9, 11);
  loop.attach_observability(&registry, nullptr);

  Seconds now = 0.0;
  Rng traffic(5);
  Catalog shape = make_uniform_catalog(kFiles, kFileSize, 1.1, 40.0);
  for (int i = 0; i < 800; ++i) {
    now += traffic.exponential(1.0 / shape.total_rate());
    tracker_.record(shape.sample_file(traffic), now);
  }
  const auto first = loop.adapt_now(sizes_, now);
  ASSERT_TRUE(first.adapted);
  const auto second = loop.adapt_now(sizes_, now + 0.1);
  EXPECT_EQ(second.alpha_after, first.alpha_after);
  const auto snap = registry.snapshot();
  EXPECT_GE(snap.counter_value(obs::names::kControllerSkippedDeadband), 1u);
  expect_all_bit_exact();
}

// End to end: a burst on a cold file raises its tracked rate; the next
// adaptation must split it (Eq. 1 target above its current partitions),
// and every file still reads back bit-exact.
TEST_P(AlphaControllerTest, BurstOnColdFileGetsSplit) {
  populate(1);  // every file starts unsplit
  AlphaControllerConfig config;
  config.cooldown = 0.0;
  config.adjust.max_ops_per_file = 8;
  obs::TraceRecorder trace;
  AlphaController loop = controller(config, /*initial_alpha=*/0.5, 3);
  loop.attach_observability(nullptr, &trace);

  constexpr FileId kViral = 13;
  const Seconds now = burst(kViral, /*trickle=*/true);
  const std::size_t before = master().peek(kViral)->partitions();
  const auto outcome = loop.adapt_now(sizes_, now);
  ASSERT_TRUE(outcome.adapted);
  EXPECT_GT(outcome.splits, 0u);
  const std::size_t after = master().peek(kViral)->partitions();
  EXPECT_GT(after, before);
  // One move per file: no byte crosses the network twice.
  EXPECT_LE(outcome.bytes_moved, kFiles * kFileSize);
  expect_all_bit_exact();

  // The adaptation left its trace event.
  bool saw_adapted = false;
  for (const auto& e : trace.snapshot()) {
    if (e.kind == obs::TraceKind::kAlphaAdapted) saw_adapted = true;
  }
  EXPECT_TRUE(saw_adapted);
}

// A move that touches a dead server fails to stage and keeps the file's
// layout: the burst file is not split while its holder is down, nothing
// is counted for it, and the first adaptation after the holder is back
// (and repair has restored its piece) splits it. No other file has
// traffic, so the burst file is the only one with a target.
TEST_P(AlphaControllerTest, DeadHolderDefersTheSplitUntilRevived) {
  populate(1);
  AlphaControllerConfig config;
  config.cooldown = 0.0;
  AlphaController loop = controller(config, /*initial_alpha=*/0.5, 3);

  constexpr FileId kViral = 13;
  const Seconds now = burst(kViral, /*trickle=*/false);
  const auto before = master().peek(kViral);
  ASSERT_EQ(before->partitions(), 1u);
  const std::uint32_t holder = before->servers[0];
  server(holder).kill();

  const auto blocked = loop.adapt_now(sizes_, now);
  ASSERT_TRUE(blocked.adapted);
  const auto kept = master().peek(kViral);
  EXPECT_EQ(kept->servers, before->servers);
  EXPECT_EQ(kept->piece_sizes, before->piece_sizes);
  EXPECT_EQ(kept->epoch, before->epoch);
  EXPECT_EQ(blocked.splits, 0u);
  EXPECT_EQ(blocked.bytes_moved, 0u);
  for (std::uint32_t s = 0; s < kServers; ++s) EXPECT_EQ(server(s).staged_count(), 0u);

  server(holder).revive();
  RecoveryManager recovery(*store_, master(), stable(), kServers,
                           [this](std::uint32_t s) { return server(s).alive(); });
  for (FileId f = 0; f < kFiles; ++f) recovery.repair_file(f);

  const auto after = loop.adapt_now(sizes_, now + 0.1);
  EXPECT_GT(after.splits, 0u);
  EXPECT_GT(master().peek(kViral)->partitions(), 1u);
  expect_all_bit_exact();
}

INSTANTIATE_TEST_SUITE_P(Deployments, AlphaControllerTest,
                         ::testing::Values(Deployment::kInproc, Deployment::kRpc),
                         [](const ::testing::TestParamInfo<Deployment>& info) {
                           return info.param == Deployment::kInproc ? "Inproc" : "Rpc";
                         });

}  // namespace
}  // namespace spcache
