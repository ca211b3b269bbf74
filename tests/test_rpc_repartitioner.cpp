// Delta repartition tests: the full Fig. 9b flow over messages, and the
// one per-file algorithm (delta_repartition_file) checked in both
// deployments.
#include "rpc/repartitioner_service.h"

#include <gtest/gtest.h>

#include "cluster/client.h"
#include "core/sp_cache.h"

namespace spcache::rpc {
namespace {

std::vector<std::uint8_t> random_bytes(std::size_t n, Rng& rng) {
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.uniform_index(256));
  return v;
}

class RpcRepartitionTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kWorkers = 10;
  static constexpr std::size_t kFiles = 25;
  static constexpr Bytes kFileSize = 120 * kKB;

  RpcRepartitionTest() {
    master_ = std::make_unique<MasterService>(bus_);
    for (std::size_t s = 0; s < kWorkers; ++s) {
      workers_.push_back(std::make_unique<CacheWorkerService>(
          bus_, kFirstWorkerNode + static_cast<NodeId>(s), static_cast<std::uint32_t>(s),
          gbps(1.0)));
      worker_nodes_.push_back(workers_.back()->node_id());
    }
    for (std::size_t s = 0; s < kWorkers; ++s) {
      repartitioners_.push_back(std::make_unique<RepartitionerService>(
          bus_, kFirstRepartitionerNode + static_cast<NodeId>(s),
          static_cast<std::uint32_t>(s), kMasterNode, worker_nodes_));
      repartitioner_nodes_.push_back(repartitioners_.back()->node_id());
    }
    client_ = std::make_unique<RpcSpClient>(bus_, kFirstClientNode, kMasterNode, worker_nodes_);
    coordinator_ = std::make_unique<RpcNode>(bus_, kFirstClientNode + 1, "coordinator");
    coordinator_->start();
  }

  // Populate via SP-Cache placement; returns originals + layout.
  void populate() {
    catalog_ = make_uniform_catalog(kFiles, kFileSize, 1.05, 10.0);
    SpCacheScheme sp;
    Rng rng(11);
    sp.place(catalog_, std::vector<Bandwidth>(kWorkers, gbps(1.0)), rng);
    old_k_ = sp.partition_counts();
    for (FileId f = 0; f < kFiles; ++f) {
      originals_.push_back(random_bytes(kFileSize, rng_));
      client_->write(f, originals_.back(), sp.placement(f).servers);
      old_servers_.push_back(sp.placement(f).servers);
    }
  }

  Bus bus_;
  std::unique_ptr<MasterService> master_;
  std::vector<std::unique_ptr<CacheWorkerService>> workers_;
  std::vector<NodeId> worker_nodes_;
  std::vector<std::unique_ptr<RepartitionerService>> repartitioners_;
  std::vector<NodeId> repartitioner_nodes_;
  std::unique_ptr<RpcSpClient> client_;
  std::unique_ptr<RpcNode> coordinator_;
  Rng rng_{12};
  Catalog catalog_;
  std::vector<std::size_t> old_k_;
  std::vector<std::vector<std::uint32_t>> old_servers_;
  std::vector<std::vector<std::uint8_t>> originals_;
};

TEST_F(RpcRepartitionTest, EmptyPlanIsNoOp) {
  populate();
  RepartitionPlan plan;
  plan.new_k = old_k_;
  const auto stats = rpc_execute_delta_repartition(*coordinator_, plan, repartitioner_nodes_);
  EXPECT_EQ(stats.files_touched, 0u);
  EXPECT_EQ(stats.bytes_moved, 0u);
}

// --- Delta flow (kDeltaRepartitionFile: kGetRange + kStagePiece relay) ---

TEST_F(RpcRepartitionTest, DeltaRepartitionPreservesEveryFile) {
  populate();
  catalog_.shuffle_popularities(rng_);
  const auto plan = plan_repartition_with_alpha(
      catalog_, kWorkers, 6.0 / catalog_.max_load(), old_k_, old_servers_, rng_);
  ASSERT_GT(plan.changed_files.size(), 0u);

  std::vector<std::uint64_t> epoch_before(kFiles);
  for (FileId f = 0; f < kFiles; ++f) {
    epoch_before[f] = master_->master().peek(f)->epoch;
  }

  const auto stats = rpc_execute_delta_repartition(*coordinator_, plan, repartitioner_nodes_);
  EXPECT_EQ(stats.files_touched, plan.changed_files.size());
  EXPECT_GT(stats.bytes_moved, 0u);

  Bytes changed_bytes = 0;
  for (const FileId f : plan.changed_files) changed_bytes += originals_[f].size();
  // Every byte of every changed file is moved once or staged in place.
  EXPECT_EQ(stats.bytes_moved + stats.bytes_saved, changed_bytes);

  for (FileId f = 0; f < kFiles; ++f) {
    EXPECT_EQ(client_->read(f), originals_[f]) << "file " << f;
  }
  for (std::size_t j = 0; j < plan.changed_files.size(); ++j) {
    const FileId f = plan.changed_files[j];
    const auto meta = master_->master().peek(f);
    ASSERT_TRUE(meta.has_value());
    EXPECT_EQ(meta->servers, plan.new_servers[j]);
    EXPECT_GT(meta->epoch, epoch_before[f]) << "file " << f;
    for (std::size_t i = 0; i < meta->servers.size(); ++i) {
      EXPECT_TRUE(workers_[meta->servers[i]]->store().contains(
          BlockKey{f, static_cast<PieceIndex>(i)}));
    }
  }
  // Nothing left in any staging area.
  for (const auto& w : workers_) EXPECT_EQ(w->store().staged_count(), 0u);
}

TEST_F(RpcRepartitionTest, DeltaReusedPlacementShipsOnlyBoundaryRanges) {
  populate();
  // Grow file 0 from k to k+1 pieces while keeping every old server in
  // place: new piece i lives where old piece i already does, so only the
  // bytes that slide across the shifted boundaries change server. The
  // delta flow must stage the overlap in place (zero wire payload) and
  // ship strictly less than the file.
  const FileId f = 0;
  RepartitionPlan plan;
  plan.new_k = old_k_;
  plan.new_k[f] = old_k_[f] + 1;
  plan.changed_files = {f};
  auto grown = old_servers_[f];
  for (std::uint32_t s = 0; s < kWorkers; ++s) {
    if (std::find(grown.begin(), grown.end(), s) == grown.end()) {
      grown.push_back(s);
      break;
    }
  }
  ASSERT_EQ(grown.size(), old_k_[f] + 1);
  plan.new_servers = {grown};
  plan.executor = {old_servers_[f][0]};

  const auto stats = rpc_execute_delta_repartition(*coordinator_, plan, repartitioner_nodes_);
  EXPECT_EQ(stats.files_touched, 1u);
  EXPECT_EQ(stats.bytes_moved + stats.bytes_saved, kFileSize);
  EXPECT_GT(stats.bytes_saved, 0u);
  EXPECT_LT(stats.bytes_moved, kFileSize);
  EXPECT_EQ(client_->read(f), originals_[f]);
}

TEST_F(RpcRepartitionTest, ForgedRequestsAreRejected) {
  populate();
  const auto meta = master_->master().peek(0);
  const auto send = [&](std::vector<std::uint32_t> servers) {
    BufferWriter w;
    w.u32(0);
    w.u32(static_cast<std::uint32_t>(servers.size()));
    for (const auto s : servers) w.u32(s);
    return coordinator_->call_sync(repartitioner_nodes_[0], kDeltaRepartitionFile, w.take());
  };
  EXPECT_FALSE(send({}).ok());  // no new piece: nothing to cut the file into
  EXPECT_FALSE(send({0, static_cast<std::uint32_t>(kWorkers)}).ok());
  EXPECT_EQ(master_->master().peek(0)->servers, meta->servers);
  EXPECT_EQ(master_->master().peek(0)->epoch, meta->epoch);
  // The executor still serves a well-formed request.
  const auto reply = send({0, 1});
  ASSERT_TRUE(reply.ok()) << reply.error_text();
  EXPECT_EQ(client_->read(0), originals_[0]);
}

// --- One algorithm, two deployments ---------------------------------------
//
// delta_repartition_file driven by execute_delta_repartition over the
// threaded cluster, or by rpc_execute_delta_repartition over
// RepartitionerServices on an InprocTransport bus.
enum class Deployment { kInproc, kRpc };

class DeltaRepartitionTest : public ::testing::TestWithParam<Deployment> {
 protected:
  static constexpr std::uint32_t kServers = 8;
  static constexpr std::size_t kFiles = 12;
  static constexpr Bytes kFileSize = 96 * kKB;

  DeltaRepartitionTest() {
    if (GetParam() != Deployment::kRpc) return;
    master_service_ = std::make_unique<MasterService>(bus_);
    for (std::uint32_t s = 0; s < kServers; ++s) {
      workers_.push_back(
          std::make_unique<CacheWorkerService>(bus_, kFirstWorkerNode + s, s, gbps(1.0)));
      worker_nodes_.push_back(workers_.back()->node_id());
    }
    for (std::uint32_t s = 0; s < kServers; ++s) {
      repartitioners_.push_back(std::make_unique<RepartitionerService>(
          bus_, kFirstRepartitionerNode + s, s, kMasterNode, worker_nodes_));
      repartitioner_nodes_.push_back(repartitioners_.back()->node_id());
    }
    rpc_client_ = std::make_unique<RpcSpClient>(bus_, kFirstClientNode, kMasterNode, worker_nodes_);
    coordinator_ = std::make_unique<RpcNode>(bus_, kFirstClientNode + 1, "coordinator");
    coordinator_->start();
  }

  bool rpc() const { return GetParam() == Deployment::kRpc; }
  Master& master() { return rpc() ? master_service_->master() : master_; }
  CacheServer& server(std::uint32_t s) { return rpc() ? workers_[s]->store() : cluster_.server(s); }
  SpClient& client() { return rpc() ? rpc_client_->engine() : inproc_client_; }

  RepartitionStats execute(const RepartitionPlan& plan) {
    return rpc() ? rpc_execute_delta_repartition(*coordinator_, plan, repartitioner_nodes_)
                 : execute_delta_repartition(cluster_, master_, plan, pool_);
  }

  void populate() {
    catalog_ = make_uniform_catalog(kFiles, kFileSize, 1.05, 10.0);
    SpCacheScheme sp;
    sp.place(catalog_, cluster_.bandwidths(), rng_);
    old_k_ = sp.partition_counts();
    for (FileId f = 0; f < kFiles; ++f) {
      originals_.push_back(random_bytes(kFileSize, rng_));
      client().write(f, originals_.back(), sp.placement(f).servers);
      old_servers_.push_back(sp.placement(f).servers);
    }
  }

  // A one-more-piece layout for `f`: its servers plus the first server in
  // `candidates` it does not use yet.
  std::vector<std::uint32_t> grown(FileId f, std::initializer_list<std::uint32_t> candidates) {
    auto servers = old_servers_[f];
    for (const std::uint32_t s : candidates) {
      if (std::find(servers.begin(), servers.end(), s) == servers.end()) {
        servers.push_back(s);
        break;
      }
    }
    return servers;
  }

  Cluster cluster_{kServers, gbps(1.0)};
  Master master_;
  ThreadPool pool_{4};
  SpClient inproc_client_{cluster_, master_, pool_};
  Bus bus_;
  std::unique_ptr<MasterService> master_service_;
  std::vector<std::unique_ptr<CacheWorkerService>> workers_;
  std::vector<NodeId> worker_nodes_;
  std::vector<std::unique_ptr<RepartitionerService>> repartitioners_;
  std::vector<NodeId> repartitioner_nodes_;
  std::unique_ptr<RpcSpClient> rpc_client_;
  std::unique_ptr<RpcNode> coordinator_;
  Rng rng_{41};
  Catalog catalog_;
  std::vector<std::size_t> old_k_;
  std::vector<std::vector<std::uint32_t>> old_servers_;
  std::vector<std::vector<std::uint8_t>> originals_;
};

TEST_P(DeltaRepartitionTest, LeavesAccessCountsUntouched) {
  populate();
  for (FileId f = 0; f < kFiles; ++f) EXPECT_EQ(client().read(f).bytes, originals_[f]);
  client().flush_access_reports();
  catalog_.shuffle_popularities(rng_);
  const auto plan = plan_repartition_with_alpha(
      catalog_, kServers, 6.0 / catalog_.max_load(), old_k_, old_servers_, rng_);
  ASSERT_GT(plan.changed_files.size(), 0u);
  std::vector<std::uint64_t> before(kFiles);
  for (FileId f = 0; f < kFiles; ++f) before[f] = master().access_count(f);

  const auto stats = execute(plan);
  EXPECT_EQ(stats.files_touched, plan.changed_files.size());
  // Moving a file is not reading it: the counts feed the next Algorithm 1
  // epoch and must stay the readers' alone.
  for (const FileId f : plan.changed_files) {
    EXPECT_EQ(master().access_count(f), before[f]) << "file " << f;
  }
  for (FileId f = 0; f < kFiles; ++f) EXPECT_EQ(client().read(f).bytes, originals_[f]);
}

TEST_P(DeltaRepartitionTest, FailedFileKeepsItsLayoutAndIsNotCounted) {
  populate();
  // File 0 grows onto a dead server, file 1 onto a live one.
  const std::uint32_t dead = kServers - 1;
  RepartitionPlan plan;
  plan.new_k = old_k_;
  for (const FileId f : {FileId{0}, FileId{1}}) {
    ASSERT_EQ(std::count(old_servers_[f].begin(), old_servers_[f].end(), dead), 0)
        << "the fixture's placement put file " << f << " on the server this test kills";
    plan.changed_files.push_back(f);
    plan.new_servers.push_back(f == 0 ? grown(f, {dead}) : grown(f, {0, 1, 2, 3, 4, 5, 6}));
    plan.new_k[f] = plan.new_servers.back().size();
    plan.executor.push_back(old_servers_[f][0]);
  }
  ASSERT_EQ(plan.new_servers[0].back(), dead);
  const auto meta0 = master().peek(0);
  server(dead).kill();

  const auto stats = execute(plan);  // a skipped file is no executor failure
  EXPECT_EQ(stats.files_touched, 1u);
  EXPECT_EQ(stats.bytes_moved + stats.bytes_saved, kFileSize);  // file 1 alone
  const auto after0 = master().peek(0);
  EXPECT_EQ(after0->servers, meta0->servers);
  EXPECT_EQ(after0->epoch, meta0->epoch);
  EXPECT_EQ(master().peek(1)->servers, plan.new_servers[1]);
  for (std::uint32_t s = 0; s < kServers; ++s) EXPECT_EQ(server(s).staged_count(), 0u);
  EXPECT_EQ(client().read(0).bytes, originals_[0]);
  EXPECT_EQ(client().read(1).bytes, originals_[1]);
  server(dead).revive();
}

INSTANTIATE_TEST_SUITE_P(Deployments, DeltaRepartitionTest,
                         ::testing::Values(Deployment::kInproc, Deployment::kRpc),
                         [](const ::testing::TestParamInfo<Deployment>& info) {
                           return info.param == Deployment::kInproc ? "Inproc" : "Rpc";
                         });

}  // namespace
}  // namespace spcache::rpc
