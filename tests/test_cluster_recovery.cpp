// Stable-store checkpointing and failure recovery tests (Section 8
// "Fault Tolerance" extension).
//
// The RecoveryManager is the one repair coordinator of both deployments,
// so every repair case runs twice: over the threaded cluster (its Cluster&
// constructor), and over the RPC PieceStore against CacheWorkerServices
// on an InprocTransport bus, with the MasterService's Master and stable
// tier — the configuration spcache_masterd runs.
#include "cluster/stable_store.h"

#include <gtest/gtest.h>

#include "cluster/client.h"
#include "core/sp_cache.h"
#include "fault/retry.h"
#include "rpc/cache_service.h"

namespace spcache {
namespace {

std::vector<std::uint8_t> random_bytes(std::size_t n, Rng& rng) {
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.uniform_index(256));
  return v;
}

TEST(StableStore, Roundtrip) {
  Rng rng(1);
  const auto data = random_bytes(123456, rng);
  StableStore store;
  EXPECT_FALSE(store.contains(9));
  store.checkpoint(9, data);
  EXPECT_TRUE(store.contains(9));
  EXPECT_EQ(*store.restore(9), data);
  EXPECT_EQ(store.file_count(), 1u);
  EXPECT_EQ(store.bytes_stored(), data.size());
  EXPECT_FALSE(store.restore(10).has_value());
}

enum class Deployment { kInproc, kRpc };

class RecoveryTest : public ::testing::TestWithParam<Deployment> {
 protected:
  bool rpc() const { return GetParam() == Deployment::kRpc; }

  // Bring up `n_servers` cache servers in this test's deployment.
  void start(std::uint32_t n_servers) {
    cluster_ = std::make_unique<Cluster>(n_servers, gbps(1.0));
    if (!rpc()) return;
    master_service_ = std::make_unique<rpc::MasterService>(bus_);
    for (std::uint32_t s = 0; s < n_servers; ++s) {
      workers_.push_back(std::make_unique<rpc::CacheWorkerService>(
          bus_, rpc::kFirstWorkerNode + s, s, gbps(1.0)));
      worker_nodes_.push_back(workers_.back()->node_id());
    }
    repair_node_ = std::make_unique<rpc::RpcNode>(bus_, rpc::kMonitorNode, "repair");
    repair_node_->start();
    repair_store_ = rpc::make_rpc_piece_store(bus_, *repair_node_, worker_nodes_,
                                              std::chrono::milliseconds(1000));
  }

  Master& master() { return rpc() ? master_service_->master() : master_; }
  // The deployment's stable tier: the one masterd hosts over RPC.
  StableStore& stable() { return rpc() ? master_service_->stable() : stable_; }
  CacheServer& server(std::uint32_t s) {
    return rpc() ? workers_[s]->store() : cluster_->server(s);
  }

  // A RecoveryManager over `stable` (the deployment's own tier by default).
  RecoveryManager& recovery(StableStore* stable = nullptr) {
    StableStore& tier = stable ? *stable : this->stable();
    if (rpc()) {
      managers_.push_back(std::make_unique<RecoveryManager>(
          *repair_store_, master(), tier, workers_.size(),
          [this](std::uint32_t s) { return server(s).alive(); }));
    } else {
      managers_.push_back(std::make_unique<RecoveryManager>(*cluster_, master_, tier));
    }
    return *managers_.back();
  }

  // A new client with a cold layout cache. The in-process one fails over
  // to `stable` (the RPC seam has no read-side stable tier).
  SpClient& client(fault::RetryPolicy retry = {}, StableStore* stable = nullptr) {
    if (!rpc()) {
      inproc_clients_.push_back(
          std::make_unique<SpClient>(*cluster_, master_, pool_, stable, retry));
      return *inproc_clients_.back();
    }
    rpc_clients_.push_back(
        std::make_unique<rpc::RpcSpClient>(bus_, next_client_node(), rpc::kMasterNode,
                                           worker_nodes_, retry));
    return rpc_clients_.back()->engine();
  }

  // A new RS(k, n) EC-Cache client.
  EcClient& ec_client(std::size_t k, std::size_t n) {
    if (!rpc()) {
      inproc_ec_clients_.push_back(std::make_unique<EcClient>(*cluster_, master_, pool_, k, n));
      return *inproc_ec_clients_.back();
    }
    rpc_ec_clients_.push_back(std::make_unique<rpc::RpcEcClient>(
        bus_, next_client_node(), rpc::kMasterNode, worker_nodes_, k, n));
    return rpc_ec_clients_.back()->engine();
  }

  rpc::NodeId next_client_node() {
    return rpc::kFirstClientNode +
           static_cast<rpc::NodeId>(rpc_clients_.size() + rpc_ec_clients_.size());
  }

  void populate(std::size_t n_files, Bytes size) {
    catalog_ = make_uniform_catalog(n_files, size, 1.05, 10.0);
    SpCacheScheme sp;
    sp.place(catalog_, cluster_->bandwidths(), rng_);
    SpClient& writer = client();
    originals_.resize(n_files);
    for (FileId f = 0; f < n_files; ++f) {
      originals_[f] = random_bytes(size, rng_);
      writer.write(f, originals_[f], sp.placement(f).servers);
      stable().checkpoint(f, originals_[f]);  // Alluxio-style checkpoint
    }
  }

  std::unique_ptr<Cluster> cluster_;
  Master master_;
  ThreadPool pool_{4};
  StableStore stable_;
  rpc::Bus bus_;
  std::unique_ptr<rpc::MasterService> master_service_;
  std::vector<std::unique_ptr<rpc::CacheWorkerService>> workers_;
  std::vector<rpc::NodeId> worker_nodes_;
  std::unique_ptr<rpc::RpcNode> repair_node_;
  std::unique_ptr<PieceStore> repair_store_;
  std::vector<std::unique_ptr<RecoveryManager>> managers_;
  std::vector<std::unique_ptr<SpClient>> inproc_clients_;
  std::vector<std::unique_ptr<rpc::RpcSpClient>> rpc_clients_;
  std::vector<std::unique_ptr<EcClient>> inproc_ec_clients_;
  std::vector<std::unique_ptr<rpc::RpcEcClient>> rpc_ec_clients_;
  Rng rng_{77};
  Catalog catalog_;
  std::vector<std::vector<std::uint8_t>> originals_;
};

TEST_P(RecoveryTest, RepairSingleLostPiece) {
  start(30);
  populate(10, 200 * kKB);
  RecoveryManager& rec = recovery();
  const auto meta = master().peek(0);
  ASSERT_GE(meta->partitions(), 2u);
  // Lose one piece.
  server(meta->servers[1]).erase(BlockKey{0, 1});
  SpClient& reader = client();
  EXPECT_THROW(reader.read(0), std::runtime_error);

  const auto stats = rec.repair_file(0);
  EXPECT_EQ(stats.pieces_recovered, 1u);
  EXPECT_EQ(stats.bytes_restored, 200 * kKB);
  EXPECT_GT(stats.modelled_time, 0.0);
  EXPECT_EQ(reader.read(0).bytes, originals_[0]);
}

TEST_P(RecoveryTest, RepairIsIdempotent) {
  start(30);
  populate(5, 100 * kKB);
  const auto stats = recovery().repair_file(2);  // nothing missing
  EXPECT_EQ(stats.pieces_recovered, 0u);
  EXPECT_EQ(stats.bytes_restored, 0u);
}

TEST_P(RecoveryTest, RepairUncheckpointedFileThrows) {
  start(30);
  populate(3, 100 * kKB);
  StableStore empty;
  RecoveryManager& rec = recovery(&empty);
  const auto meta = master().peek(0);
  server(meta->servers[0]).erase(BlockKey{0, 0});
  EXPECT_THROW(rec.repair_file(0), std::runtime_error);
}

TEST_P(RecoveryTest, WholeServerLossRecovered) {
  start(30);
  populate(20, 150 * kKB);

  // Crash server 5: all its blocks vanish.
  const std::uint32_t failed = 5;
  server(failed).clear();
  const auto stats = recovery().repair_after_server_loss(failed);
  EXPECT_GT(stats.pieces_recovered, 0u);

  // Every file is readable and bit-exact; nothing lives on the dead server.
  SpClient& reader = client();
  for (FileId f = 0; f < 20; ++f) {
    EXPECT_EQ(reader.read(f).bytes, originals_[f]) << "file " << f;
    const auto meta = master().peek(f);
    for (std::uint32_t s : meta->servers) EXPECT_NE(s, failed);
  }
  EXPECT_EQ(server(failed).blocks_stored(), 0u);
}

TEST_P(RecoveryTest, ServerLossReplacementsSpread) {
  start(30);
  populate(30, 100 * kKB);
  server(0).clear();
  recovery().repair_after_server_loss(0);
  // The re-placed pieces should not all pile onto one replacement server.
  std::vector<std::size_t> pieces(cluster_->size(), 0);
  for (FileId f = 0; f < 30; ++f) {
    const auto meta = master().peek(f);
    for (std::uint32_t s : meta->servers) ++pieces[s];
  }
  std::size_t mx = 0, total = 0;
  for (std::size_t s = 1; s < cluster_->size(); ++s) {
    mx = std::max(mx, pieces[s]);
    total += pieces[s];
  }
  const double avg = static_cast<double>(total) / static_cast<double>(cluster_->size() - 1);
  // Discreteness dominates with ~2 pieces/server; allow a small absolute
  // slack over the average rather than a tight multiplicative bound.
  EXPECT_LE(static_cast<double>(mx), avg + 4.0);
}

TEST_P(RecoveryTest, ServerLossRepairIsIdempotent) {
  start(30);
  populate(20, 150 * kKB);
  const std::uint32_t failed = 5;
  server(failed).clear();
  RecoveryManager& rec = recovery();
  ASSERT_GT(rec.repair_after_server_loss(failed).pieces_recovered, 0u);
  std::vector<FileMeta> repaired;
  for (FileId f = 0; f < 20; ++f) repaired.push_back(*master().peek(f));

  // A second sweep (a racing heartbeat round) finds nothing left to do.
  const auto again = rec.repair_after_server_loss(failed);
  EXPECT_EQ(again.pieces_recovered, 0u);
  EXPECT_EQ(again.files_skipped, 0u);
  EXPECT_EQ(again.bytes_restored, 0u);
  SpClient& reader = client();
  for (FileId f = 0; f < 20; ++f) {
    const auto meta = master().peek(f);
    EXPECT_EQ(meta->servers, repaired[f].servers) << "file " << f;
    EXPECT_EQ(meta->epoch, repaired[f].epoch) << "file " << f;
    EXPECT_EQ(reader.read(f).bytes, originals_[f]) << "file " << f;
  }
}

TEST_P(RecoveryTest, StaleStableCopyIsSkipped) {
  start(30);
  populate(1, 400 * kKB);
  // The stable tier holds an older, shorter checkpoint of the file: its
  // slices are not the cached file's pieces, and cutting the 400 KiB
  // layout out of 16 KiB would read far past the copy.
  stable().checkpoint(0, std::span(originals_[0]).first(16 * kKB));
  const auto before = master().peek(0);
  const std::uint32_t victim = before->servers[0];
  server(victim).kill();

  const auto stats = recovery().repair_after_server_loss(victim);
  EXPECT_EQ(stats.files_skipped, 1u);
  EXPECT_EQ(stats.pieces_recovered, 0u);
  EXPECT_EQ(stats.bytes_restored, 0u);
  const auto after = master().peek(0);
  EXPECT_EQ(after->servers, before->servers);
  EXPECT_EQ(after->piece_sizes, before->piece_sizes);
  EXPECT_EQ(after->epoch, before->epoch);
  server(victim).revive();
}

TEST_P(RecoveryTest, TwoServerClusterCoLocatesTheLostPiece) {
  // Every live server already holds the file: the lost piece moves onto
  // the survivor rather than staying unrepaired.
  start(2);
  const auto data = random_bytes(64 * kKB, rng_);
  client().write(0, data, {0, 1});
  stable().checkpoint(0, data);
  const auto before = master().peek(0);
  server(1).kill();

  const auto stats = recovery().repair_after_server_loss(1);
  EXPECT_EQ(stats.pieces_recovered, 1u);
  EXPECT_EQ(stats.files_skipped, 0u);
  const auto after = master().peek(0);
  EXPECT_EQ(after->servers, (std::vector<std::uint32_t>{0, 0}));
  EXPECT_EQ(after->epoch, before->epoch + 1);
  EXPECT_EQ(client().read(0).bytes, data);
  server(1).revive();
}

TEST_P(RecoveryTest, RecoveryTimeScalesWithBackingBandwidth) {
  start(30);
  populate(5, 500 * kKB);
  StableStore slow(mbps(100));
  StableStore fast(mbps(1000));
  for (FileId f = 0; f < 5; ++f) {
    slow.checkpoint(f, originals_[f]);
    fast.checkpoint(f, originals_[f]);
  }
  const auto meta = master().peek(1);
  server(meta->servers[0]).erase(BlockKey{1, 0});
  const auto s1 = recovery(&slow).repair_file(1);
  // Re-erase and repair with the fast store.
  server(meta->servers[0]).erase(BlockKey{1, 0});
  const auto s2 = recovery(&fast).repair_file(1);
  EXPECT_GT(s1.modelled_time, s2.modelled_time);
}

// --- Resident rot: a block whose bytes changed at rest after its put ------
// In-process, nothing scans a resident block on its own: the
// reader's pass over the bytes (the fused copy, the RS decode) and the
// repair's piece probe check them against the CRC stamped at put. Over RPC
// the worker's serve copy checks them. Either way a rotted piece must count
// as not delivered.

fault::RetryPolicy fast_retry() {
  fault::RetryPolicy policy;
  policy.piece_attempts = 2;
  policy.read_attempts = 3;
  policy.base_backoff = std::chrono::microseconds(50);
  policy.max_backoff = std::chrono::microseconds(500);
  return policy;
}

// Flip one byte of the resident block `key` in place; its stamped CRC
// stays. The store hands out const blocks, but every block was created
// non-const by its put.
void rot(CacheServer& server, const BlockKey& key) {
  const auto block = server.get_for_serve(key);
  ASSERT_NE(block, nullptr);
  auto& bytes = const_cast<Block&>(*block).bytes;
  bytes[bytes.size() / 3] ^= 0x20;
}

TEST_P(RecoveryTest, RottedPieceIsReadAroundAndRepaired) {
  start(30);
  populate(10, 200 * kKB);
  const auto meta = master().peek(0);
  ASSERT_GE(meta->partitions(), 2u);
  rot(server(meta->servers[1]), BlockKey{0, 1});

  SpClient& reader = client(fast_retry(), &stable());
  if (rpc()) {
    // The worker refuses to serve the rotted piece and the RPC seam has no
    // read-side stable tier: the read fails loudly, never with bad bytes.
    EXPECT_THROW(reader.read(0), std::runtime_error);
  } else {
    // The fused copy refuses the piece; the stable copy covers its range.
    const auto degraded = reader.read(0);
    EXPECT_EQ(degraded.bytes, originals_[0]);
    EXPECT_TRUE(degraded.degraded);
    EXPECT_EQ(degraded.degraded_pieces, 1u);
  }

  const auto stats = recovery().repair_file(0);
  EXPECT_EQ(stats.pieces_recovered, 1u);
  const auto healed = client(fast_retry()).read(0);
  EXPECT_EQ(healed.bytes, originals_[0]);
  EXPECT_FALSE(healed.degraded);
  EXPECT_EQ(recovery().repair_file(0).pieces_recovered, 0u);
}

TEST_P(RecoveryTest, EcReadDecodesAroundARottedShard) {
  constexpr std::size_t k = 4;
  constexpr std::size_t n = 6;
  start(n);
  const auto data = random_bytes(150 * kKB + 7, rng_);
  EcClient& ec = ec_client(k, n);
  ec.write(3, data, {0, 1, 2, 3, 4, 5});

  // Rot the first shard of the sample this read late-binds, one the
  // decode reads whenever every fetch arrives; the (k+1)th is the spare.
  Rng rng(2024);
  Rng probe = rng;
  const auto picks = probe.sample_without_replacement(n, k + 1);
  const auto shard = static_cast<std::uint32_t>(picks[0]);
  rot(server(master().peek(3)->servers[shard]), BlockKey{3, shard});

  EXPECT_EQ(ec.read(3, rng).bytes, data);
  // Every later sample decodes too, whether or not it holds the shard.
  for (int trial = 0; trial < 10; ++trial) EXPECT_EQ(ec.read(3, rng).bytes, data);
}

INSTANTIATE_TEST_SUITE_P(Deployments, RecoveryTest,
                         ::testing::Values(Deployment::kInproc, Deployment::kRpc),
                         [](const ::testing::TestParamInfo<Deployment>& info) {
                           return info.param == Deployment::kInproc ? "Inproc" : "Rpc";
                         });

}  // namespace
}  // namespace spcache
