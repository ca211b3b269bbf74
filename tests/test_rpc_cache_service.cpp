// End-to-end tests of the RPC-backed cache service: the Section 6.1
// read/write flows running purely over messages.
#include "rpc/cache_service.h"

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/sp_cache.h"

namespace spcache::rpc {
namespace {

std::vector<std::uint8_t> random_bytes(std::size_t n, Rng& rng) {
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.uniform_index(256));
  return v;
}

// Sends `forged` and expects the typed kError reply naming the bad count,
// then proves the node still serves: a kPing right after must echo its
// token.
void expect_rejected_then_served(RpcNode& caller, NodeId to, MethodId method,
                                 std::vector<std::uint8_t> forged) {
  const Reply reply = caller.call_sync(to, method, std::move(forged));
  EXPECT_EQ(reply.status, Status::kError) << reply.error_text();
  EXPECT_NE(reply.error_text().find("element count"), std::string::npos) << reply.error_text();
  BufferWriter ping;
  ping.u64(7);
  const Reply next = caller.call_sync(to, kPing, ping.take());
  ASSERT_TRUE(next.ok()) << next.error_text();
  BufferReader r(next.payload);
  EXPECT_EQ(r.u64(), 7u);
}

class RpcClusterTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kWorkers = 8;

  RpcClusterTest() {
    master_ = std::make_unique<MasterService>(bus_);
    for (std::size_t s = 0; s < kWorkers; ++s) {
      workers_.push_back(std::make_unique<CacheWorkerService>(
          bus_, kFirstWorkerNode + static_cast<NodeId>(s), static_cast<std::uint32_t>(s),
          gbps(1.0)));
      worker_nodes_.push_back(workers_.back()->node_id());
    }
    client_ = std::make_unique<RpcSpClient>(bus_, kFirstClientNode, kMasterNode, worker_nodes_);
  }

  Bus bus_;
  std::unique_ptr<MasterService> master_;
  std::vector<std::unique_ptr<CacheWorkerService>> workers_;
  std::vector<NodeId> worker_nodes_;
  std::unique_ptr<RpcSpClient> client_;
  Rng rng_{5150};
};

TEST_F(RpcClusterTest, WriteReadRoundtrip) {
  const auto data = random_bytes(300 * kKB + 11, rng_);
  client_->write(1, data, {0, 2, 5});
  EXPECT_EQ(client_->read(1), data);
}

TEST_F(RpcClusterTest, SinglePieceFile) {
  const auto data = random_bytes(4096, rng_);
  client_->write(2, data, {7});
  EXPECT_EQ(client_->read(2), data);
}

TEST_F(RpcClusterTest, PiecesLandOnCorrectWorkers) {
  const auto data = random_bytes(90 * kKB, rng_);
  client_->write(3, data, {1, 3, 6});
  EXPECT_TRUE(workers_[1]->store().contains(BlockKey{3, 0}));
  EXPECT_TRUE(workers_[3]->store().contains(BlockKey{3, 1}));
  EXPECT_TRUE(workers_[6]->store().contains(BlockKey{3, 2}));
  EXPECT_FALSE(workers_[0]->store().contains(BlockKey{3, 0}));
}

TEST_F(RpcClusterTest, ReadUnknownFileFails) {
  EXPECT_THROW(client_->read(99), std::runtime_error);
}

TEST_F(RpcClusterTest, MissingPieceSurfacesAsError) {
  const auto data = random_bytes(60 * kKB, rng_);
  client_->write(4, data, {0, 1, 2});
  workers_[1]->store().erase(BlockKey{4, 1});
  EXPECT_THROW(client_->read(4), std::runtime_error);
}

TEST_F(RpcClusterTest, AccessCountsBumpViaLookup) {
  const auto data = random_bytes(10 * kKB, rng_);
  client_->write(5, data, {0, 4});
  EXPECT_EQ(client_->access_count(5), 0u);
  client_->read(5);
  client_->read(5);
  // Cache-served reads tally locally; the popularity signal reaches the
  // master once the batched kReportAccess flushes (here: explicitly).
  client_->flush_access_reports();
  EXPECT_EQ(client_->access_count(5), 2u);
}

TEST_F(RpcClusterTest, OverwriteUpdatesLayout) {
  const auto v1 = random_bytes(20 * kKB, rng_);
  const auto v2 = random_bytes(40 * kKB, rng_);
  client_->write(6, v1, {0, 1});
  client_->write(6, v2, {2, 3, 4});
  EXPECT_EQ(client_->read(6), v2);
}

TEST_F(RpcClusterTest, ManyClientsConcurrently) {
  // Several RPC clients hammer the same master/workers from sibling
  // threads; every file must come back bit-exact.
  constexpr std::size_t kClients = 4;
  constexpr std::size_t kFilesPerClient = 8;
  std::vector<std::vector<std::uint8_t>> blobs(kClients * kFilesPerClient);
  for (std::size_t i = 0; i < blobs.size(); ++i) blobs[i] = random_bytes(16 * kKB + i, rng_);

  ThreadPool pool(kClients);
  pool.parallel_for(kClients, [&](std::size_t c) {
    RpcSpClient client(bus_, kFirstClientNode + 1 + static_cast<NodeId>(c), kMasterNode,
                       worker_nodes_);
    for (std::size_t i = 0; i < kFilesPerClient; ++i) {
      const auto id = static_cast<FileId>(100 + c * kFilesPerClient + i);
      client.write(id, blobs[c * kFilesPerClient + i],
                   {static_cast<std::uint32_t>((c + i) % kWorkers),
                    static_cast<std::uint32_t>((c + i + 3) % kWorkers)});
    }
    for (std::size_t i = 0; i < kFilesPerClient; ++i) {
      const auto id = static_cast<FileId>(100 + c * kFilesPerClient + i);
      ASSERT_EQ(client.read(id), blobs[c * kFilesPerClient + i]);
    }
  });
}


TEST_F(RpcClusterTest, EcClientRoundtripOverRpc) {
  RpcEcClient ec(bus_, kFirstClientNode + 50, kMasterNode, worker_nodes_, 4, 8);
  const auto data = random_bytes(200 * kKB + 3, rng_);
  std::vector<std::uint32_t> servers;
  for (std::uint32_t s = 0; s < 8; ++s) servers.push_back(s);
  ec.write(60, data, servers);
  Rng rng(60);
  for (int trial = 0; trial < 12; ++trial) {
    EXPECT_EQ(ec.read(60, rng), data);
  }
}

TEST_F(RpcClusterTest, EcClientSurvivesOneLostShard) {
  RpcEcClient ec(bus_, kFirstClientNode + 51, kMasterNode, worker_nodes_, 4, 8);
  const auto data = random_bytes(80 * kKB, rng_);
  std::vector<std::uint32_t> servers;
  for (std::uint32_t s = 0; s < 8; ++s) servers.push_back(s);
  ec.write(61, data, servers);
  // Drop one shard: the k+1 late-binding hedge must still decode whenever
  // the lost shard is in the fetched set; other draws avoid it entirely.
  workers_[2]->store().erase(BlockKey{61, 2});
  Rng rng(61);
  for (int trial = 0; trial < 12; ++trial) {
    EXPECT_EQ(ec.read(61, rng), data);
  }
}

TEST_F(RpcClusterTest, EcClientValidatesGeometry) {
  RpcEcClient ec(bus_, kFirstClientNode + 52, kMasterNode, worker_nodes_, 4, 8);
  const auto data = random_bytes(10 * kKB, rng_);
  EXPECT_THROW(ec.write(62, data, {0, 1, 2}), std::invalid_argument);
}

TEST_F(RpcClusterTest, SpCachePlacementOverRpc) {
  // The full Section 6.1 flow: Algorithm 1 placement, RPC writes, RPC reads.
  const auto cat = make_uniform_catalog(20, 64 * kKB, 1.05, 10.0);
  SpCacheScheme sp;
  Rng rng(7);
  sp.place(cat, std::vector<Bandwidth>(kWorkers, gbps(1.0)), rng);
  std::vector<std::vector<std::uint8_t>> originals(20);
  for (FileId f = 0; f < 20; ++f) {
    originals[f] = random_bytes(64 * kKB, rng_);
    client_->write(f, originals[f], sp.placement(f).servers);
  }
  for (FileId f = 0; f < 20; ++f) EXPECT_EQ(client_->read(f), originals[f]);
}

// Forged envelopes: each decoder that sizes a list from a wire-supplied
// count must reject a count the payload cannot hold before allocating for
// it (a kGetBlockMulti count of 2^32-1 once sized a 16 GiB arena spill).
// They go through the real RpcNode dispatch over InprocTransport.
class ForgedCountTest : public RpcClusterTest {
 protected:
  ForgedCountTest() { forger_.start(); }
  RpcNode forger_{bus_, kFirstClientNode + 60, "forger"};
};

TEST_F(ForgedCountTest, LayoutPieceCountIsBounded) {
  BufferWriter w;
  w.u32(70);           // file
  w.u64(1024);         // size
  w.u32(0);            // crc
  w.u64(1);            // epoch
  w.u32(0xFFFFFFFFu);  // piece count, with no pieces behind it
  expect_rejected_then_served(forger_, kMasterNode, kRegisterFile, w.take());
}

TEST_F(ForgedCountTest, MultiGetPieceCountIsBounded) {
  BufferWriter w;
  w.u32(71);           // file
  w.u64(1);            // epoch
  w.u32(0xFFFFFFFFu);  // piece count
  w.u32(0);            // one piece index
  expect_rejected_then_served(forger_, worker_nodes_[0], kGetBlockMulti, w.take());
}

TEST_F(ForgedCountTest, ReportAccessCountIsBounded) {
  BufferWriter w;
  w.u32(0xFFFFFFFFu);  // (file, delta) pair count
  w.u32(72);
  w.u64(1);
  expect_rejected_then_served(forger_, kMasterNode, kReportAccess, w.take());
}

TEST_F(ForgedCountTest, LookupBatchCountIsBounded) {
  BufferWriter w;
  w.u32(0xFFFFFFFFu);  // file id count
  w.u32(73);
  expect_rejected_then_served(forger_, kMasterNode, kLookupBatch, w.take());
}

}  // namespace
}  // namespace spcache::rpc
