// Online partition split/merge tests (Section 8 "Short-Term Popularity
// Variation" extension): plan_online_adjust's targets, and single splits
// and merges applied by the one mover, delta_repartition_file.
#include "cluster/online_adjust.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "cluster/client.h"
#include "cluster/repartition_exec.h"
#include "cluster/stable_store.h"
#include "workload/popularity_tracker.h"

namespace spcache {
namespace {

std::vector<std::uint8_t> pattern(std::size_t n, std::uint8_t seed) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::uint8_t>(seed + i * 13);
  return v;
}

class OnlineAdjustTest : public ::testing::Test {
 protected:
  void write_file(FileId id, Bytes size, const std::vector<std::uint32_t>& servers) {
    SpClient client(cluster_, master_, pool_);
    originals_[id] = pattern(size, static_cast<std::uint8_t>(id));
    client.write(id, originals_[id], servers);
  }

  void expect_intact(FileId id) {
    SpClient client(cluster_, master_, pool_);
    EXPECT_EQ(client.read(id).bytes, originals_[id]) << "file " << id;
  }

  // Halve piece `piece` of `id`, the second half onto `target`.
  std::optional<DeltaCutover> split(FileId id, std::size_t piece, std::uint32_t target) {
    auto meta = *master_.peek(id);
    const auto at = static_cast<std::ptrdiff_t>(piece) + 1;
    const Bytes half = meta.piece_sizes[piece] / 2;
    meta.piece_sizes.insert(meta.piece_sizes.begin() + at, meta.piece_sizes[piece] - half);
    meta.piece_sizes[piece] = half;
    meta.servers.insert(meta.servers.begin() + at, target);
    return delta_repartition_file(*store_, *layouts_, id, meta.piece_sizes, meta.servers);
  }

  // Fold piece `piece` + 1 of `id` into piece `piece`, on its server.
  std::optional<DeltaCutover> merge(FileId id, std::size_t piece) {
    auto meta = *master_.peek(id);
    const auto at = static_cast<std::ptrdiff_t>(piece) + 1;
    meta.piece_sizes[piece] += meta.piece_sizes[piece + 1];
    meta.piece_sizes.erase(meta.piece_sizes.begin() + at);
    meta.servers.erase(meta.servers.begin() + at);
    return delta_repartition_file(*store_, *layouts_, id, meta.piece_sizes, meta.servers);
  }

  Cluster cluster_{30, gbps(1.0)};
  Master master_;
  ThreadPool pool_{4};
  std::unique_ptr<PieceStore> store_ = make_inproc_piece_store(cluster_, nullptr);
  std::unique_ptr<LayoutService> layouts_ = make_inproc_layout_service(master_, nullptr);
  std::unordered_map<FileId, std::vector<std::uint8_t>> originals_;
};

TEST_F(OnlineAdjustTest, SplitPreservesContentAndShipsHalf) {
  write_file(1, 64 * kKB, {0, 1});
  const auto done = split(1, 0, 7);
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->old_partitions, 2u);
  EXPECT_EQ(done->plan.bytes_moved, 16 * kKB);  // half of piece 0 (32 KiB)
  const auto meta = master_.peek(1);
  ASSERT_EQ(meta->partitions(), 3u);
  EXPECT_EQ(meta->servers[1], 7u);  // new half right after the split piece
  expect_intact(1);
}

TEST_F(OnlineAdjustTest, SplitReindexesTrailingPieces) {
  write_file(2, 90 * kKB, {3, 4, 5});
  ASSERT_TRUE(split(2, 0, 9).has_value());
  const auto meta = master_.peek(2);
  ASSERT_EQ(meta->partitions(), 4u);
  EXPECT_EQ(meta->servers, (std::vector<std::uint32_t>{3, 9, 4, 5}));
  // Old pieces 1 and 2 now answer to indices 2 and 3.
  EXPECT_TRUE(cluster_.server(4).contains(BlockKey{2, 2}));
  EXPECT_TRUE(cluster_.server(5).contains(BlockKey{2, 3}));
  EXPECT_FALSE(cluster_.server(4).contains(BlockKey{2, 1}));
  expect_intact(2);
}

TEST_F(OnlineAdjustTest, MergePreservesContentAndMovesOnePiece) {
  write_file(3, 60 * kKB, {0, 1, 2});
  const auto before = master_.peek(3)->piece_sizes;
  const auto done = merge(3, 1);
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->plan.bytes_moved, before[2]);
  const auto meta = master_.peek(3);
  ASSERT_EQ(meta->partitions(), 2u);
  EXPECT_EQ(meta->servers, (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(meta->piece_sizes[1], before[1] + before[2]);
  EXPECT_FALSE(cluster_.server(2).contains(BlockKey{3, 2}));
  expect_intact(3);
}

TEST_F(OnlineAdjustTest, MergeMidListReindexes) {
  write_file(4, 100 * kKB, {0, 1, 2, 3});
  ASSERT_TRUE(merge(4, 0).has_value());  // pull piece 1 onto piece 0
  const auto meta = master_.peek(4);
  ASSERT_EQ(meta->partitions(), 3u);
  EXPECT_EQ(meta->servers, (std::vector<std::uint32_t>{0, 2, 3}));
  EXPECT_TRUE(cluster_.server(2).contains(BlockKey{4, 1}));
  EXPECT_TRUE(cluster_.server(3).contains(BlockKey{4, 2}));
  expect_intact(4);
}

TEST_F(OnlineAdjustTest, SplitThenMergeRoundtrip) {
  write_file(5, 48 * kKB, {10, 11});
  ASSERT_TRUE(split(5, 1, 12).has_value());
  ASSERT_TRUE(merge(5, 1).has_value());
  const auto meta = master_.peek(5);
  EXPECT_EQ(meta->partitions(), 2u);
  expect_intact(5);
}

// A split whose destination is dead fails to stage: the file keeps its
// layout and epoch, and nothing is left staged.
TEST_F(OnlineAdjustTest, MoveOntoDeadServerKeepsOldLayout) {
  write_file(6, 64 * kKB, {0, 1});
  const auto before = master_.peek(6);
  cluster_.kill(7);
  EXPECT_FALSE(split(6, 0, 7).has_value());
  const auto after = master_.peek(6);
  EXPECT_EQ(after->servers, before->servers);
  EXPECT_EQ(after->epoch, before->epoch);
  for (std::uint32_t s = 0; s < cluster_.size(); ++s) {
    EXPECT_EQ(cluster_.server(s).staged_count(), 0u);
  }
  cluster_.revive(7);
  expect_intact(6);
}

// A move fails only on a server it reads or writes. A tail merge leaves
// pieces 0..k-3 in place untouched, so it lands while piece 0's server is
// down; the new layout still names that server, and the loss repair
// restores the piece from stable storage.
TEST_F(OnlineAdjustTest, TailMergeLandsPastADeadUntouchedHolder) {
  write_file(7, 120 * kKB, {0, 1, 2, 3});
  StableStore stable;
  stable.checkpoint(7, originals_[7]);
  const auto before = master_.peek(7);
  cluster_.kill(0);

  const auto done = merge(7, 2);
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->plan.bytes_moved, before->piece_sizes[3]);
  const auto merged = master_.peek(7);
  EXPECT_EQ(merged->servers, (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_EQ(merged->epoch, before->epoch + 1);
  EXPECT_FALSE(cluster_.server(3).contains(BlockKey{7, 3}));

  RecoveryManager recovery(cluster_, master_, stable);
  const auto repaired = recovery.repair_after_server_loss(0);
  EXPECT_EQ(repaired.pieces_recovered, 1u);
  const auto after = master_.peek(7);
  EXPECT_NE(after->servers[0], 0u);
  EXPECT_EQ(after->piece_sizes, merged->piece_sizes);
  expect_intact(7);
}

TEST_F(OnlineAdjustTest, PlanSplitsBurstingFile) {
  // File 0 written with 2 pieces; its live rate explodes -> target k jumps.
  write_file(0, 200 * kKB, {0, 1});
  write_file(9, 200 * kKB, {2, 3});

  std::vector<FileInfo> infos(10);
  for (std::size_t i = 0; i < 10; ++i) {
    infos[i].size = 200 * kKB;
    infos[i].request_rate = (i == 0) ? 50.0 : 0.1;  // burst on file 0
  }
  const Catalog live(std::move(infos));

  OnlineAdjustConfig cfg;
  cfg.max_ops_per_file = 16;
  // Target k for file 0: ceil(alpha * L_0); choose alpha for ~8 pieces.
  const auto targets = plan_online_adjust(live, *layouts_, cluster_.size(), 8.0 / live.load(0), cfg);

  for (const auto& target : targets) {
    Bytes total = 0;
    for (const Bytes b : target.piece_sizes) total += b;
    EXPECT_EQ(total, 200 * kKB);
    EXPECT_EQ(target.piece_sizes.size(), target.servers.size());
  }
  const auto of = [&](FileId id) {
    return std::find_if(targets.begin(), targets.end(),
                        [id](const AdjustTarget& t) { return t.file == id; });
  };
  const auto burst = of(0);
  ASSERT_NE(burst, targets.end()) << "the bursting file must get a target";
  EXPECT_GE(burst->servers.size(), 7u);  // at least 5 splits toward 8 pieces
  // The pieces it had stay first in line on their servers.
  EXPECT_EQ(burst->servers.front(), 0u);
  // The cold file 9 must not be split (its target is 1; merge threshold
  // applies instead since current is 2 and target 1).
  const auto cold = of(9);
  if (cold != targets.end()) {
    EXPECT_LT(cold->servers.size(), 2u);
  }
}

TEST_F(OnlineAdjustTest, PlanMergesCooledFile) {
  write_file(6, 240 * kKB, {0, 1, 2, 3, 4, 5});
  std::vector<FileInfo> infos(7);
  for (std::size_t i = 0; i < 7; ++i) {
    infos[i].size = 240 * kKB;
    infos[i].request_rate = 1e-6;  // everything cooled off
  }
  const Catalog live(std::move(infos));
  // alpha = 1e-12: target k = 1 for all.
  const auto targets = plan_online_adjust(live, *layouts_, cluster_.size(), 1e-12, {});
  ASSERT_EQ(targets.size(), 1u);
  EXPECT_EQ(targets[0].file, 6u);
  EXPECT_EQ(targets[0].servers, (std::vector<std::uint32_t>{0}));  // 6 pieces -> 1
  EXPECT_EQ(targets[0].piece_sizes, (std::vector<Bytes>{240 * kKB}));
}

TEST_F(OnlineAdjustTest, HysteresisSuppressesSmallChanges) {
  write_file(7, 120 * kKB, {0, 1, 2, 3});  // current k = 4
  std::vector<FileInfo> infos(8);
  for (auto& fi : infos) {
    fi.size = 120 * kKB;
    fi.request_rate = 1.0;
  }
  const Catalog live(std::move(infos));
  // Target 5 vs current 4: within hysteresis.
  const auto targets =
      plan_online_adjust(live, *layouts_, cluster_.size(), 5.0 / live.load(7), {});
  for (const auto& target : targets) EXPECT_NE(target.file, 7u);
}

TEST_F(OnlineAdjustTest, ExecutePlanEndToEnd) {
  write_file(8, 400 * kKB, {0, 1});
  std::vector<FileInfo> infos(9);
  for (std::size_t i = 0; i < 9; ++i) {
    infos[i].size = 400 * kKB;
    infos[i].request_rate = (i == 8) ? 40.0 : 0.01;
  }
  const Catalog live(std::move(infos));
  OnlineAdjustConfig cfg;
  cfg.max_ops_per_file = 16;
  const auto targets =
      plan_online_adjust(live, *layouts_, cluster_.size(), 10.0 / live.load(8), cfg);
  ASSERT_EQ(targets.size(), 1u);
  const auto applied = apply_adjust_targets(*store_, *layouts_, targets, cluster_.size());
  EXPECT_EQ(applied.files, 1u);
  EXPECT_EQ(master_.peek(8)->servers, targets[0].servers);
  EXPECT_GT(master_.peek(8)->partitions(), 2u);
  EXPECT_EQ(applied.splits, master_.peek(8)->partitions() - 2);
  EXPECT_EQ(applied.merges, 0u);
  // The whole split sequence lands as one move, so each byte crosses the
  // network at most once — much less than reassemble+rescatter (~800 kB).
  EXPECT_LT(applied.bytes_moved, 400 * kKB);
  EXPECT_GT(applied.nics.drain_time(cluster_.bandwidths()), 0.0);
  expect_intact(8);
}

}  // namespace
}  // namespace spcache
