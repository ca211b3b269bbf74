// Reed-Solomon codec tests: systematic layout, any-k-of-n reconstruction
// (parameterized over code geometry), padding edge cases, error handling,
// and the plain splitting helpers used by SP-Cache.
#include "erasure/rs_code.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "common/crc32.h"
#include "common/rng.h"

namespace spcache {
namespace {

std::vector<std::uint8_t> random_bytes(std::size_t n, Rng& rng) {
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.uniform_index(256));
  return v;
}

TEST(ReedSolomon, GeometryAndOverhead) {
  const ReedSolomon rs(10, 14);
  EXPECT_EQ(rs.data_shards(), 10u);
  EXPECT_EQ(rs.parity_shards(), 4u);
  EXPECT_EQ(rs.total_shards(), 14u);
  EXPECT_NEAR(rs.memory_overhead(), 0.4, 1e-12);  // the paper's 40%
}

TEST(ReedSolomon, InvalidGeometryThrows) {
  EXPECT_THROW(ReedSolomon(0, 4), std::invalid_argument);
  EXPECT_THROW(ReedSolomon(5, 4), std::invalid_argument);
  EXPECT_THROW(ReedSolomon(200, 300), std::invalid_argument);
}

TEST(ReedSolomon, SystematicDataShardsAreVerbatim) {
  Rng rng(1);
  const auto data = random_bytes(1000, rng);
  const ReedSolomon rs(4, 6);
  const auto shards = rs.encode(data);
  ASSERT_EQ(shards.size(), 6u);
  const std::size_t len = rs.shard_size(data.size());
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(shards[i].index, i);
    ASSERT_EQ(shards[i].bytes.size(), len);
    for (std::size_t b = 0; b < len; ++b) {
      const std::size_t pos = i * len + b;
      const std::uint8_t expected = pos < data.size() ? data[pos] : 0;
      ASSERT_EQ(shards[i].bytes[b], expected);
    }
  }
}

TEST(ReedSolomon, AllDataShardsFastPath) {
  Rng rng(2);
  const auto data = random_bytes(12345, rng);
  const ReedSolomon rs(10, 14);
  auto shards = rs.encode(data);
  shards.resize(10);  // keep only data shards
  EXPECT_EQ(rs.decode(shards, data.size()), data);
}

struct LossCase {
  std::size_t k, n, losses;
};

class RsReconstructionTest : public ::testing::TestWithParam<LossCase> {};

TEST_P(RsReconstructionTest, AnyKofNReconstructs) {
  const auto [k, n, losses] = GetParam();
  ASSERT_LE(losses, n - k);
  Rng rng(100 + k * 7 + n * 13 + losses);
  const auto data = random_bytes(4096 + 17, rng);
  const ReedSolomon rs(k, n);
  const auto shards = rs.encode(data);

  for (int trial = 0; trial < 10; ++trial) {
    // Drop `losses` random shards, decode from the survivors.
    const auto dropped = rng.sample_without_replacement(n, losses);
    std::vector<Shard> survivors;
    for (const auto& s : shards) {
      if (std::find(dropped.begin(), dropped.end(), s.index) == dropped.end()) {
        survivors.push_back(s);
      }
    }
    EXPECT_EQ(rs.decode(survivors, data.size()), data) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, RsReconstructionTest,
    ::testing::Values(LossCase{10, 14, 4}, LossCase{10, 14, 1}, LossCase{10, 14, 2},
                      LossCase{4, 6, 2}, LossCase{1, 3, 2}, LossCase{2, 4, 2},
                      LossCase{16, 20, 4}, LossCase{6, 9, 3}));

TEST(ReedSolomon, DecodeFromExactlyParityHeavySubset) {
  // Force the matrix-inversion path: lose as many data shards as possible.
  Rng rng(3);
  const auto data = random_bytes(999, rng);
  const ReedSolomon rs(4, 8);
  const auto shards = rs.encode(data);
  // Keep data shard 2 and parity shards 4, 5, 6.
  const std::vector<Shard> subset{shards[2], shards[4], shards[5], shards[6]};
  EXPECT_EQ(rs.decode(subset, data.size()), data);
}

TEST(ReedSolomon, PaddingEdgeCases) {
  Rng rng(4);
  const ReedSolomon rs(10, 14);
  for (std::size_t size : {std::size_t{1}, std::size_t{9}, std::size_t{10}, std::size_t{11},
                           std::size_t{100}, std::size_t{1009}}) {
    const auto data = random_bytes(size, rng);
    auto shards = rs.encode(data);
    // Decode from a parity-including subset to exercise the full path.
    std::vector<Shard> subset(shards.begin() + 2, shards.begin() + 12);
    EXPECT_EQ(rs.decode(subset, data.size()), data) << "size " << size;
  }
}

TEST(ReedSolomon, EmptyFile) {
  const ReedSolomon rs(3, 5);
  const auto shards = rs.encode({});
  EXPECT_EQ(rs.decode(shards, 0).size(), 0u);
}

TEST(ReedSolomon, KEqualsNIsPlainSplitWithPadding) {
  // (k, k): no parity, decode requires all shards.
  Rng rng(5);
  const auto data = random_bytes(100, rng);
  const ReedSolomon rs(4, 4);
  const auto shards = rs.encode(data);
  EXPECT_EQ(shards.size(), 4u);
  EXPECT_DOUBLE_EQ(rs.memory_overhead(), 0.0);
  EXPECT_EQ(rs.decode(shards, data.size()), data);
}

TEST(ReedSolomon, DecodeErrorHandling) {
  Rng rng(6);
  const auto data = random_bytes(64, rng);
  const ReedSolomon rs(4, 6);
  const auto shards = rs.encode(data);

  // Too few shards.
  EXPECT_THROW(rs.decode({shards[0], shards[1]}, data.size()), std::invalid_argument);
  // Duplicate indices.
  EXPECT_THROW(rs.decode({shards[0], shards[0], shards[1], shards[2]}, data.size()),
               std::invalid_argument);
  // Wrong shard length.
  auto bad = shards;
  bad[1].bytes.pop_back();
  EXPECT_THROW(rs.decode({bad[0], bad[1], bad[2], bad[3]}, data.size()), std::invalid_argument);
  // Out-of-range index.
  auto oob = shards[0];
  oob.index = 99;
  EXPECT_THROW(rs.decode({oob, shards[1], shards[2], shards[3], shards[4]}, data.size()),
               std::invalid_argument);
}

// Decodes `data` through decode_into from the shards named by `mask` (bit
// i = shard i supplied), in forward and reverse order, through one reused
// scratch; the output must be the file and the return value its CRC.
void expect_decode_into(const ReedSolomon& rs, const std::vector<Shard>& shards,
                        const std::vector<std::uint8_t>& data, std::vector<std::size_t> picks,
                        RsScratch& scratch) {
  for (int order = 0; order < 2; ++order) {
    std::vector<ShardView> views;
    for (const std::size_t i : picks) views.push_back({i, shards[i].bytes});
    std::vector<std::uint8_t> out(data.size(), 0xA5);
    const std::uint32_t crc = rs.decode_into(views, data.size(), out, scratch);
    ASSERT_EQ(out, data) << "size " << data.size() << " order " << order;
    ASSERT_EQ(crc, crc32(out)) << "size " << data.size() << " order " << order;
    std::reverse(picks.begin(), picks.end());
  }
}

// File sizes around the padding edges (empty, one byte, k-1, k, k+1) plus
// 33000-byte shards whose last row is truncated by k-1 bytes, so the tail
// row's live prefix crosses the 32 KiB decode-block boundary.
std::vector<std::size_t> edge_sizes(std::size_t k) {
  return {0, 1, k - 1, k, k + 1, k * 33000 - (k - 1)};
}

TEST(ReedSolomon, DecodeIntoEveryErasurePatternOfRs46) {
  Rng rng(12);
  const ReedSolomon rs(4, 6);
  RsScratch scratch;
  for (const std::size_t size : edge_sizes(4)) {
    const auto data = random_bytes(size, rng);
    const auto shards = rs.encode(data);
    int patterns = 0;
    for (unsigned mask = 0; mask < (1u << 6); ++mask) {
      if (__builtin_popcount(mask) < 4) continue;
      std::vector<std::size_t> picks;
      for (std::size_t i = 0; i < 6; ++i) {
        if (mask & (1u << i)) picks.push_back(i);
      }
      expect_decode_into(rs, shards, data, picks, scratch);
      ++patterns;
    }
    EXPECT_EQ(patterns, 22);  // C(6,4) + C(6,5) + C(6,6)
  }
}

TEST(ReedSolomon, DecodeIntoSampledPatternsOfRs1014) {
  Rng rng(13);
  const ReedSolomon rs(10, 14);
  RsScratch scratch;
  for (const std::size_t size : edge_sizes(10)) {
    const auto data = random_bytes(size, rng);
    const auto shards = rs.encode(data);
    for (int trial = 0; trial < 40; ++trial) {
      const std::size_t supplied = 10 + rng.uniform_index(5);
      expect_decode_into(rs, shards, data, rng.sample_without_replacement(14, supplied),
                         scratch);
    }
  }
}

TEST(ReedSolomon, DecodeIntoErrorHandling) {
  Rng rng(14);
  const auto data = random_bytes(64, rng);
  const ReedSolomon rs(4, 6);
  const auto shards = rs.encode(data);
  std::vector<ShardView> views;
  for (const auto& s : shards) views.push_back({s.index, s.bytes});
  RsScratch scratch;
  std::vector<std::uint8_t> out(data.size());
  const auto decode = [&](std::vector<ShardView> v, std::size_t out_size) {
    std::vector<std::uint8_t> o(out_size);
    return rs.decode_into(v, data.size(), o, scratch);
  };
  EXPECT_EQ(decode(views, data.size()), crc32(data));
  // Output span of the wrong size.
  EXPECT_THROW(decode(views, data.size() - 1), std::invalid_argument);
  // Too few shards.
  EXPECT_THROW(decode({views[0], views[4], views[5]}, data.size()), std::invalid_argument);
  // Duplicate indices.
  EXPECT_THROW(decode({views[0], views[0], views[1], views[2]}, data.size()),
               std::invalid_argument);
  // Wrong shard length.
  auto short_view = views[1];
  short_view.bytes = short_view.bytes.first(short_view.bytes.size() - 1);
  EXPECT_THROW(decode({views[0], short_view, views[2], views[3]}, data.size()),
               std::invalid_argument);
  // Out-of-range index.
  auto oob = views[0];
  oob.index = 99;
  EXPECT_THROW(decode({oob, views[1], views[2], views[3], views[4]}, data.size()),
               std::invalid_argument);
}

TEST(ReedSolomon, EncodeParityMatchesFullEncode) {
  Rng rng(7);
  const auto data = random_bytes(4000, rng);
  const ReedSolomon rs(10, 14);
  const auto full = rs.encode(data);
  std::vector<std::span<const std::uint8_t>> data_views;
  for (std::size_t i = 0; i < 10; ++i) data_views.emplace_back(full[i].bytes);
  const auto parity = rs.encode_parity(data_views);
  ASSERT_EQ(parity.size(), 4u);
  for (std::size_t p = 0; p < 4; ++p) {
    EXPECT_EQ(parity[p].index, 10 + p);
    EXPECT_EQ(parity[p].bytes, full[10 + p].bytes);
  }
}

TEST(ReedSolomon, EncodeParityValidation) {
  const ReedSolomon rs(3, 5);
  std::vector<std::uint8_t> a(4), b(4), c(3);
  EXPECT_THROW(rs.encode_parity({std::span<const std::uint8_t>(a)}), std::invalid_argument);
  EXPECT_THROW(rs.encode_parity({std::span<const std::uint8_t>(a),
                                 std::span<const std::uint8_t>(b),
                                 std::span<const std::uint8_t>(c)}),
               std::invalid_argument);
}

TEST(SplitPlain, RoundTripAndSizes) {
  Rng rng(8);
  for (std::size_t size : {std::size_t{0}, std::size_t{1}, std::size_t{10}, std::size_t{101},
                           std::size_t{1000}}) {
    const auto data = random_bytes(size, rng);
    for (std::size_t k : {std::size_t{1}, std::size_t{3}, std::size_t{7}}) {
      const auto pieces = split_plain(data, k);
      ASSERT_EQ(pieces.size(), k);
      // Piece sizes differ by at most one byte and sum to the total.
      std::size_t total = 0, mx = 0, mn = SIZE_MAX;
      for (const auto& p : pieces) {
        total += p.size();
        mx = std::max(mx, p.size());
        mn = std::min(mn, p.size());
      }
      EXPECT_EQ(total, size);
      EXPECT_LE(mx - mn, 1u);
      EXPECT_EQ(join_plain(pieces), data);
    }
  }
}


TEST(SplitSized, ExactSizesAndRoundtrip) {
  Rng rng(9);
  const auto data = random_bytes(1000, rng);
  const std::vector<Bytes> sizes{300, 500, 200};
  const auto pieces = split_sized(data, sizes);
  ASSERT_EQ(pieces.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(pieces[i].size(), sizes[i]);
  EXPECT_EQ(join_plain(pieces), data);
}

TEST(SplitSized, MismatchedTotalThrows) {
  Rng rng(10);
  const auto data = random_bytes(100, rng);
  EXPECT_THROW(split_sized(data, {50, 40}), std::invalid_argument);
  EXPECT_THROW(split_sized(data, {50, 60}), std::invalid_argument);
}

TEST(SplitSized, ZeroSizedPieceAllowed) {
  Rng rng(11);
  const auto data = random_bytes(10, rng);
  const auto pieces = split_sized(data, {0, 10, 0});
  EXPECT_TRUE(pieces[0].empty());
  EXPECT_TRUE(pieces[2].empty());
  EXPECT_EQ(join_plain(pieces), data);
}

}  // namespace
}  // namespace spcache
