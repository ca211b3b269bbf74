// Property tests for the delta repartition plan algebra (randomized):
//   * the range transfer plan covers every byte of the file exactly once,
//     in order, with piece sizes matching the target (split_plain's rule
//     for a re-split, any size vector for an online split/merge);
//   * a range is local iff source server == destination server — the plan
//     never emits a same-server network transfer;
//   * bytes_moved + bytes_saved == file_size, and bytes_moved is exactly
//     the bytes whose final server differs from their first;
//   * for split_plain targets the plan matches the original split_plain-only
//     planner field for field; one split moves half a piece, one merge one
//     piece;
//   * executing a randomized plan against a live cluster reassembles every
//     file bit-exactly and leaves no staged residue.
#include "core/repartition.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "cluster/client.h"
#include "cluster/repartition_exec.h"
#include "erasure/rs_code.h"

namespace spcache {
namespace {

std::vector<std::uint8_t> random_bytes(std::size_t n, Rng& rng) {
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.uniform_index(256));
  return v;
}

// k distinct servers drawn from [0, n_servers).
std::vector<std::uint32_t> distinct_servers(Rng& rng, std::size_t n_servers, std::size_t k) {
  std::vector<std::uint32_t> all(n_servers);
  std::iota(all.begin(), all.end(), 0u);
  for (std::size_t i = 0; i < k; ++i) {
    std::swap(all[i], all[i + rng.uniform_index(n_servers - i)]);
  }
  all.resize(k);
  return all;
}

// A random composition of `size` into `k` non-negative parts (old layouts
// need not follow split_plain's rounding — write_sized layouts don't).
std::vector<Bytes> random_composition(Rng& rng, Bytes size, std::size_t k) {
  std::vector<Bytes> cuts;
  for (std::size_t i = 0; i + 1 < k; ++i) cuts.push_back(rng.uniform_index(size + 1));
  cuts.push_back(0);
  cuts.push_back(size);
  std::sort(cuts.begin(), cuts.end());
  std::vector<Bytes> sizes;
  for (std::size_t i = 0; i + 1 < cuts.size(); ++i) sizes.push_back(cuts[i + 1] - cuts[i]);
  return sizes;
}

// A random composition of `size` into `k` positive parts (size >= k).
std::vector<Bytes> positive_composition(Rng& rng, Bytes size, std::size_t k) {
  auto sizes = random_composition(rng, size - k, k);
  for (auto& s : sizes) ++s;
  return sizes;
}

// The planner as it was when it only knew split_plain targets: new piece
// boundaries from plain_piece_offset, one source range per crossing of an
// old boundary. Kept as the reference the generalised planner must match.
RangeTransferPlan reference_plain_plan(Bytes size, const std::vector<Bytes>& old_sizes,
                                       const std::vector<std::uint32_t>& old_servers,
                                       const std::vector<std::uint32_t>& new_servers) {
  RangeTransferPlan plan;
  plan.file_size = size;
  const std::size_t k_new = new_servers.size();
  std::size_t old_piece = 0;
  Bytes old_start = 0;
  for (std::size_t j = 0; j < k_new; ++j) {
    PieceAssembly assembly;
    assembly.new_piece = static_cast<std::uint32_t>(j);
    assembly.dst_server = new_servers[j];
    const Bytes lo = plain_piece_offset(size, k_new, j);
    const Bytes hi = plain_piece_offset(size, k_new, j + 1);
    assembly.piece_size = hi - lo;
    for (Bytes pos = lo; pos < hi;) {
      while (old_start + old_sizes[old_piece] <= pos) old_start += old_sizes[old_piece++];
      RangeSource range;
      range.old_piece = static_cast<std::uint32_t>(old_piece);
      range.src_server = old_servers[old_piece];
      range.offset_in_piece = pos - old_start;
      range.offset_in_file = pos;
      range.length = std::min(hi, old_start + old_sizes[old_piece]) - pos;
      range.local = range.src_server == assembly.dst_server;
      (range.local ? plan.bytes_saved : plan.bytes_moved) += range.length;
      pos += range.length;
      assembly.sources.push_back(range);
    }
    plan.pieces.push_back(std::move(assembly));
  }
  return plan;
}

// Server holding byte `pos` of a layout (zero-size pieces hold none).
std::uint32_t holder_of(Bytes pos, const std::vector<Bytes>& sizes,
                        const std::vector<std::uint32_t>& servers) {
  Bytes end = 0;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    end += sizes[i];
    if (pos < end) return servers[i];
  }
  ADD_FAILURE() << "byte " << pos << " beyond the layout";
  return 0;
}

TEST(RepartitionProperties, PlainOffsetsMatchSplitPlain) {
  Rng rng(401);
  for (int trial = 0; trial < 200; ++trial) {
    const Bytes size = 1 + rng.uniform_index(4096);
    const std::size_t k = 1 + rng.uniform_index(16);
    const auto data = random_bytes(size, rng);
    const auto pieces = split_plain(data, k);
    ASSERT_EQ(pieces.size(), k);
    EXPECT_EQ(plain_piece_offset(size, k, 0), 0u);
    EXPECT_EQ(plain_piece_offset(size, k, k), size);
    for (std::size_t i = 0; i < k; ++i) {
      EXPECT_EQ(plain_piece_offset(size, k, i + 1) - plain_piece_offset(size, k, i),
                pieces[i].size())
          << "size=" << size << " k=" << k << " i=" << i;
    }
  }
}

TEST(RepartitionProperties, PlanCoversEveryByteExactlyOnce) {
  Rng rng(402);
  constexpr std::size_t kServers = 20;
  for (int trial = 0; trial < 300; ++trial) {
    const Bytes size = 1 + rng.uniform_index(200 * 1024);
    const std::size_t k_old = 1 + rng.uniform_index(16);
    const std::size_t k_new = 1 + rng.uniform_index(16);
    const auto old_sizes = random_composition(rng, size, k_old);
    // Old servers need not be distinct between pieces of different files,
    // but within one file the planner may assume distinctness — honor it.
    const auto old_servers = distinct_servers(rng, kServers, k_old);
    const auto new_servers = distinct_servers(rng, kServers, k_new);

    const auto plan = plan_range_transfer(size, old_sizes, old_servers,
                                          plain_piece_sizes(size, k_new), new_servers);
    ASSERT_EQ(plan.pieces.size(), k_new);
    EXPECT_EQ(plan.file_size, size);
    EXPECT_EQ(plan.bytes_moved + plan.bytes_saved, size);

    std::vector<Bytes> old_start(k_old + 1, 0);
    for (std::size_t i = 0; i < k_old; ++i) old_start[i + 1] = old_start[i] + old_sizes[i];

    Bytes pos = 0;  // running cursor over the file: ranges must be in order
    Bytes moved = 0, saved = 0;
    for (std::size_t p = 0; p < k_new; ++p) {
      const auto& piece = plan.pieces[p];
      EXPECT_EQ(piece.new_piece, p);
      EXPECT_EQ(piece.dst_server, new_servers[p]);
      EXPECT_EQ(piece.piece_size,
                plain_piece_offset(size, k_new, p + 1) - plain_piece_offset(size, k_new, p));
      Bytes filled = 0;
      for (const auto& r : piece.sources) {
        ASSERT_LT(r.old_piece, k_old);
        EXPECT_GT(r.length, 0u);
        // Contiguous, in order, and consistent between the two offsets.
        EXPECT_EQ(r.offset_in_file, pos);
        EXPECT_EQ(r.offset_in_file, old_start[r.old_piece] + r.offset_in_piece);
        EXPECT_LE(r.offset_in_piece + r.length, old_sizes[r.old_piece]);
        EXPECT_EQ(r.src_server, old_servers[r.old_piece]);
        // Local iff same server — a remote range with src == dst would be
        // a pointless network transfer, a local range with src != dst
        // would lose bytes.
        EXPECT_EQ(r.local, r.src_server == piece.dst_server);
        (r.local ? saved : moved) += r.length;
        pos += r.length;
        filled += r.length;
      }
      EXPECT_EQ(filled, piece.piece_size);
    }
    EXPECT_EQ(pos, size);  // union of all ranges covers [0, size) exactly
    EXPECT_EQ(moved, plan.bytes_moved);
    EXPECT_EQ(saved, plan.bytes_saved);
  }
}

TEST(RepartitionProperties, UnchangedPlacementIsAllLocal) {
  Rng rng(403);
  for (int trial = 0; trial < 50; ++trial) {
    const Bytes size = 1 + rng.uniform_index(64 * 1024);
    const std::size_t k = 1 + rng.uniform_index(12);
    const auto servers = distinct_servers(rng, 20, k);
    // Old layout already follows split_plain's rounding on the same
    // servers: the "repartition" is a no-op byte-wise, so zero bytes move.
    std::vector<Bytes> old_sizes;
    for (std::size_t i = 0; i < k; ++i) {
      old_sizes.push_back(plain_piece_offset(size, k, i + 1) - plain_piece_offset(size, k, i));
    }
    const auto plan = plan_range_transfer(size, old_sizes, servers, old_sizes, servers);
    EXPECT_EQ(plan.bytes_moved, 0u);
    EXPECT_EQ(plan.bytes_saved, size);
  }
}

// Any target size vector, zero-size pieces included: every byte lands in
// its target piece exactly once and in order, and a byte is moved iff its
// server changes.
TEST(RepartitionProperties, ArbitraryTargetSizesCoverEveryByteOnce) {
  Rng rng(405);
  constexpr std::size_t kServers = 20;
  for (int trial = 0; trial < 300; ++trial) {
    const Bytes size = 1 + rng.uniform_index(8 * 1024);
    const std::size_t k_old = 1 + rng.uniform_index(16);
    const std::size_t k_new = 1 + rng.uniform_index(16);
    const auto old_sizes = random_composition(rng, size, k_old);
    const auto new_sizes = random_composition(rng, size, k_new);
    const auto old_servers = distinct_servers(rng, kServers, k_old);
    const auto new_servers = distinct_servers(rng, kServers, k_new);

    const auto plan = plan_range_transfer(size, old_sizes, old_servers, new_sizes, new_servers);
    ASSERT_EQ(plan.pieces.size(), k_new);
    EXPECT_EQ(plan.bytes_moved + plan.bytes_saved, size);

    Bytes pos = 0;
    for (std::size_t p = 0; p < k_new; ++p) {
      const auto& piece = plan.pieces[p];
      EXPECT_EQ(piece.dst_server, new_servers[p]);
      EXPECT_EQ(piece.piece_size, new_sizes[p]);
      Bytes filled = 0;
      for (const auto& r : piece.sources) {
        EXPECT_GT(r.length, 0u);
        EXPECT_EQ(r.offset_in_file, pos);
        EXPECT_LE(r.offset_in_piece + r.length, old_sizes[r.old_piece]);
        EXPECT_EQ(r.local, r.src_server == piece.dst_server);
        pos += r.length;
        filled += r.length;
      }
      EXPECT_EQ(filled, piece.piece_size);
    }
    EXPECT_EQ(pos, size);

    Bytes changed = 0;
    for (Bytes b = 0; b < size; ++b) {
      changed += holder_of(b, old_sizes, old_servers) != holder_of(b, new_sizes, new_servers);
    }
    EXPECT_EQ(plan.bytes_moved, changed) << "trial " << trial;
  }
}

// Split_plain targets, the benchmark's re-balance path: the generalised
// planner emits exactly what the split_plain-only planner did.
TEST(RepartitionProperties, PlainTargetsMatchThePlainPlanner) {
  Rng rng(406);
  constexpr std::size_t kServers = 20;
  for (int trial = 0; trial < 300; ++trial) {
    const Bytes size = 1 + rng.uniform_index(200 * 1024);
    const std::size_t k_old = 1 + rng.uniform_index(16);
    const std::size_t k_new = 1 + rng.uniform_index(16);
    const auto old_sizes = random_composition(rng, size, k_old);
    const auto old_servers = distinct_servers(rng, kServers, k_old);
    const auto new_servers = distinct_servers(rng, kServers, k_new);

    const auto plan = plan_range_transfer(size, old_sizes, old_servers,
                                          plain_piece_sizes(size, k_new), new_servers);
    const auto ref = reference_plain_plan(size, old_sizes, old_servers, new_servers);
    EXPECT_EQ(plan.file_size, ref.file_size);
    EXPECT_EQ(plan.bytes_moved, ref.bytes_moved);
    EXPECT_EQ(plan.bytes_saved, ref.bytes_saved);
    ASSERT_EQ(plan.pieces.size(), ref.pieces.size());
    for (std::size_t p = 0; p < k_new; ++p) {
      const auto& a = plan.pieces[p];
      const auto& b = ref.pieces[p];
      EXPECT_EQ(a.new_piece, b.new_piece);
      EXPECT_EQ(a.dst_server, b.dst_server);
      EXPECT_EQ(a.piece_size, b.piece_size);
      ASSERT_EQ(a.sources.size(), b.sources.size()) << "trial " << trial << " piece " << p;
      for (std::size_t r = 0; r < a.sources.size(); ++r) {
        EXPECT_EQ(a.sources[r].old_piece, b.sources[r].old_piece);
        EXPECT_EQ(a.sources[r].src_server, b.sources[r].src_server);
        EXPECT_EQ(a.sources[r].offset_in_piece, b.sources[r].offset_in_piece);
        EXPECT_EQ(a.sources[r].offset_in_file, b.sources[r].offset_in_file);
        EXPECT_EQ(a.sources[r].length, b.sources[r].length);
        EXPECT_EQ(a.sources[r].local, b.sources[r].local);
      }
    }
  }
}

// Online adjust's two steps as targets: halving piece i onto a fresh
// server ships exactly the second half; folding piece i+1 into piece i
// ships exactly piece i+1. Every other byte stays where it is.
TEST(RepartitionProperties, OneSplitMovesHalfAPieceOneMergeOnePiece) {
  Rng rng(407);
  constexpr std::size_t kServers = 20;
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t k = 2 + rng.uniform_index(10);
    const Bytes size = k + rng.uniform_index(64 * 1024);
    const auto layout = positive_composition(rng, size, k);
    auto servers = distinct_servers(rng, kServers, k + 1);
    const std::uint32_t fresh = servers.back();  // holds no piece yet
    servers.pop_back();
    const std::size_t i = rng.uniform_index(k);

    auto split_sizes = layout;
    auto split_servers = servers;
    const Bytes half = layout[i] / 2;
    split_sizes[i] = half;
    split_sizes.insert(split_sizes.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                       layout[i] - half);
    split_servers.insert(split_servers.begin() + static_cast<std::ptrdiff_t>(i) + 1, fresh);
    const auto split = plan_range_transfer(size, layout, servers, split_sizes, split_servers);
    EXPECT_EQ(split.bytes_moved, layout[i] - half);

    if (i + 1 < k) {
      auto merged_sizes = layout;
      auto merged_servers = servers;
      merged_sizes[i] += merged_sizes[i + 1];
      merged_sizes.erase(merged_sizes.begin() + static_cast<std::ptrdiff_t>(i) + 1);
      merged_servers.erase(merged_servers.begin() + static_cast<std::ptrdiff_t>(i) + 1);
      const auto merge =
          plan_range_transfer(size, layout, servers, merged_sizes, merged_servers);
      EXPECT_EQ(merge.bytes_moved, layout[i + 1]);
    }
  }
}

// End-to-end on a live cluster: random files, random old/new placements,
// the delta executor must reassemble every file bit-exactly under the new
// layout with a bumped epoch and an empty staging area.
TEST(RepartitionProperties, RandomizedDeltaRepartitionIsBitExact) {
  Cluster cluster(12, gbps(1.0));
  Master master;
  ThreadPool pool(4);
  Rng rng(404);
  SpClient client(cluster, master, pool);

  constexpr std::size_t kFiles = 20;
  std::vector<std::vector<std::uint8_t>> originals;
  RepartitionPlan plan;
  plan.new_k.resize(kFiles);
  for (FileId f = 0; f < kFiles; ++f) {
    const Bytes size = 1 + rng.uniform_index(96 * 1024);
    const std::size_t k_old = 1 + rng.uniform_index(6);
    originals.push_back(random_bytes(size, rng));
    const auto old = distinct_servers(rng, cluster.size(), k_old);
    client.write(f, originals[f], old);

    const std::size_t k_new = 1 + rng.uniform_index(6);
    plan.new_k[f] = k_new;
    plan.changed_files.push_back(f);
    plan.new_servers.push_back(distinct_servers(rng, cluster.size(), k_new));
    plan.executor.push_back(old[rng.uniform_index(old.size())]);
  }

  std::vector<std::uint64_t> epoch_before(kFiles);
  for (FileId f = 0; f < kFiles; ++f) epoch_before[f] = master.peek(f)->epoch;

  const auto stats = execute_delta_repartition(cluster, master, plan, pool);
  EXPECT_EQ(stats.files_touched, kFiles);

  for (FileId f = 0; f < kFiles; ++f) {
    EXPECT_EQ(client.read(f).bytes, originals[f]) << "file " << f;
    const auto meta = master.peek(f);
    ASSERT_TRUE(meta.has_value());
    EXPECT_EQ(meta->servers, plan.new_servers[f]);
    EXPECT_GT(meta->epoch, epoch_before[f]);
  }
  for (std::size_t s = 0; s < cluster.size(); ++s) {
    EXPECT_EQ(cluster.server(s).staged_count(), 0u) << "server " << s;
  }
}

// The one mover with arbitrary targets: random files moved to random
// piece-size vectors on random servers read back bit-exact, and a move
// counts exactly its plan's remote bytes.
TEST(RepartitionProperties, RandomizedTargetMovesAreBitExact) {
  Cluster cluster(12, gbps(1.0));
  Master master;
  ThreadPool pool(4);
  Rng rng(408);
  SpClient client(cluster, master, pool);
  const auto store = make_inproc_piece_store(cluster, nullptr);
  const auto layouts = make_inproc_layout_service(master, nullptr);

  for (FileId f = 0; f < 20; ++f) {
    const std::size_t k_old = 1 + rng.uniform_index(6);
    const std::size_t k_new = 1 + rng.uniform_index(6);
    const Bytes size = 6 + rng.uniform_index(96 * 1024);
    const auto original = random_bytes(size, rng);
    client.write_sized(f, original, distinct_servers(rng, cluster.size(), k_old),
                       positive_composition(rng, size, k_old));
    const auto before = master.peek(f);
    const auto sizes = positive_composition(rng, size, k_new);
    const auto servers = distinct_servers(rng, cluster.size(), k_new);

    const auto done = delta_repartition_file(*store, *layouts, f, sizes, servers);
    ASSERT_TRUE(done.has_value()) << "file " << f;
    EXPECT_EQ(done->old_partitions, k_old);
    EXPECT_EQ(done->plan.bytes_moved,
              plan_range_transfer(size, before->piece_sizes, before->servers, sizes, servers)
                  .bytes_moved);
    const auto meta = master.peek(f);
    EXPECT_EQ(meta->servers, servers);
    EXPECT_EQ(meta->piece_sizes, sizes);
    EXPECT_EQ(client.read(f).bytes, original) << "file " << f;
  }
  for (std::size_t s = 0; s < cluster.size(); ++s) {
    EXPECT_EQ(cluster.server(s).staged_count(), 0u) << "server " << s;
  }
}

}  // namespace
}  // namespace spcache
