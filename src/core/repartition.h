// Periodic load re-balancing with parallel repartition (Section 6.2,
// Algorithm 2).
//
// When file popularities shift, the SP-Master recomputes the scale factor
// (Algorithm 1) and the partition counts k_i. Files whose k_i is unchanged
// stay put, but their load is *recorded* per server so the greedy placement
// of the changed files balances against it. Each changed file is then
// assigned:
//   * a set of k_i new servers — greedily, the least-loaded servers that do
//     not already hold a piece of this file (load measured by the number of
//     recorded partitions, which is proportional to real load because every
//     partition carries ~1/alpha);
//   * an executing SP-Repartitioner — a random server among the file's
//     *old* holders, so at least one partition needs no network transfer.
//
// The plan is pure metadata; execution (actually moving the bytes,
// sequentially via the master or in parallel on the repartitioners) lives
// in src/cluster/repartition_exec.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "math/scale_factor.h"
#include "workload/file_catalog.h"

namespace spcache {

struct RepartitionPlan {
  double alpha = 0.0;                   // the new scale factor
  std::vector<std::size_t> new_k;       // per file
  std::vector<FileId> changed_files;    // files with new_k != old_k
  // Parallel to changed_files: the new server set (k_i distinct servers)
  // and the server executing the repartition.
  std::vector<std::vector<std::uint32_t>> new_servers;
  std::vector<std::uint32_t> executor;

  double changed_fraction(std::size_t n_files) const {
    return n_files == 0 ? 0.0
                        : static_cast<double>(changed_files.size()) / static_cast<double>(n_files);
  }
};

// --- Delta repartitioning: byte-range transfer plans -------------------
//
// Re-splitting a file from k_old to k_new pieces does not need the whole
// file to move: the new piece boundaries overlap the old ones, so each new
// piece is a concatenation of byte ranges of old pieces. A RangeTransferPlan
// spells that algebra out — per new piece, the ordered source ranges that
// assemble it — and classifies each range as local (source server ==
// destination server: the bytes are already resident, zero network cost)
// or remote (one direct server-to-server transfer). This generalizes the
// executor's "one free local piece" rule to per-range granularity: for the
// common online-adjust case (small k-delta, placements largely reused) most
// bytes never cross a NIC.
//
// Both layouts are taken as given piece-size vectors, so one planner serves
// every move: a split_plain re-split (Algorithm 2, plain_piece_sizes), an
// online split (piece i halved, the second half on a fresh server) or
// merge (pieces i and i+1 joined), and heterogeneous write_sized layouts.

// One contiguous byte range of an old piece feeding a new piece.
struct RangeSource {
  std::uint32_t old_piece = 0;   // source piece index in the old layout
  std::uint32_t src_server = 0;  // where that piece lives
  Bytes offset_in_piece = 0;     // range start within the old piece
  Bytes offset_in_file = 0;      // range start within the whole file
  Bytes length = 0;
  bool local = false;            // src_server == destination server (free)
};

// One new piece: its destination and the ordered ranges that assemble it
// (concatenated in order, they are exactly the piece's bytes).
struct PieceAssembly {
  std::uint32_t new_piece = 0;
  std::uint32_t dst_server = 0;
  Bytes piece_size = 0;
  std::vector<RangeSource> sources;
};

struct RangeTransferPlan {
  Bytes file_size = 0;
  Bytes bytes_moved = 0;  // sum of remote range lengths (each counted once)
  Bytes bytes_saved = 0;  // sum of local range lengths (== file_size - moved)
  std::vector<PieceAssembly> pieces;  // one per new piece, in piece order
};

// Byte offset where piece `i` of a k-way split_plain layout starts.
Bytes plain_piece_offset(Bytes size, std::size_t k, std::size_t i);

// Piece sizes of a k-way split_plain layout: the first (size % k) pieces
// get one extra byte.
std::vector<Bytes> plain_piece_sizes(Bytes size, std::size_t k);

// Compute the range transfer plan from the current layout
// (old_piece_sizes[i] bytes of piece i on old_servers[i]) to the target
// layout (new_piece_sizes[j] bytes of piece j on new_servers[j]). Both size
// vectors sum to `size`. O(k_old + k_new).
RangeTransferPlan plan_range_transfer(Bytes size, const std::vector<Bytes>& old_piece_sizes,
                                      const std::vector<std::uint32_t>& old_servers,
                                      const std::vector<Bytes>& new_piece_sizes,
                                      const std::vector<std::uint32_t>& new_servers);

// Algorithm 2. `old_k[i]` / `old_servers[i]` describe the current layout.
RepartitionPlan plan_repartition(const Catalog& updated_catalog,
                                 const std::vector<Bandwidth>& bandwidth,
                                 const std::vector<std::size_t>& old_k,
                                 const std::vector<std::vector<std::uint32_t>>& old_servers,
                                 const ScaleFactorConfig& search_config, Rng& rng);

// Variant with a caller-supplied scale factor (skips Algorithm 1): used
// when the epoch's alpha should be held fixed across the re-balance, and
// by A/B experiments that must not conflate alpha changes with placement
// changes.
RepartitionPlan plan_repartition_with_alpha(
    const Catalog& updated_catalog, std::size_t n_servers, double alpha,
    const std::vector<std::size_t>& old_k,
    const std::vector<std::vector<std::uint32_t>>& old_servers, Rng& rng);

}  // namespace spcache
