// Online partition adjustment (Section 8 "Short-Term Popularity
// Variation").
//
// When a file turns hot (or cold) within a re-balancing period, SP-Cache
// can adjust its granularity immediately by *splitting and combining the
// existing partitions in a distributed manner*: a split halves one cached
// piece, shipping only the new half to a fresh server; a merge pulls one
// piece onto its neighbour's server. Either way the data transferred is a
// single partition — far cheaper than EC-Cache's full re-encode or
// replication's extra full copy (the comparison the paper draws).
//
// `plan_online_adjust` is a planner only. It compares each file's live
// target k (Eq. 1 on the tracker's rate estimate) against its current
// partition count, with hysteresis so small fluctuations don't thrash, and
// walks a bounded split/merge sequence toward it. It emits the sequence's
// end state as one target layout per file. The one byte-mover,
// delta_repartition_file (cluster/repartition_exec.h), applies a target:
// it ships only the bytes whose server changes — half a piece for one
// split, one piece for one merge, and each byte at most once for a longer
// sequence — through staging and the epoch-checked cutover, in either
// deployment. `apply_adjust_targets` runs it over a plan's targets.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/client_seam.h"
#include "cluster/repartition_exec.h"
#include "common/units.h"
#include "workload/file_catalog.h"

namespace spcache {

struct OnlineAdjustConfig {
  double split_factor = 2.0;     // split when target_k >= factor * current_k
  double merge_factor = 0.5;     // merge when target_k <= factor * current_k
  std::size_t max_ops_per_file = 8;  // gradual adjustment per invocation
};

// One file's layout after its split/merge sequence: piece_sizes[j] bytes
// of piece j on servers[j].
struct AdjustTarget {
  FileId file = 0;
  std::vector<std::uint32_t> servers;
  std::vector<Bytes> piece_sizes;
};

// Decide the targets from the live catalog (sizes + tracked rates), the
// current scale factor `alpha` (Algorithm 1's, or the AlphaController's)
// and the current layouts, read with LayoutService::peek. Splits halve the
// largest piece onto the least-loaded server (by resident pieces) not
// already holding the file; merges fold the last piece into its
// predecessor. Files that need no change get no target. Throws
// std::invalid_argument unless alpha > 0.
std::vector<AdjustTarget> plan_online_adjust(const Catalog& live_catalog, LayoutService& layouts,
                                             std::size_t n_servers, double alpha,
                                             const OnlineAdjustConfig& config);

// What applying a plan did. Every field counts only the moves that
// landed: files, split and merge steps (from the piece counts each move
// went from and to), remote bytes, and their per-NIC traffic.
struct AdjustApplied {
  explicit AdjustApplied(std::size_t n_servers) : nics(n_servers) {}
  std::size_t files = 0;
  std::size_t splits = 0;
  std::size_t merges = 0;
  Bytes bytes_moved = 0;
  NicLedger nics;
};

// Move each target's file onto its target layout with one
// delta_repartition_file, in order, on the caller's thread. A move that
// fails (a dead server it reads or writes, or a racing writer) keeps the
// file's old layout and is not counted.
AdjustApplied apply_adjust_targets(PieceStore& store, LayoutService& layouts,
                                   const std::vector<AdjustTarget>& targets,
                                   std::size_t n_servers);

}  // namespace spcache
