#include "core/repartition.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <numeric>

namespace spcache {

Bytes plain_piece_offset(Bytes size, std::size_t k, std::size_t i) {
  assert(k >= 1);
  assert(i <= k);
  const Bytes base = size / k;
  const Bytes extra = size % k;
  return static_cast<Bytes>(i) * base + std::min<Bytes>(i, extra);
}

std::vector<Bytes> plain_piece_sizes(Bytes size, std::size_t k) {
  std::vector<Bytes> sizes(k);
  for (std::size_t i = 0; i < k; ++i) {
    sizes[i] = plain_piece_offset(size, k, i + 1) - plain_piece_offset(size, k, i);
  }
  return sizes;
}

RangeTransferPlan plan_range_transfer(Bytes size, const std::vector<Bytes>& old_piece_sizes,
                                      const std::vector<std::uint32_t>& old_servers,
                                      const std::vector<Bytes>& new_piece_sizes,
                                      const std::vector<std::uint32_t>& new_servers) {
  assert(old_piece_sizes.size() == old_servers.size());
  assert(new_piece_sizes.size() == new_servers.size());
  assert(!old_servers.empty());
  assert(!new_servers.empty());
  assert(std::accumulate(old_piece_sizes.begin(), old_piece_sizes.end(), Bytes{0}) == size);
  assert(std::accumulate(new_piece_sizes.begin(), new_piece_sizes.end(), Bytes{0}) == size);

  RangeTransferPlan plan;
  plan.file_size = size;
  const std::size_t k_new = new_servers.size();
  plan.pieces.reserve(k_new);

  // Walk the file once, keeping a cursor into the old layout; every
  // crossing of an old boundary inside a new piece starts a fresh source
  // range.
  std::size_t old_piece = 0;
  Bytes old_start = 0;  // file offset where old_piece begins
  Bytes lo = 0;         // file offset where new piece j begins
  for (std::size_t j = 0; j < k_new; ++j) {
    PieceAssembly assembly;
    assembly.new_piece = static_cast<std::uint32_t>(j);
    assembly.dst_server = new_servers[j];
    assembly.piece_size = new_piece_sizes[j];
    const Bytes hi = lo + assembly.piece_size;
    Bytes pos = lo;
    while (pos < hi) {
      // Advance the old cursor past zero-length pieces and pieces that end
      // at or before `pos` (possible when size < k_old leaves empty tails).
      while (old_piece < old_piece_sizes.size() &&
             old_start + old_piece_sizes[old_piece] <= pos) {
        old_start += old_piece_sizes[old_piece];
        ++old_piece;
      }
      assert(old_piece < old_piece_sizes.size());
      const Bytes old_end = old_start + old_piece_sizes[old_piece];
      RangeSource range;
      range.old_piece = static_cast<std::uint32_t>(old_piece);
      range.src_server = old_servers[old_piece];
      range.offset_in_piece = pos - old_start;
      range.offset_in_file = pos;
      range.length = std::min(hi, old_end) - pos;
      range.local = range.src_server == assembly.dst_server;
      if (range.local) {
        plan.bytes_saved += range.length;
      } else {
        plan.bytes_moved += range.length;
      }
      pos += range.length;
      assembly.sources.push_back(range);
    }
    plan.pieces.push_back(std::move(assembly));
    lo = hi;
  }
  return plan;
}

RepartitionPlan plan_repartition(const Catalog& updated_catalog,
                                 const std::vector<Bandwidth>& bandwidth,
                                 const std::vector<std::size_t>& old_k,
                                 const std::vector<std::vector<std::uint32_t>>& old_servers,
                                 const ScaleFactorConfig& search_config, Rng& rng) {
  // Line 3: recompute alpha against the updated popularities.
  const auto search = find_scale_factor(updated_catalog, bandwidth, search_config, rng);
  return plan_repartition_with_alpha(updated_catalog, bandwidth.size(), search.alpha, old_k,
                                     old_servers, rng);
}

RepartitionPlan plan_repartition_with_alpha(
    const Catalog& updated_catalog, std::size_t n_servers, double alpha,
    const std::vector<std::size_t>& old_k,
    const std::vector<std::vector<std::uint32_t>>& old_servers, Rng& rng) {
  assert(old_k.size() == updated_catalog.size());
  assert(old_servers.size() == updated_catalog.size());

  RepartitionPlan plan;
  plan.alpha = alpha;
  // Line 4: new partition counts per Eq. 1.
  plan.new_k = partition_counts_for_alpha(updated_catalog, plan.alpha, n_servers);

  // Lines 5-9: initialize per-server load with the partitions of files that
  // keep their partition count (they stay in place untouched).
  std::vector<std::size_t> server_load(n_servers, 0);
  for (std::size_t i = 0; i < updated_catalog.size(); ++i) {
    if (plan.new_k[i] == old_k[i]) {
      for (std::uint32_t s : old_servers[i]) {
        assert(s < n_servers);
        ++server_load[s];
      }
    }
  }

  // Lines 10-15: greedily place each changed file's k_i partitions on the
  // least-loaded servers not already holding one of its new pieces.
  for (std::size_t i = 0; i < updated_catalog.size(); ++i) {
    if (plan.new_k[i] == old_k[i]) continue;
    const std::size_t k = plan.new_k[i];
    assert(k <= n_servers);
    std::vector<bool> used(n_servers, false);
    std::vector<std::uint32_t> chosen;
    chosen.reserve(k);
    for (std::size_t piece = 0; piece < k; ++piece) {
      std::size_t best = n_servers;
      std::size_t best_load = std::numeric_limits<std::size_t>::max();
      for (std::size_t s = 0; s < n_servers; ++s) {
        if (!used[s] && server_load[s] < best_load) {
          best = s;
          best_load = server_load[s];
        }
      }
      assert(best < n_servers);
      used[best] = true;
      ++server_load[best];
      chosen.push_back(static_cast<std::uint32_t>(best));
    }
    // Executor: a random server among the file's old holders, so one
    // partition is already local (Section 6.2, Fig. 9b).
    const auto& old = old_servers[i];
    const std::uint32_t executor =
        old.empty() ? chosen.front()
                    : old[static_cast<std::size_t>(rng.uniform_index(old.size()))];
    plan.changed_files.push_back(static_cast<FileId>(i));
    plan.new_servers.push_back(std::move(chosen));
    plan.executor.push_back(executor);
  }
  return plan;
}

}  // namespace spcache
