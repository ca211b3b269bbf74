#include "cluster/online_adjust.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>

namespace spcache {

namespace {

std::size_t target_partitions(double alpha, double load, std::size_t n_servers) {
  const double raw = std::ceil(alpha * load);
  return std::clamp<std::size_t>(raw <= 1.0 ? 1 : static_cast<std::size_t>(raw), 1, n_servers);
}

}  // namespace

std::vector<AdjustTarget> plan_online_adjust(const Catalog& live_catalog, LayoutService& layouts,
                                             std::size_t n_servers, double alpha,
                                             const OnlineAdjustConfig& config) {
  if (!(alpha > 0.0)) {
    // Under alpha = 0 every target_k degenerates to 1 and the plan
    // silently merges the whole cluster down to unpartitioned files.
    // Refuse loudly instead.
    throw std::invalid_argument(
        "plan_online_adjust: alpha must be > 0 (supply Algorithm 1's scale factor)");
  }
  std::vector<AdjustTarget> targets;

  // Current layouts, and per-server piece counts for least-loaded split
  // targets.
  std::vector<std::optional<FileMeta>> metas(live_catalog.size());
  std::vector<std::size_t> server_pieces(n_servers, 0);
  for (FileId id = 0; id < metas.size(); ++id) {
    metas[id] = layouts.peek(id);
    if (!metas[id]) continue;
    for (std::uint32_t s : metas[id]->servers) ++server_pieces[s];
  }

  for (FileId id = 0; id < metas.size(); ++id) {
    if (!metas[id]) continue;
    const FileMeta& meta = *metas[id];
    const std::size_t current_k = meta.partitions();
    const std::size_t target_k = target_partitions(alpha, live_catalog.load(id), n_servers);
    AdjustTarget target{id, meta.servers, meta.piece_sizes};
    auto& sizes = target.piece_sizes;
    auto& holders = target.servers;

    if (static_cast<double>(target_k) >=
        config.split_factor * static_cast<double>(current_k)) {
      // Grow gradually toward the target: repeatedly halve the largest
      // piece.
      const std::size_t ops =
          std::min(config.max_ops_per_file, target_k > current_k ? target_k - current_k : 0);
      for (std::size_t op = 0; op < ops && sizes.size() < n_servers; ++op) {
        const auto largest = static_cast<std::size_t>(
            std::max_element(sizes.begin(), sizes.end()) - sizes.begin());
        if (sizes[largest] < 2) break;  // nothing left to halve
        // Least-loaded server not already holding a piece of this file.
        std::size_t best = n_servers;
        std::size_t best_load = std::numeric_limits<std::size_t>::max();
        for (std::size_t s = 0; s < n_servers; ++s) {
          if (std::find(holders.begin(), holders.end(), static_cast<std::uint32_t>(s)) !=
              holders.end()) {
            continue;
          }
          if (server_pieces[s] < best_load) {
            best = s;
            best_load = server_pieces[s];
          }
        }
        if (best == n_servers) break;
        ++server_pieces[best];
        const Bytes half = sizes[largest] / 2;
        sizes.insert(sizes.begin() + static_cast<std::ptrdiff_t>(largest) + 1,
                     sizes[largest] - half);
        sizes[largest] = half;
        holders.insert(holders.begin() + static_cast<std::ptrdiff_t>(largest) + 1,
                       static_cast<std::uint32_t>(best));
      }
    } else if (current_k > 1 &&
               static_cast<double>(target_k) <=
                   config.merge_factor * static_cast<double>(current_k)) {
      // Shrink gradually: fold the last piece into its predecessor.
      const std::size_t ops =
          std::min(config.max_ops_per_file, current_k > target_k ? current_k - target_k : 0);
      for (std::size_t op = 0; op < ops && sizes.size() > 1 && sizes.size() > target_k; ++op) {
        sizes[sizes.size() - 2] += sizes.back();
        sizes.pop_back();
        holders.pop_back();
      }
    }
    if (holders.size() != current_k) targets.push_back(std::move(target));
  }
  return targets;
}

AdjustApplied apply_adjust_targets(PieceStore& store, LayoutService& layouts,
                                   const std::vector<AdjustTarget>& targets,
                                   std::size_t n_servers) {
  AdjustApplied applied(n_servers);
  for (const auto& target : targets) {
    const auto done = delta_repartition_file(store, layouts, target.file, target.piece_sizes,
                                             target.servers);
    if (!done) continue;
    ++applied.files;
    const std::size_t k = target.servers.size();
    if (k > done->old_partitions) {
      applied.splits += k - done->old_partitions;
    } else {
      applied.merges += done->old_partitions - k;
    }
    applied.bytes_moved += done->plan.bytes_moved;
    applied.nics.add(done->plan);
  }
  return applied;
}

}  // namespace spcache
