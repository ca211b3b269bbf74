// Per-layer metrics of the traced run. Each layer's public functions are
// replayed on the workload's own inputs — its catalog, placements, piece
// sizes and recorded file sequence — or read off the traced window when the
// workload itself drives that layer.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.h"
#include "workloads.h"

namespace perfbench {

struct LayerReport {
  MetricSet metrics;
  const Options* options = nullptr;
  Workload* workload = nullptr;
  // Mean duration / self time of the named span over everything the
  // workload's recorder holds (call only while no thread records).
  double span_mean_us(const std::string& name) const;
  double span_mean_self_us(const std::string& name) const;
};

// cluster.client.* from SpClient spans and the attached registry.
void sp_client_metrics(LayerReport& report, spcache::obs::MetricsRegistry* registry,
                       std::uint64_t reads, std::uint64_t retries);
// math.* / core.* / cluster.repartition.* from re-balance epochs (medians).
void epoch_metrics(LayerReport& report, const std::vector<EpochStats>& epochs);

// rpc.*: boots three daemons, loads the files of the recorded sequences,
// and replays those reads through one RpcSpClient endpoint.
void replay_rpc(LayerReport& report);
// cluster.client.* and re-balance epochs for workloads without an
// in-process SP cluster: loads the catalog into one and replays the reads.
void replay_sp(LayerReport& report);
// cluster.master, cluster.store, simd, erasure and rpc.frame replays — the
// same for every workload, on that workload's inputs.
void replay_common(LayerReport& report);

}  // namespace perfbench
