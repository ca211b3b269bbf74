// Scenario driver: replays an adversarial ScenarioScript against the
// threaded cluster and reports per-phase health.
//
// The driver is the harness that turns the script into real traffic:
//
//   * it lays the cluster out with an offline Algorithm 1 run on phase 0's
//     catalog (the "yesterday's re-balance" baseline every phase then
//     stresses), writes every file through SpClient and checkpoints it to
//     stable storage;
//   * each phase's arrivals come from the existing Poisson/MMPP
//     generators against the phase catalog; every read is verified
//     bit-exact against the original bytes; modelled (virtual-time)
//     latency — optionally straggler-inflated — lands in a per-phase
//     histogram;
//   * scripted faults ride the FaultInjector crash list: explicit events,
//     plus the correlated-failure resolver that kills ceil(N/3) of the
//     hot file's current holders and later runs
//     RecoveryManager::repair_after_server_loss under live traffic;
//   * with `adaptive` on, an AlphaController observes the cluster's
//     served-bytes deltas every `controller_every` requests and closes
//     the observe -> decide -> act loop; with it off, alpha stays frozen
//     at the offline value — the control arm the bench compares against.
//
// Determinism: all timing is virtual (arrival timestamps; modelled
// latencies), per-phase RNG streams are derived from the script seed, and
// with threads = 1 the full TraceRecorder sequence is a pure function of
// (script, config) — the replay test pins two runs to same_shape
// equality.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cluster/alpha_controller.h"
#include "common/units.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "scenario/script.h"

namespace spcache::scenario {

struct ScenarioDriverConfig {
  std::size_t n_servers = 10;
  Bandwidth bandwidth = gbps(1.0);
  // Piece-fetch pool width. 1 (the default) makes the trace sequence
  // deterministic; benches may widen it for wall-clock throughput.
  std::size_t threads = 1;
  // false = frozen-alpha control arm: no controller, no split/merge.
  bool adaptive = true;
  AlphaControllerConfig controller;
  // observe() cadence, in requests.
  std::size_t controller_every = 16;
  Seconds tracker_half_life = 5.0;

  ScenarioDriverConfig() {
    // Scenario phases run seconds of virtual time, not the 12-hour epochs
    // of the offline path — tighten the loop accordingly.
    controller.eta_trigger = 0.8;
    controller.cooldown = 1.0;
    controller.adjust.max_ops_per_file = 8;
  }
};

struct PhaseReport {
  std::string name;
  std::size_t requests = 0;
  std::size_t failures = 0;    // reads that exhausted the retry budget
  std::size_t mismatches = 0;  // reads returning wrong bytes (must be 0)

  double eta = 0.0;  // Eq. 15 over this phase's served-bytes delta
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  obs::HistogramSnapshot latency;  // modelled, straggler-inflated

  std::size_t retries = 0;
  std::size_t degraded_reads = 0;
  std::size_t degraded_pieces = 0;

  // Controller activity within the phase (zero when frozen).
  std::size_t triggers = 0;
  std::size_t adaptations = 0;
  std::size_t splits = 0;
  std::size_t merges = 0;
  Bytes bytes_moved = 0;
  double alpha_end = 0.0;

  // Scripted fault activity.
  std::size_t kills = 0;
  std::size_t revives = 0;
  std::size_t repairs = 0;

  // The phase's hottest file and its partition count at phase start/end —
  // the flash-crowd test asserts end > start under the adaptive controller.
  FileId hot_file = 0;
  std::size_t hot_partitions_start = 0;
  std::size_t hot_partitions_end = 0;
};

struct ScenarioReport {
  std::string scenario;
  bool adaptive = false;
  double initial_alpha = 0.0;
  std::vector<PhaseReport> phases;

  double worst_eta() const;
  double worst_p99_ms() const;
  std::size_t total_failures() const;
  std::size_t total_mismatches() const;
};

class ScenarioDriver {
 public:
  ScenarioDriver(ScenarioScript script, ScenarioDriverConfig config = {});

  // Run the whole script. `registry`/`trace` are optional sinks: the
  // cluster, client, stable store, and controller attach to them when
  // given, and the driver marks each phase boundary with a
  // kScenarioPhase trace event.
  ScenarioReport run(obs::MetricsRegistry* registry = nullptr,
                     obs::TraceRecorder* trace = nullptr);

 private:
  ScenarioScript script_;
  ScenarioDriverConfig config_;
};

}  // namespace spcache::scenario
