// Heartbeat-driven failure detection and self-healing recovery
// (Section 8 "Fault Tolerance").
//
// The paper's master learns about dead Alluxio workers from missed
// heartbeats and re-creates their partitions from checkpointed stable
// storage. `HealthMonitor` closes that loop: a monitor thread next to the
// Master pings every cache server once per `heartbeat_interval`; a server
// that misses `missed_beats_to_declare_dead` consecutive beats is
// declared dead, and (with auto_repair on) the monitor immediately runs
// the repair endpoint so the lost partitions are re-placed on live
// servers while readers ride through on retries and degraded
// (stable-store) reads. A revived server rejoins empty and is simply
// marked healthy again — its former partitions already live elsewhere.
//
// The probe and the repair are pluggable endpoints, so the same detection
// state machine drives both deployments, and both repair through the one
// `RecoveryManager`: the threaded cluster probes `Cluster::is_alive` and
// repairs over the in-process PieceStore (the convenience constructor),
// while spcache_masterd probes workers with a kPing RPC over TCP — real
// missed heartbeats from a really dead process — and repairs over the RPC
// PieceStore, picking replacements by this monitor's cached verdicts.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "cluster/cache_server.h"
#include "cluster/stable_store.h"

namespace spcache {

struct HealthMonitorConfig {
  std::chrono::milliseconds heartbeat_interval{2};
  int missed_beats_to_declare_dead = 3;  // K
  bool auto_repair = true;
};

struct HealthStats {
  std::uint64_t beats = 0;  // heartbeat rounds completed
  std::uint64_t deaths_declared = 0;
  std::uint64_t revivals_observed = 0;
  std::uint64_t repairs_completed = 0;
  std::uint64_t repair_failures = 0;
  std::uint64_t pieces_recovered = 0;
  double modelled_repair_time = 0.0;  // aggregate RecoveryStats seconds
};

class HealthMonitor {
 public:
  // Liveness probe for one server: true = it answered this heartbeat.
  // Called off the monitor thread with no lock held, so an RPC probe with
  // a bounded timeout is fine.
  using ProbeFn = std::function<bool(std::uint32_t server)>;
  // Repair endpoint for a declared-dead server; may throw (counted as
  // repair_failures).
  using RepairFn = std::function<RecoveryStats(std::uint32_t server)>;

  HealthMonitor(std::size_t n_servers, ProbeFn probe, RepairFn repair,
                HealthMonitorConfig config = HealthMonitorConfig{});
  // Threaded-cluster convenience: probe Cluster::is_alive, repair through
  // RecoveryManager::repair_after_server_loss.
  HealthMonitor(Cluster& cluster, RecoveryManager& recovery,
                HealthMonitorConfig config = HealthMonitorConfig{});
  ~HealthMonitor();  // stops and joins

  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  void start();
  void stop();
  bool running() const { return running_.load(std::memory_order_acquire); }

  const HealthMonitorConfig& config() const { return config_; }
  HealthStats stats() const;

  // A server is healthy when it answered its latest heartbeat (cached
  // from the last round — no probe is issued here).
  bool server_healthy(std::uint32_t server) const;
  // Every server answering heartbeats and no repair in flight.
  bool all_healthy() const;
  // Poll until all_healthy() (true) or the deadline passes (false).
  bool wait_all_healthy(std::chrono::milliseconds timeout) const;

  // --- Observability (src/obs) ----------------------------------------
  // Resolve "monitor.deaths_declared|repairs_completed|detect_to_repair_s"
  // in `registry` once; with `trace` non-null each declaration/repair also
  // records kServerDeclaredDead/kServerRejoined/kRepairStart/kRepairDone
  // events. The detect_to_repair_s histogram measures the wall span from
  // declaring a server dead to its repair completing — the paper's
  // detection-to-repaired recovery window. Detached by default.
  void attach_observability(obs::MetricsRegistry* registry,
                            obs::TraceRecorder* trace = nullptr);

  struct ObsProbes {
    obs::Counter* deaths = nullptr;
    obs::Counter* repairs = nullptr;
    obs::LatencyHistogram* repair_span = nullptr;
    obs::TraceRecorder* trace = nullptr;
  };

 private:
  void loop();
  void heartbeat_round();

  std::size_t n_servers_;
  ProbeFn probe_;
  RepairFn repair_;
  HealthMonitorConfig config_;

  struct ServerState {
    int missed = 0;
    bool declared_dead = false;
    bool alive = true;  // last probe verdict (optimistic before round 1)
  };

  mutable std::mutex mu_;  // guards states_ and stats_
  std::vector<ServerState> states_;
  HealthStats stats_;
  std::atomic<bool> repair_in_flight_{false};

  std::atomic<bool> running_{false};
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  bool stop_requested_ = false;
  std::thread thread_;
  std::unique_ptr<ObsProbes> probes_storage_;
  std::atomic<ObsProbes*> probes_{nullptr};
};

}  // namespace spcache
