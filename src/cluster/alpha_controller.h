// Online alpha controller: the closed observe -> decide -> act loop.
//
// PRs 1-7 built every mechanism Section 8 needs — a live popularity
// tracker, Algorithm 1's elbow search, split/merge online adjust, delta
// repartition, Eq. 15 imbalance in the observer — but they were only ever
// driven offline, by hand, from benches. This controller closes the loop:
//
//   observe  ImbalanceWindow differences the cluster's cumulative
//            per-server loads into a recent-traffic window and computes
//            its Eq. 15 eta;
//   decide   when eta crosses `eta_trigger` (and the cooldown has
//            elapsed), re-run Algorithm 1 *incrementally* —
//            refine_scale_factor warm-started at the current alpha over
//            the tracker's live rate snapshot — and apply a relative
//            deadband so a near-identical elbow doesn't churn alpha;
//   act      feed the (possibly updated) alpha into plan_online_adjust
//            and move each file to its target layout with one
//            delta_repartition_file, on the caller's thread.
//
// Triggering on observed imbalance rather than a timer is the point: a
// flash crowd fires the loop within one observation window, while a
// balanced diurnal drift never pays a repartition at all. Hysteresis is
// two-fold — a cooldown (min virtual time between adaptations) and the
// alpha deadband — so oscillating rates cannot thrash the layout (the
// alpha-controller property test pins both).
//
// The controller acts only through the client seam (cluster/client_seam.h):
// a LayoutService to read and cut over layouts, a PieceStore to stage and
// publish pieces. One controller therefore runs in both deployments. A
// move that reads from or writes to a dead server fails to stage or
// publish, keeps the file's old layout and counts nothing; the next
// trigger retries it once repair has moved the file onto live servers. A
// move that only leaves a dead holder's piece in place lands; the loss
// repair restores that piece later.
//
// Determinism: the controller holds the placement seed fixed across
// re-runs (Algorithm 1 line 3 draws it once), takes virtual time from the
// caller, touches no wall clock and moves files one at a time on the
// caller's thread — a seeded scenario replays to an identical adaptation
// sequence.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/client_seam.h"
#include "cluster/online_adjust.h"
#include "common/units.h"
#include "math/scale_factor.h"
#include "obs/cluster_observer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "workload/popularity_tracker.h"

namespace spcache {

struct AlphaControllerConfig {
  // Windowed Eq. 15 eta at or above which the loop fires. Random placement
  // of a skewed catalog sits well under 1 in steady state; a flash crowd
  // pushes the window's eta to several.
  double eta_trigger = 1.0;
  // Relative deadband: a re-run whose alpha is within this fraction of the
  // current alpha keeps the current alpha (the split/merge plan still runs
  // on the fresh catalog — popularity may have shifted under a stable
  // elbow). One grid step of Algorithm 1 is 1.5x, so 0.2 absorbs
  // elbow-adjacent wobble without suppressing real moves.
  double alpha_deadband = 0.2;
  // Minimum virtual time between adaptations (cooldown hysteresis).
  Seconds cooldown = 5.0;
  // Algorithm 1 parameters for the incremental re-run.
  ScaleFactorConfig search;
  // Rate floor handed to PopularityTracker::snapshot for never-seen files.
  double min_rate = 1e-6;
  // Split/merge thresholds of plan_online_adjust.
  OnlineAdjustConfig adjust;
};

// What one observe() call did, for tests and the scenario driver's
// per-phase reports.
struct AdaptOutcome {
  bool triggered = false;   // eta crossed the threshold
  bool adapted = false;     // Algorithm 1 re-ran and the targets were applied
  double eta = 0.0;         // windowed Eq. 15 eta of this observation
  double alpha_before = 0.0;
  double alpha_after = 0.0;
  std::size_t search_iterations = 0;  // grid points refine touched
  // Of the moves that landed: split and merge steps, and remote bytes.
  std::size_t splits = 0;
  std::size_t merges = 0;
  Bytes bytes_moved = 0;
};

class AlphaController {
 public:
  // `bandwidths` are the servers' NIC bandwidths (one per server);
  // `initial_alpha` is the offline Algorithm 1 result the cluster was laid
  // out with; `placement_seed` the seed that run drew (held fixed so every
  // incremental bound is comparable to the original).
  AlphaController(LayoutService& layouts, PieceStore& store, std::vector<Bandwidth> bandwidths,
                  PopularityTracker& tracker, AlphaControllerConfig config,
                  double initial_alpha, std::uint64_t placement_seed);

  // One tick of the loop: window the cumulative loads, fire on imbalance.
  // `cumulative_loads` are the servers' cumulative served bytes;
  // `file_sizes` the catalog sizes (file id == index); `now` virtual time
  // (non-decreasing).
  AdaptOutcome observe(const std::vector<double>& cumulative_loads,
                       const std::vector<Bytes>& file_sizes, Seconds now);

  // Force the decide+act step regardless of trigger/cooldown (tests, and
  // scenario phase boundaries that want a clean baseline).
  AdaptOutcome adapt_now(const std::vector<Bytes>& file_sizes, Seconds now);

  double alpha() const { return alpha_; }
  std::uint64_t placement_seed() const { return placement_seed_; }
  const obs::ImbalanceWindow& window() const { return window_; }

  // Counters/gauges land in `registry` under the controller.* names;
  // trigger/adaptation events in `trace` (both optional, nullptr detaches).
  void attach_observability(obs::MetricsRegistry* registry, obs::TraceRecorder* trace);

 private:
  AdaptOutcome run_adaptation(const std::vector<Bytes>& file_sizes, Seconds now, double eta);

  LayoutService& layouts_;
  PieceStore& store_;
  std::vector<Bandwidth> bandwidths_;
  PopularityTracker& tracker_;
  AlphaControllerConfig config_;
  double alpha_;
  std::uint64_t placement_seed_;

  obs::ImbalanceWindow window_;
  Seconds last_adaptation_ = 0.0;
  bool ever_adapted_ = false;

  obs::TraceRecorder* trace_ = nullptr;
  obs::Counter* triggers_ = nullptr;
  obs::Counter* adaptations_ = nullptr;
  obs::Counter* skipped_cooldown_ = nullptr;
  obs::Counter* skipped_deadband_ = nullptr;
  obs::Counter* splits_ = nullptr;
  obs::Counter* merges_ = nullptr;
  obs::Counter* bytes_moved_ = nullptr;
  obs::Counter* search_iterations_ = nullptr;
  obs::Gauge* alpha_gauge_ = nullptr;
  obs::Gauge* eta_gauge_ = nullptr;
};

}  // namespace spcache
