#include "cluster/alpha_controller.h"

#include <cmath>
#include <stdexcept>
#include <utility>

namespace spcache {

AlphaController::AlphaController(LayoutService& layouts, PieceStore& store,
                                 std::vector<Bandwidth> bandwidths, PopularityTracker& tracker,
                                 AlphaControllerConfig config, double initial_alpha,
                                 std::uint64_t placement_seed)
    : layouts_(layouts),
      store_(store),
      bandwidths_(std::move(bandwidths)),
      tracker_(tracker),
      config_(config),
      alpha_(initial_alpha),
      placement_seed_(placement_seed) {
  if (!(initial_alpha > 0.0)) {
    throw std::invalid_argument("AlphaController: initial_alpha must be > 0");
  }
}

void AlphaController::attach_observability(obs::MetricsRegistry* registry,
                                           obs::TraceRecorder* trace) {
  trace_ = trace;
  if (registry == nullptr) {
    triggers_ = adaptations_ = skipped_cooldown_ = skipped_deadband_ = nullptr;
    splits_ = merges_ = bytes_moved_ = search_iterations_ = nullptr;
    alpha_gauge_ = eta_gauge_ = nullptr;
    return;
  }
  triggers_ = &registry->counter(obs::names::kControllerTriggers);
  adaptations_ = &registry->counter(obs::names::kControllerAdaptations);
  skipped_cooldown_ = &registry->counter(obs::names::kControllerSkippedCooldown);
  skipped_deadband_ = &registry->counter(obs::names::kControllerSkippedDeadband);
  splits_ = &registry->counter(obs::names::kControllerSplits);
  merges_ = &registry->counter(obs::names::kControllerMerges);
  bytes_moved_ = &registry->counter(obs::names::kControllerBytesMoved);
  search_iterations_ = &registry->counter(obs::names::kControllerSearchIterations);
  alpha_gauge_ = &registry->gauge(obs::names::kControllerAlphaMicro);
  eta_gauge_ = &registry->gauge(obs::names::kControllerEtaMicro);
  alpha_gauge_->set(static_cast<std::int64_t>(alpha_ * 1e6));
}

AdaptOutcome AlphaController::observe(const std::vector<double>& cumulative_loads,
                                      const std::vector<Bytes>& file_sizes, Seconds now) {
  AdaptOutcome outcome;
  outcome.eta = window_.update(cumulative_loads);
  outcome.alpha_before = alpha_;
  outcome.alpha_after = alpha_;
  if (eta_gauge_ != nullptr) {
    eta_gauge_->set(static_cast<std::int64_t>(outcome.eta * 1e6));
  }
  if (outcome.eta < config_.eta_trigger) return outcome;

  outcome.triggered = true;
  if (triggers_ != nullptr) triggers_->add();
  if (trace_ != nullptr) {
    trace_->record(obs::TraceKind::kAlphaTrigger, 0, 0, 0, 0, outcome.eta);
  }
  // Cooldown hysteresis: an adaptation just happened; give its splits time
  // to show up in the next windows before re-deciding.
  if (ever_adapted_ && now - last_adaptation_ < config_.cooldown) {
    if (skipped_cooldown_ != nullptr) skipped_cooldown_->add();
    return outcome;
  }
  const AdaptOutcome acted = run_adaptation(file_sizes, now, outcome.eta);
  outcome.adapted = acted.adapted;
  outcome.alpha_after = acted.alpha_after;
  outcome.search_iterations = acted.search_iterations;
  outcome.splits = acted.splits;
  outcome.merges = acted.merges;
  outcome.bytes_moved = acted.bytes_moved;
  return outcome;
}

AdaptOutcome AlphaController::adapt_now(const std::vector<Bytes>& file_sizes, Seconds now) {
  return run_adaptation(file_sizes, now, window_.last_eta());
}

AdaptOutcome AlphaController::run_adaptation(const std::vector<Bytes>& file_sizes, Seconds now,
                                             double eta) {
  AdaptOutcome outcome;
  outcome.eta = eta;
  outcome.alpha_before = alpha_;

  // Decide: incremental Algorithm 1 over the tracker's live rates.
  const Catalog live = tracker_.snapshot(file_sizes, now, config_.min_rate);
  const ScaleFactorResult refined =
      refine_scale_factor(live, bandwidths_, config_.search, placement_seed_, alpha_);
  outcome.search_iterations = refined.iterations;
  if (search_iterations_ != nullptr) search_iterations_->add(refined.iterations);

  if (refined.alpha > 0.0 &&
      std::abs(refined.alpha - alpha_) > config_.alpha_deadband * alpha_) {
    alpha_ = refined.alpha;
    if (trace_ != nullptr) {
      trace_->record(obs::TraceKind::kAlphaAdapted, 0, 0, 0, 0, alpha_);
    }
  } else if (skipped_deadband_ != nullptr) {
    // The elbow didn't move: keep the current alpha stable (no churn), but
    // still re-plan below — the *distribution* of load may have shifted
    // under an unchanged elbow (e.g. the hot rank rotated).
    skipped_deadband_->add();
  }
  outcome.alpha_after = alpha_;
  if (alpha_gauge_ != nullptr) {
    alpha_gauge_->set(static_cast<std::int64_t>(alpha_ * 1e6));
  }

  // Act: move each file to its Eq. 1 target at the (possibly new) alpha.
  // Only moves that landed are counted.
  const auto applied = apply_adjust_targets(
      store_, layouts_,
      plan_online_adjust(live, layouts_, bandwidths_.size(), alpha_, config_.adjust),
      bandwidths_.size());
  outcome.splits = applied.splits;
  outcome.merges = applied.merges;
  outcome.bytes_moved = applied.bytes_moved;
  outcome.adapted = true;
  last_adaptation_ = now;
  ever_adapted_ = true;

  if (adaptations_ != nullptr) adaptations_->add();
  if (splits_ != nullptr) splits_->add(outcome.splits);
  if (merges_ != nullptr) merges_->add(outcome.merges);
  if (bytes_moved_ != nullptr) bytes_moved_->add(outcome.bytes_moved);
  return outcome;
}

}  // namespace spcache
