#include "scenario/driver.h"

#include <algorithm>
#include <set>
#include <stdexcept>

#include "cluster/client.h"
#include "cluster/stable_store.h"
#include "common/thread_pool.h"
#include "math/scale_factor.h"
#include "workload/popularity_tracker.h"
#include "workload/straggler.h"

namespace spcache::scenario {

namespace {

std::vector<std::uint8_t> pattern_bytes(std::size_t n, std::uint32_t seed) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::uint8_t>(seed * 31 + i * 7);
  return v;
}

fault::RetryPolicy scenario_retry() {
  fault::RetryPolicy policy;
  policy.piece_attempts = 3;
  policy.read_attempts = 6;
  policy.base_backoff = std::chrono::microseconds(50);
  policy.max_backoff = std::chrono::microseconds(500);
  return policy;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  return seed ^ (0x9e3779b97f4a7c15ULL * (stream + 1));
}

}  // namespace

double ScenarioReport::worst_eta() const {
  double worst = 0.0;
  for (const auto& p : phases) worst = std::max(worst, p.eta);
  return worst;
}

double ScenarioReport::worst_p99_ms() const {
  double worst = 0.0;
  for (const auto& p : phases) worst = std::max(worst, p.p99_ms);
  return worst;
}

std::size_t ScenarioReport::total_failures() const {
  std::size_t n = 0;
  for (const auto& p : phases) n += p.failures;
  return n;
}

std::size_t ScenarioReport::total_mismatches() const {
  std::size_t n = 0;
  for (const auto& p : phases) n += p.mismatches;
  return n;
}

ScenarioDriver::ScenarioDriver(ScenarioScript script, ScenarioDriverConfig config)
    : script_(std::move(script)), config_(config) {
  if (script_.phases.empty()) {
    throw std::invalid_argument("ScenarioDriver: script has no phases");
  }
}

ScenarioReport ScenarioDriver::run(obs::MetricsRegistry* registry, obs::TraceRecorder* trace) {
  ScenarioReport report;
  report.scenario = script_.name;
  report.adaptive = config_.adaptive;

  Cluster cluster(config_.n_servers, config_.bandwidth);
  Master master;
  ThreadPool pool(std::max<std::size_t>(1, config_.threads));
  StableStore stable;
  if (registry != nullptr) cluster.attach_observability(registry);

  // Offline Algorithm 1 on phase 0's catalog: "yesterday's re-balance".
  // find_scale_factor draws the placement seed as its Rng's first u64, so
  // re-deriving it from a sibling Rng hands the controller the exact seed
  // the offline bounds were computed under.
  const Catalog initial = phase_catalog(script_, script_.phases.front());
  const auto bandwidths = cluster.bandwidths();
  const std::uint64_t placement_seed = Rng(script_.seed).next_u64();
  Rng search_rng(script_.seed);
  const ScaleFactorResult offline =
      find_scale_factor(initial, bandwidths, config_.controller.search, search_rng);
  report.initial_alpha = offline.alpha;

  SpClient client(cluster, master, pool, &stable, scenario_retry());
  if (registry != nullptr || trace != nullptr) client.attach_observability(registry, trace);

  // Populate: Eq. 1 partition counts on random distinct servers, every
  // file checkpointed so degraded reads always have a stable fallback.
  std::vector<std::vector<std::uint8_t>> originals(script_.n_files);
  std::vector<Bytes> sizes(script_.n_files, script_.file_size);
  Rng place_rng(mix_seed(script_.seed, 0x9'1aceULL));
  for (FileId f = 0; f < script_.n_files; ++f) {
    originals[f] = pattern_bytes(script_.file_size, f);
    const std::size_t k = offline.partition_counts[f];
    const auto sampled = place_rng.sample_without_replacement(config_.n_servers, k);
    std::vector<std::uint32_t> servers(sampled.begin(), sampled.end());
    client.write(f, originals[f], servers);
    stable.checkpoint(f, originals[f]);
  }

  PopularityTracker tracker(config_.tracker_half_life);
  const auto store = make_inproc_piece_store(cluster, nullptr);
  const auto layouts = make_inproc_layout_service(master, nullptr);
  std::optional<AlphaController> controller;
  if (config_.adaptive) {
    controller.emplace(*layouts, *store, bandwidths, tracker, config_.controller, offline.alpha,
                       placement_seed);
    controller->attach_observability(registry, trace);
  }

  Seconds now = 0.0;
  for (std::size_t phase_idx = 0; phase_idx < script_.phases.size(); ++phase_idx) {
    const PhaseSpec& spec = script_.phases[phase_idx];
    Rng phase_rng(mix_seed(script_.seed, phase_idx + 1));
    const Catalog catalog = phase_catalog(script_, spec);
    const auto arrivals =
        spec.arrivals == ArrivalKind::kMmpp
            ? generate_mmpp_arrivals(catalog, spec.mmpp, spec.requests, phase_rng)
            : generate_poisson_arrivals(catalog, spec.requests, phase_rng);
    const StragglerModel straggler = spec.straggler_p > 0.0
                                         ? StragglerModel::bing(spec.straggler_p)
                                         : StragglerModel::none();

    // Scripted faults ride the injector's crash list. The correlated-
    // failure resolver targets the hot file's holders *as laid out now* —
    // after any adaptation the previous phases performed.
    fault::FaultInjector injector(mix_seed(script_.seed, 0xfa17ULL + phase_idx));
    for (const auto& event : spec.events) injector.schedule(event);
    if (spec.kill_hot_holders) {
      const FileId hot = phase_hot_file(script_, spec);
      const auto meta = master.peek(hot);
      std::vector<std::uint32_t> holders = meta ? meta->servers : std::vector<std::uint32_t>{};
      std::sort(holders.begin(), holders.end());
      holders.erase(std::unique(holders.begin(), holders.end()), holders.end());
      const std::size_t n_kill =
          std::min(holders.size(), (config_.n_servers + 2) / 3);
      for (std::size_t i = 0; i < n_kill; ++i) {
        injector.schedule(fault::CrashEvent{spec.kill_at, holders[i],
                                            fault::CrashEvent::Action::kKill});
      }
    }

    if (trace != nullptr) {
      trace->record(obs::TraceKind::kScenarioPhase, 0, phase_idx, 0, 0,
                    static_cast<double>(spec.requests));
    }

    PhaseReport phase;
    phase.name = spec.name;
    phase.hot_file = phase_hot_file(script_, spec);
    if (const auto meta = master.peek(phase.hot_file)) {
      phase.hot_partitions_start = meta->partitions();
    }
    const auto loads_start = cluster.served_bytes();
    obs::LatencyHistogram latency;
    const Seconds phase_start = now;
    std::set<std::uint32_t> dead;

    for (std::size_t i = 0; i < arrivals.size(); ++i) {
      for (const auto& event : injector.due(i)) {
        if (event.action == fault::CrashEvent::Action::kKill) {
          cluster.kill(event.server);
          dead.insert(event.server);
          ++phase.kills;
        } else {
          cluster.revive(event.server);
          dead.erase(event.server);
          ++phase.revives;
        }
      }
      if (spec.repair_at != 0 && i == spec.repair_at) {
        RecoveryManager recovery(cluster, master, stable);
        if (registry != nullptr) recovery.attach_observability(registry);
        for (const std::uint32_t s : dead) {
          recovery.repair_after_server_loss(s);
          ++phase.repairs;
        }
      }

      now = phase_start + arrivals[i].time;
      const FileId f = arrivals[i].file;
      tracker.record(f, now);
      try {
        const IoResult io = client.read(f);
        phase.retries += io.retries;
        if (io.degraded) ++phase.degraded_reads;
        phase.degraded_pieces += io.degraded_pieces;
        const double slowdown =
            straggler.enabled() ? straggler.sample_slowdown(phase_rng) : 1.0;
        latency.record(io.network_time * slowdown);
        if (io.bytes != originals[f]) ++phase.mismatches;
      } catch (const std::exception&) {
        ++phase.failures;
      }
      ++phase.requests;

      if (controller && (i + 1) % config_.controller_every == 0) {
        const AdaptOutcome out = controller->observe(cluster.served_bytes(), sizes, now);
        phase.triggers += out.triggered ? 1 : 0;
        phase.adaptations += out.adapted ? 1 : 0;
        phase.splits += out.splits;
        phase.merges += out.merges;
        phase.bytes_moved += out.bytes_moved;
      }
    }

    // Phase cleanup: revive anything the script killed (a repaired layout
    // no longer references the dead servers; an unrepaired one degrades
    // until the next repair — either way the next phase starts with a
    // full complement of servers).
    for (const std::uint32_t s : dead) {
      if (!cluster.is_alive(s)) {
        cluster.revive(s);
        ++phase.revives;
      }
    }

    const auto loads_end = cluster.served_bytes();
    std::vector<double> window(loads_end.size());
    for (std::size_t s = 0; s < loads_end.size(); ++s) {
      window[s] = loads_end[s] - loads_start[s];
    }
    phase.eta = obs::load_eta(window);
    if (const auto meta = master.peek(phase.hot_file)) {
      phase.hot_partitions_end = meta->partitions();
    }
    phase.alpha_end = controller ? controller->alpha() : offline.alpha;
    phase.latency = latency.snapshot();
    phase.p50_ms = phase.latency.percentile(0.50) * 1e3;
    phase.p99_ms = phase.latency.percentile(0.99) * 1e3;

    now = phase_start + (arrivals.empty() ? 0.0 : arrivals.back().time) + 1e-3;
    report.phases.push_back(std::move(phase));
  }
  return report;
}

}  // namespace spcache::scenario
