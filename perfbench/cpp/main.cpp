// perfbench — the repository benchmark binary. Normally started through
// perfbench/run.py, which builds it; see perfbench/README.md.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --bindir DIR --workdir DIR [--trace-out FILE]
//             [--git-sha SHA] [--git-dirty 0|1]
//   perfbench --selftest
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// runs the same workload untraced and then traced (half the seconds each)
// and reports the per-layer metrics. The last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}; the line before it is the
// run's provenance, and an untraced run prints its wall-clock figures on the
// line before that. Exit status is 0 only when every operation succeeded and
// verified.
#include <malloc.h>
#include <signal.h>
#include <stdlib.h>
#include <sys/utsname.h>

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench_util.h"
#include "layers.h"
#include "selftest.h"
#include "simd/simd.h"
#include "workloads.h"

using namespace perfbench;

namespace {

constexpr int kSetups = 5;

const std::vector<std::string> kEndToEnd = {"read_frac_memcpy", "imbalance_eta",
                                           "storage_overhead", "good_ops_ratio",
                                           "setup_s",          "peak_rss_mb"};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N --seconds S --trace 0|1 --bindir DIR "
               "--workdir DIR [--trace-out FILE] [--git-sha SHA] [--git-dirty 0|1]\n"
               "       perfbench --selftest\n";
  std::exit(2);
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

struct Latency {
  double ops_per_s = 0.0, p50_ms = 0.0, p99_ms = 0.0;
};

// Throughput over the whole window and nearest-rank percentiles of all of
// its samples.
Latency summarize(const OpSamples& s, const char* kind) {
  std::vector<double> all = s.latency_s;
  std::sort(all.begin(), all.end());
  if (!percentile_supported(all.size(), 0.99)) {
    throw std::runtime_error(std::string(kind) + ": " + std::to_string(all.size()) +
                             " samples cannot support p99 (need 1000)");
  }
  return Latency{static_cast<double>(all.size()) / s.wall_s, percentile_checked(all, 0.50) * 1e3,
                 percentile_checked(all, 0.99) * 1e3};
}

std::string provenance(const Options& o, double steal) {
  struct utsname u {};
  ::uname(&u);
  std::ostringstream out;
  out << "{\"workload\": \"" << o.workload << "\", \"seed\": " << o.seed
      << ", \"seconds\": " << format_double(o.seconds) << ", \"trace\": " << (o.trace ? 1 : 0)
      << ", \"git_sha\": \"" << json_escape(o.git_sha) << "\", \"git_dirty\": \""
      << json_escape(o.git_dirty) << "\", \"cpu_model\": \"" << json_escape(cpu_model())
      << "\", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"caller_threads\": " << caller_threads() << ", \"simd_level\": \""
      << spcache::simd::level_name(spcache::simd::active_level()) << "\", \"build_type\": \""
      << PERFBENCH_BUILD_TYPE << "\", \"compiler\": \"" << json_escape(PERFBENCH_COMPILER)
      << "\", \"kernel\": \"" << json_escape(u.release)
      << "\", \"steal_frac\": " << format_double(steal) << "}";
  return out.str();
}

struct Outcome {
  MetricSet metrics;
  std::uint64_t attempted = 0;
  std::uint64_t bad = 0;
  std::vector<std::string> errors;
  double steal = 0.0;  // share of the busy vCPU time stolen in the measured window
};

void count(Outcome& out, const OpSamples& s, const char* kind) {
  out.attempted += s.attempted;
  out.bad += s.bad();
  if (s.bad() != 0) {
    out.errors.push_back(std::string(kind) + ": " + std::to_string(s.failed) + " failed, " +
                         std::to_string(s.mismatched) + " mismatched; first error: " +
                         s.first_error);
  }
}

Outcome run_untraced(Workload& w, const Options& o) {
  Outcome out;
  OpSamples load_writes;
  std::vector<double> setup_wall, setup_cpu;
  for (int i = 0; i < kSetups; ++i) {
    if (i > 0) w.teardown();
    const Timing t = w.setup(load_writes);
    setup_wall.push_back(t.wall_s);
    setup_cpu.push_back(t.cpu_s);
  }
  restart_peak_rss();
  const WindowStats win = w.run_window(o.seconds);
  const std::vector<double> epochs = w.rebalance_epochs();
  out.steal = win.steal;
  OpSamples checks;
  w.verify_written(checks);
  const double storage = w.storage_overhead();
  const double rss = peak_rss_mib();
  w.teardown();

  // Workloads that write inside the window report those writes; the
  // read-only ones report the writes that loaded their dataset.
  const OpSamples& writes = win.writes.attempted > 0 ? win.writes : load_writes;
  count(out, win.reads, "reads");
  count(out, writes, "writes");
  count(out, checks, "read-back checks");
  if (&writes != &load_writes) count(out, load_writes, "dataset load");
  const Latency r = summarize(win.reads, "reads");
  const Latency wr = summarize(writes, "writes");
  auto& m = out.metrics;
  m.add("read_frac_memcpy", win.reads.frac_memcpy(), "ratio");
  m.add("imbalance_eta", eq15_eta(win.server_load), "ratio");
  m.add("storage_overhead", storage, "ratio");
  m.add("good_ops_ratio",
        static_cast<double>(out.attempted - out.bad) / static_cast<double>(out.attempted), "ratio");
  m.add("setup_s", median(setup_cpu), "s");
  m.add("peak_rss_mb", rss, "MiB");

  // Wall-clock figures, printed for reading but not reported as metrics:
  // on a shared host they move with what other guests do.
  std::cout << "wall: reads=" << win.reads.attempted << " writes=" << writes.attempted
            << " checks=" << checks.attempted << " window_s=" << format_double(win.wall_s)
            << " read_ops_per_s=" << format_double(r.ops_per_s)
            << " read_p50_ms=" << format_double(r.p50_ms)
            << " read_p99_ms=" << format_double(r.p99_ms)
            << " write_ops_per_s=" << format_double(wr.ops_per_s)
            << " write_p50_ms=" << format_double(wr.p50_ms)
            << " write_p99_ms=" << format_double(wr.p99_ms)
            << " repartition_s=" << format_double(median(epochs))
            << " setup_s=" << format_double(median(setup_wall))
            << " read_memcpy_gbps=" << format_double(win.reads.memcpy.bytes_per_s() / 1e9) << "\n";
  return out;
}

Outcome run_traced(Workload& w, const Options& o, const std::string& trace_out,
                   spcache::obs::MetricsRegistry& registry) {
  Outcome out;
  OpSamples load_writes;
  w.spans.set_enabled(true);
  w.setup(load_writes);
  w.spans.set_enabled(false);
  const WindowStats untraced = w.run_window(o.seconds / 2);
  w.attach_observability(&registry);
  w.spans.set_enabled(true);
  const WindowStats traced = w.run_window(o.seconds / 2);
  (void)w.rebalance_epochs();
  out.steal = (untraced.steal + traced.steal) / 2;
  OpSamples checks;
  w.verify_written(checks);
  count(out, load_writes, "dataset load");
  count(out, untraced.reads, "untraced reads");
  count(out, untraced.writes, "untraced writes");
  count(out, traced.reads, "traced reads");
  count(out, traced.writes, "traced writes");
  count(out, checks, "read-back checks");

  LayerReport report;
  report.options = &o;
  report.workload = &w;
  auto stage = Clock::now();
  w.layer_metrics(report);
  std::cout << "layer_metrics_s=" << format_double(seconds_since(stage)) << "\n";
  stage = Clock::now();
  replay_common(report);
  std::cout << "replay_common_s=" << format_double(seconds_since(stage)) << "\n";
  const double untraced_ops = untraced.reads.frac_memcpy();
  const double traced_ops = traced.reads.frac_memcpy();
  report.metrics.add("obs.trace_overhead_frac", 1.0 - traced_ops / untraced_ops, "ratio");
  report.metrics.add("bench.read_op_self_us", report.span_mean_self_us("op.read"), "us");
  report.metrics.add("bench.verify_us", report.span_mean_us("bench.verify"), "us");
  w.spans.set_enabled(false);
  if (!trace_out.empty()) w.spans.write_jsonl(trace_out);
  w.teardown();
  out.metrics = std::move(report.metrics);
  std::cout << "untraced_read_frac_memcpy=" << format_double(untraced_ops)
            << " traced_read_frac_memcpy=" << format_double(traced_ops) << "\n";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  ::signal(SIGPIPE, SIG_IGN);
  // glibc raises its mmap threshold each time a large block is freed, so how
  // a write allocates would depend on what earlier set-ups freed. Pin it at
  // the top of that adaptive range: blocks below 32 MiB always come from the
  // heap, the state the adaptive allocator converges to in a long-lived
  // process.
  ::mallopt(M_MMAP_THRESHOLD, 32 * 1024 * 1024);
  Options o;
  std::string trace_out;
  bool selftest_only = false;
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + flag);
      return argv[++i];
    };
    try {
      if (flag == "--workload") {
        o.workload = value();
        have_workload = true;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value());
        have_seed = true;
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value());
        have_seconds = true;
      } else if (flag == "--trace") {
        const std::string t = value();
        if (t != "0" && t != "1") usage("--trace takes 0 or 1");
        o.trace = t == "1";
        have_trace = true;
      } else if (flag == "--bindir") {
        o.bindir = value();
      } else if (flag == "--workdir") {
        o.workdir = value();
      } else if (flag == "--trace-out") {
        trace_out = value();
      } else if (flag == "--git-sha") {
        o.git_sha = value();
      } else if (flag == "--git-dirty") {
        o.git_dirty = value();
      } else if (flag == "--selftest") {
        selftest_only = true;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::invalid_argument&) {
      usage("bad value for " + flag);
    }
  }

  const int selftest_failures = run_selftest(kEndToEnd);
  if (selftest_only || selftest_failures != 0) {
    std::cout << "selftest: " << (selftest_failures == 0 ? "ok" : "FAILED") << "\n";
    return selftest_failures == 0 ? 0 : 3;
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  if (o.bindir.empty() || o.workdir.empty()) usage("--bindir and --workdir are required");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");

  // A private directory for this run's daemon logs, removed on every exit
  // path out of main.
  std::filesystem::create_directories(o.workdir);
  std::string tmpl = o.workdir + "/run-XXXXXX";
  if (::mkdtemp(tmpl.data()) == nullptr) {
    std::cerr << "perfbench: cannot create a run directory under " << o.workdir << "\n";
    return 1;
  }
  o.workdir = tmpl;
  struct RemoveDir {
    std::string path;
    ~RemoveDir() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  } remove_dir{tmpl};

  // Declared before the workload: the deployment reports into it until torn down.
  spcache::obs::MetricsRegistry registry;
  std::unique_ptr<Workload> w = make_workload(o);
  if (!w) usage("unknown workload " + o.workload);

  Outcome out;
  try {
    out = o.trace ? run_traced(*w, o, trace_out, registry) : run_untraced(*w, o);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << o.workload << " failed: " << e.what() << "\n";
    return 1;
  }
  for (const auto& e : out.errors) std::cerr << "perfbench: integrity: " << e << "\n";
  const bool correct = out.errors.empty();
  std::string metrics_json;
  try {
    metrics_json = out.metrics.to_json();
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  std::cout << "provenance " << provenance(o, out.steal) << "\n";
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.bad
            << ", \"metrics\": " << metrics_json << "}" << std::endl;
  return correct ? 0 : 1;
}
