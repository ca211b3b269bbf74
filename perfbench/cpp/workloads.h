// The perfbench workloads and the harnesses they share. Every caller is
// a closed loop: a thread issues its next operation only after the previous
// one returned and was verified.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "cluster/cache_server.h"
#include "cluster/client.h"
#include "cluster/master.h"
#include "cluster/repartition_exec.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "math/scale_factor.h"
#include "obs/metrics.h"
#include "workload/file_catalog.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string bindir;   // holds spcache_masterd / spcache_serverd
  std::string workdir;  // scratch space inside the checkout (daemon logs, span dumps)
  std::string git_sha = "unknown";
  std::string git_dirty = "unknown";
};

// Latency samples and outcome counts of one kind of operation.
struct OpSamples {
  std::vector<double> latency_s;
  double bytes = 0.0;       // bytes the completed operations moved
  double wall_s = 0.0;      // wall time the samples were taken over
  double unstolen_s = 0.0;  // wall_s less the hypervisor's steal share of it
  CopyRate memcpy;          // the callers' memcpy speed over that time (reads only)
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;      // the call threw
  std::uint64_t mismatched = 0;  // the call returned bytes that failed verification
  std::string first_error;       // what the first failed call threw

  void record(double latency, std::size_t op_bytes) {
    latency_s.push_back(latency);
    bytes += static_cast<double>(op_bytes);
  }
  // Bytes moved per second of wall time not stolen by the hypervisor, in
  // units of one caller's memcpy speed measured alongside.
  double frac_memcpy() const { return bytes / unstolen_s / memcpy.bytes_per_s(); }
  // Record the wall time of one stretch of sampling and its steal share.
  void add_wall(double seconds, double steal) {
    wall_s += seconds;
    unstolen_s += seconds * (1.0 - steal);
  }
  // Add another thread's samples of the same window (times are not summed).
  void merge(const OpSamples& other);
  void fail(const std::exception& e) {
    if (failed++ == 0) first_error = e.what();
  }
  std::uint64_t bad() const { return failed + mismatched; }
};

struct WindowStats {
  OpSamples reads;
  OpSamples writes;
  double wall_s = 0.0;
  double steal = 0.0;               // share of the busy vCPU time stolen in the window
  std::vector<double> server_load;  // bytes served per server inside the window
};

// ---- Generated inputs ------------------------------------------------------------
struct WorkloadShape {
  std::size_t servers = 30;
  std::size_t files = 1000;
  double mean_read_bytes = 0.0;  // popularity-weighted mean file size
  double zipf = 1.05;
  double link_gbps = 10.0;       // per-server link speed given to Algorithm 1
};

// The catalog and the placement are part of a workload's definition: they
// come from this fixed seed, so two runs measure the same dataset. --seed
// drives what varies between runs: the Zipf request sequences, the writes'
// choices and versions, the late-binding shard choices, and the content.
inline constexpr std::uint64_t kDatasetSeed = 0x5EEDCA7A;

// Yahoo-like catalog (hot files 15-30x larger, larger files more popular),
// Zipf popularity, drawn with the default YahooSizeModel and rescaled so the
// popularity-weighted mean size is shape.mean_read_bytes. Request rates are
// set so Algorithm 1 sees the cluster 30% utilized.
spcache::Catalog make_catalog(const WorkloadShape& shape, std::uint64_t seed);

// Algorithm 1's model for an in-memory cluster: per-fetch costs of tens of
// microseconds instead of the EC2 defaults' tens of milliseconds.
spcache::ScaleFactorConfig model_config(const WorkloadShape& shape);
std::vector<spcache::Bandwidth> bandwidths(const WorkloadShape& shape);

// Independent Zipf file choices: the popularity inverse CDF of a uniform
// draw from the caller's own Rng.
class ZipfStream {
 public:
  explicit ZipfStream(const spcache::Catalog& catalog);
  spcache::FileId next(spcache::Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

// Popularity for re-balance epoch `e` (1-based): the catalog's popularity
// rotated by n/7 files on odd epochs and back on even ones, so every epoch
// moves about the same bytes and every run re-balances the same way.
spcache::Catalog epoch_popularity(const spcache::Catalog& catalog, std::size_t e);

// The first `n` file choices of reader thread `thread` in its first window.
std::vector<spcache::FileId> file_sequence(const spcache::Catalog& catalog, std::uint64_t seed,
                                           std::size_t thread, std::size_t n);
spcache::Rng thread_rng(std::uint64_t seed, std::size_t thread, std::uint64_t stream);

std::size_t caller_threads();

// ---- In-process SP cluster ------------------------------------------------------------
struct EpochStats {
  double wall_s = 0.0;
  double scale_factor_s = 0.0;
  std::size_t scale_factor_iterations = 0;
  double plan_s = 0.0;
  double changed_fraction = 0.0;
  spcache::RepartitionStats exec;
};

class SpHarness {
 public:
  SpHarness(const WorkloadShape& shape, std::size_t pool_threads);

  // Algorithm 1 over `catalog`, then write files `ids` (content version 0).
  // Write latencies land in `writes`.
  void load(const spcache::Catalog& catalog, const std::vector<spcache::FileId>& ids,
            std::uint64_t seed, SpanRecorder* spans, OpSamples& writes);

  // One re-balance epoch: Algorithm 1 on `popularity`, Algorithm 2's plan
  // against the master's current layouts, delta execution.
  EpochStats rebalance(spcache::Catalog popularity, spcache::Rng& rng, SpanRecorder* spans,
                       spcache::obs::MetricsRegistry* registry);

  double stored_over_user_bytes() const;

  WorkloadShape shape;
  spcache::Cluster cluster;
  spcache::Master master;
  spcache::ThreadPool pool;
  spcache::SpClient client;

 private:
  std::vector<spcache::FileId> ids_;
};

// ---- Workloads ------------------------------------------------------------------------
struct LayerReport;

class Workload {
 public:
  virtual ~Workload() = default;
  const WorkloadShape& shape() const { return shape_; }
  const spcache::Catalog& catalog() const { return catalog_; }

  // Build the deployment and load the dataset. Returns the set-up's wall and
  // CPU time; the load's write latencies are appended to `load_writes`.
  virtual Timing setup(OpSamples& load_writes) = 0;
  virtual void teardown() = 0;
  virtual WindowStats run_window(double seconds) = 0;
  // Re-balance epochs that follow the window. Wall seconds per epoch.
  virtual std::vector<double> rebalance_epochs() = 0;
  // Read every file written during the run back once and verify it.
  virtual void verify_written(OpSamples& checks) = 0;
  virtual double storage_overhead() = 0;
  // Turn on the program's own metric registries for the traced run.
  virtual void attach_observability(spcache::obs::MetricsRegistry* registry) = 0;
  // Per-layer numbers this workload measures itself (the rest come from the
  // shared replays in layers.cpp).
  virtual void layer_metrics(LayerReport& report) = 0;

  SpanRecorder spans;

 protected:
  Workload(const Options& options, WorkloadShape shape);
  const Options& options_;
  WorkloadShape shape_;
  spcache::Catalog catalog_;
};

std::unique_ptr<Workload> make_workload(const Options& options);
std::vector<std::string> workload_names();

}  // namespace perfbench
