// Shared pieces of the perfbench binary: seeded content, the percentile
// rule, Eq. 15, spans with self time, metric output and provenance.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "workload/file_catalog.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// CPU seconds used so far by the whole process. It does not count time the
// hypervisor gave to other guests (steal).
double process_cpu_s();

// Wall and process CPU time of one stretch of work.
struct Timing {
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

class Stopwatch {
 public:
  Stopwatch() : wall0_(Clock::now()), cpu0_(process_cpu_s()) {}
  Timing elapsed() const { return {seconds_since(wall0_), process_cpu_s() - cpu0_}; }

 private:
  Clock::time_point wall0_;
  double cpu0_;
};

// The memory-copy speed of one caller thread, sampled while it runs a
// workload: at most once per 50 ms, tick() copies 4 MiB from a 64 MiB
// source shared by all probes (the workloads' data push it out of L3, so
// the copy streams from DRAM). On a shared host the speed of this thread
// moves by tens of percent from minute to minute with what other guests do;
// a workload's throughput divided by this copy speed, measured on the same
// threads at the same time, moves much less.
class MemcpyProbe {
 public:
  MemcpyProbe();
  void tick();
  double bytes = 0.0;
  double seconds = 0.0;

 private:
  std::vector<std::uint8_t> dst_;
  std::size_t offset_ = 0;
  Clock::time_point next_;
};

// Copy speed over several probes: total bytes over total copy time.
struct CopyRate {
  double bytes = 0.0;
  double seconds = 0.0;
  void add(const MemcpyProbe& p) {
    bytes += p.bytes;
    seconds += p.seconds;
  }
  double bytes_per_s() const { return seconds > 0.0 ? bytes / seconds : 0.0; }
};

// ---- Seeded file content --------------------------------------------------
// Byte i of version v of file f is byte (i % 8) of the little-endian word
// base(seed, f, v) + (i / 8) * kStep. Regenerating it costs one add per 8
// bytes, so every read can be compared byte for byte without keeping a
// second copy of the dataset, and a piece landing at the wrong offset or a
// stale version never matches.
void fill_content(std::span<std::uint8_t> out, std::uint64_t seed, spcache::FileId file,
                  std::uint64_t version);
bool content_matches(std::span<const std::uint8_t> bytes, std::uint64_t seed,
                     spcache::FileId file, std::uint64_t version);
std::vector<std::uint8_t> make_content(std::size_t size, std::uint64_t seed,
                                       spcache::FileId file, std::uint64_t version);

// ---- Percentiles ------------------------------------------------------------
// Nearest-rank percentile q of n sorted samples sits at index ceil(q*n)-1.
// A percentile is reported only when at least kMinBeyond samples lie
// strictly above it; otherwise the run has too few samples to support it.
inline constexpr std::size_t kMinBeyond = 10;
std::size_t percentile_index(std::size_t n, double q);
bool percentile_supported(std::size_t n, double q);
// Throws std::runtime_error when the rule above is not met.
double percentile_checked(const std::vector<double>& sorted, double q);

// ---- Eq. 15 ------------------------------------------------------------------
// (max - mean) / mean over per-server loads; 0 for an empty or idle vector.
double eq15_eta(const std::vector<double>& loads);

// ---- Spans ---------------------------------------------------------------------
// One timed call made by the benchmark. Spans of one operation share
// `request`; `parent` is the id of the enclosing span (0 at the root).
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
  const char* name = "";
  double start_s = 0.0;  // since the recorder's origin
  double end_s = 0.0;
};

// Per-name totals: count, summed duration, summed self time (duration minus
// the part of the interval covered by direct children).
struct SpanTotals {
  std::uint64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
  double mean_s() const { return count ? total_s / static_cast<double>(count) : 0.0; }
  double mean_self_s() const { return count ? self_s / static_cast<double>(count) : 0.0; }
};
std::map<std::string, SpanTotals> span_totals(const std::vector<Span>& spans);

// Holds spans in memory (one buffer per thread, no lock on the record path)
// and writes them as JSON lines on demand. Disabled recorders cost one
// relaxed load per span site.
class SpanRecorder {
 public:
  SpanRecorder();
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  std::uint64_t next_request() { return next_request_.fetch_add(1, std::memory_order_relaxed); }

  std::vector<Span> collect() const;
  void write_jsonl(const std::string& path) const;

 private:
  friend class ScopedSpan;
  struct ThreadBuffer {
    std::vector<Span> spans;
    std::vector<std::uint64_t> stack;  // open span ids, innermost last
    std::uint64_t request = 0;
  };
  ThreadBuffer& buffer();

  Clock::time_point origin_;
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::uint64_t> next_request_{1};
  mutable std::mutex mu_;  // guards buffers_ (registration and collect)
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
  std::uint64_t generation_;
};

// RAII span. A root span (no open span on this thread) starts a new request.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder::ThreadBuffer* buf_ = nullptr;
  SpanRecorder* recorder_ = nullptr;
  Span span_;
};

// ---- Output --------------------------------------------------------------------
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

bool valid_metric_name(const std::string& name);

class MetricSet {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  // {"name": {"value": v, "unit": u}, ...}; throws on an invalid or repeated name.
  std::string to_json() const;

 private:
  std::vector<Metric> metrics_;
};

std::string json_escape(const std::string& s);
std::string format_double(double v);

// ---- Process facts ---------------------------------------------------------------
// This process's VmHWM in MiB; 0 when unreadable.
double peak_rss_mib();
// Return freed heap to the kernel and restart this process's VmHWM from its
// current RSS, so a peak measured afterwards excludes memory that earlier
// set-ups freed.
void restart_peak_rss();
std::string cpu_model();

// The machine's CPU time from /proc/stat's "cpu" line, in clock ticks: the
// time its vCPUs were not idle, and the part of that the hypervisor gave to
// other guests (steal). An idle vCPU is not stolen from.
struct CpuTicks {
  std::uint64_t busy = 0;
  std::uint64_t steal = 0;
};
CpuTicks cpu_ticks();
// Share of the vCPUs' non-idle time stolen between two readings; 0 when
// none elapsed.
double steal_fraction(const CpuTicks& before, const CpuTicks& after);

}  // namespace perfbench
