#include "bench_util.h"

#include <malloc.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/hash_mix.h"

namespace perfbench {

namespace {

constexpr std::uint64_t kStep = 0x9E3779B97F4A7C15ull;

std::uint64_t content_base(std::uint64_t seed, spcache::FileId file, std::uint64_t version) {
  return spcache::mix64(seed ^ spcache::mix64((static_cast<std::uint64_t>(file) << 24) ^
                                              (version * 0xD1B54A32D192ED03ull)));
}

}  // namespace

void fill_content(std::span<std::uint8_t> out, std::uint64_t seed, spcache::FileId file,
                  std::uint64_t version) {
  std::uint64_t w = content_base(seed, file, version);
  const std::size_t words = out.size() / 8;
  std::uint8_t* p = out.data();
  for (std::size_t i = 0; i < words; ++i, w += kStep) std::memcpy(p + 8 * i, &w, 8);
  const std::size_t tail = out.size() % 8;
  if (tail) std::memcpy(p + 8 * words, &w, tail);
}

bool content_matches(std::span<const std::uint8_t> bytes, std::uint64_t seed,
                     spcache::FileId file, std::uint64_t version) {
  std::uint64_t w = content_base(seed, file, version);
  const std::size_t words = bytes.size() / 8;
  const std::uint8_t* p = bytes.data();
  std::uint64_t diff = 0;
  for (std::size_t i = 0; i < words; ++i, w += kStep) {
    std::uint64_t got = 0;
    std::memcpy(&got, p + 8 * i, 8);
    diff |= got ^ w;
  }
  const std::size_t tail = bytes.size() % 8;
  if (tail) {
    std::uint64_t got = 0;
    std::memcpy(&got, p + 8 * words, tail);
    const std::uint64_t mask = (std::uint64_t{1} << (8 * tail)) - 1;
    diff |= (got ^ w) & mask;
  }
  return diff == 0;
}

std::vector<std::uint8_t> make_content(std::size_t size, std::uint64_t seed,
                                       spcache::FileId file, std::uint64_t version) {
  std::vector<std::uint8_t> v(size);
  fill_content(v, seed, file, version);
  return v;
}

std::size_t percentile_index(std::size_t n, double q) {
  if (n == 0) throw std::runtime_error("percentile of an empty sample");
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return std::min(n - 1, rank == 0 ? 0 : rank - 1);
}

bool percentile_supported(std::size_t n, double q) {
  return n > 0 && n - 1 - percentile_index(n, q) >= kMinBeyond;
}

double percentile_checked(const std::vector<double>& sorted, double q) {
  if (!percentile_supported(sorted.size(), q)) {
    throw std::runtime_error("percentile " + format_double(q) + " needs " +
                             std::to_string(kMinBeyond) + " samples beyond it; have " +
                             std::to_string(sorted.size()) + " samples");
  }
  return sorted[percentile_index(sorted.size(), q)];
}

double eq15_eta(const std::vector<double>& loads) {
  if (loads.empty()) return 0.0;
  double sum = 0.0, max = 0.0;
  for (double l : loads) {
    sum += l;
    max = std::max(max, l);
  }
  const double mean = sum / static_cast<double>(loads.size());
  return mean > 0.0 ? (max - mean) / mean : 0.0;
}

std::map<std::string, SpanTotals> span_totals(const std::vector<Span>& spans) {
  std::map<std::uint64_t, std::vector<const Span*>> children;
  for (const auto& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, SpanTotals> out;
  for (const auto& s : spans) {
    const double dur = std::max(0.0, s.end_s - s.start_s);
    // Union of the children's intervals, clipped to this span.
    double covered = 0.0;
    if (auto it = children.find(s.id); it != children.end()) {
      std::vector<std::pair<double, double>> iv;
      for (const Span* c : it->second) {
        const double lo = std::max(c->start_s, s.start_s);
        const double hi = std::min(c->end_s, s.end_s);
        if (hi > lo) iv.emplace_back(lo, hi);
      }
      std::sort(iv.begin(), iv.end());
      double cur_lo = 0.0, cur_hi = -1.0;
      for (const auto& [lo, hi] : iv) {
        if (lo > cur_hi) {
          if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
        } else {
          cur_hi = std::max(cur_hi, hi);
        }
      }
      if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    }
    auto& t = out[s.name];
    ++t.count;
    t.total_s += dur;
    t.self_s += std::max(0.0, dur - covered);
  }
  return out;
}

namespace {
std::atomic<std::uint64_t> g_recorder_generation{1};
}  // namespace

SpanRecorder::SpanRecorder()
    : origin_(Clock::now()), generation_(g_recorder_generation.fetch_add(1)) {}

SpanRecorder::ThreadBuffer& SpanRecorder::buffer() {
  // One cached buffer per thread; a thread that meets a different recorder
  // registers a fresh buffer with it.
  thread_local std::uint64_t cached_generation = 0;
  thread_local ThreadBuffer* cached = nullptr;
  if (cached_generation != generation_) {
    auto owned = std::make_unique<ThreadBuffer>();
    cached = owned.get();
    std::lock_guard lock(mu_);
    buffers_.push_back(std::move(owned));
    cached_generation = generation_;
  }
  return *cached;
}

std::vector<Span> SpanRecorder::collect() const {
  std::lock_guard lock(mu_);
  std::vector<Span> all;
  for (const auto& b : buffers_) all.insert(all.end(), b->spans.begin(), b->spans.end());
  return all;
}

void SpanRecorder::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  for (const auto& s : collect()) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"request\":" << s.request
        << ",\"name\":\"" << s.name << "\",\"start_s\":" << format_double(s.start_s)
        << ",\"end_s\":" << format_double(s.end_s) << "}\n";
  }
}

ScopedSpan::ScopedSpan(SpanRecorder* recorder, const char* name) {
  if (recorder == nullptr || !recorder->enabled()) return;
  recorder_ = recorder;
  buf_ = &recorder->buffer();
  span_.id = recorder->next_id_.fetch_add(1, std::memory_order_relaxed);
  span_.name = name;
  if (buf_->stack.empty()) {
    buf_->request = recorder->next_request();
  } else {
    span_.parent = buf_->stack.back();
  }
  span_.request = buf_->request;
  buf_->stack.push_back(span_.id);
  span_.start_s = std::chrono::duration<double>(Clock::now() - recorder->origin_).count();
}

ScopedSpan::~ScopedSpan() {
  if (buf_ == nullptr) return;
  span_.end_s = std::chrono::duration<double>(Clock::now() - recorder_->origin_).count();
  buf_->stack.pop_back();
  buf_->spans.push_back(span_);
}

bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  if (!std::isalnum(static_cast<unsigned char>(name[0]))) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '.' || c == '-';
  });
}

void MetricSet::add(const std::string& name, double value, const std::string& unit) {
  metrics_.push_back(Metric{name, value, unit});
}

std::string MetricSet::to_json() const {
  std::ostringstream out;
  out << "{";
  std::vector<std::string> seen;
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const auto& m = metrics_[i];
    if (!valid_metric_name(m.name)) throw std::runtime_error("invalid metric name: " + m.name);
    if (std::find(seen.begin(), seen.end(), m.name) != seen.end()) {
      throw std::runtime_error("repeated metric name: " + m.name);
    }
    if (!std::isfinite(m.value)) throw std::runtime_error("non-finite metric: " + m.name);
    seen.push_back(m.name);
    out << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": " << format_double(m.value)
        << ", \"unit\": \"" << m.unit << "\"}";
  }
  out << "}";
  return out.str();
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;  // kB
  }
  return 0.0;
}

void restart_peak_rss() {
  ::malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

namespace {
double clock_s(clockid_t clock) {
  timespec t{};
  ::clock_gettime(clock, &t);
  return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_nsec) * 1e-9;
}
}  // namespace

double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }

namespace {
constexpr std::size_t kProbeSource = 64 << 20;
constexpr std::size_t kProbeChunk = 4 << 20;
constexpr auto kProbeEvery = std::chrono::milliseconds(50);

const std::vector<std::uint8_t>& probe_source() {
  static const std::vector<std::uint8_t> source = [] {
    std::vector<std::uint8_t> s(kProbeSource);
    for (std::size_t i = 0; i < s.size(); ++i) s[i] = static_cast<std::uint8_t>(i * 131);
    return s;
  }();
  return source;
}
}  // namespace

MemcpyProbe::MemcpyProbe() : dst_(kProbeChunk), next_(Clock::now()) { (void)probe_source(); }

void MemcpyProbe::tick() {
  if (Clock::now() < next_) return;
  const auto& src = probe_source();
  const auto t0 = Clock::now();
  std::memcpy(dst_.data(), src.data() + offset_, kProbeChunk);
  // Keep the compiler from dropping a copy whose result is never read.
  asm volatile("" : : "r"(dst_.data()) : "memory");
  seconds += seconds_since(t0);
  bytes += static_cast<double>(kProbeChunk);
  offset_ = (offset_ + kProbeChunk) % kProbeSource;
  next_ = Clock::now() + kProbeEvery;
}

CpuTicks cpu_ticks() {
  // cpu  user nice system idle iowait irq softirq steal guest guest_nice;
  // guest time is already counted in user and nice; idle and iowait are the
  // idle time.
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  CpuTicks t;
  if (label != "cpu") return t;
  for (int i = 0; i < 8; ++i) {
    std::uint64_t v = 0;
    if (!(in >> v)) break;
    if (i != 3 && i != 4) t.busy += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

double steal_fraction(const CpuTicks& before, const CpuTicks& after) {
  const std::uint64_t busy = after.busy - before.busy;
  return busy == 0 ? 0.0
                   : static_cast<double>(after.steal - before.steal) / static_cast<double>(busy);
}

}  // namespace perfbench
