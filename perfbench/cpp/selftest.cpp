// Checks of the benchmark's own arithmetic, run before every measurement:
// the percentile rule, Eq. 15 against obs::load_eta, span self time, metric
// names, and that one seed regenerates identical inputs.
#include "selftest.h"

#include <cmath>
#include <iostream>
#include <numeric>

#include "bench_util.h"
#include "obs/cluster_observer.h"
#include "workloads.h"

namespace perfbench {

namespace {

struct Checker {
  int failures = 0;
  void expect(bool ok, const std::string& what) {
    if (!ok) {
      ++failures;
      std::cerr << "selftest FAILED: " << what << "\n";
    }
  }
};

bool near(double a, double b) { return std::fabs(a - b) <= 1e-12 * std::max(1.0, std::fabs(b)); }

void check_percentiles(Checker& c) {
  // 1000 samples: nearest-rank p99 is the 990th value and 10 lie above it.
  std::vector<double> v(1000);
  std::iota(v.begin(), v.end(), 1.0);
  c.expect(percentile_supported(1000, 0.99), "p99 supported at n=1000");
  c.expect(!percentile_supported(999, 0.99), "p99 refused at n=999 (only 9 beyond)");
  c.expect(near(percentile_checked(v, 0.99), 990.0), "p99 of 1..1000 is 990");
  c.expect(near(percentile_checked(v, 0.5), 500.0), "p50 of 1..1000 is 500");
  c.expect(percentile_supported(20, 0.5) && !percentile_supported(19, 0.5),
           "p50 needs 20 samples");
  bool threw = false;
  try {
    v.pop_back();
    (void)percentile_checked(v, 0.99);
  } catch (const std::exception&) {
    threw = true;
  }
  c.expect(threw, "percentile_checked throws below the rule");
}

void check_eta(Checker& c) {
  const std::vector<std::vector<double>> cases = {
      {1, 1, 1, 1}, {4, 0, 0, 0}, {1, 2, 3}, {0, 0}, {}, {5.5, 2.25, 7.0, 0.125, 3.0}};
  const std::vector<double> expected = {0.0, 3.0, 0.5, 0.0, 0.0, 7.0 / 3.575 - 1.0};
  for (std::size_t i = 0; i < cases.size(); ++i) {
    c.expect(near(eq15_eta(cases[i]), expected[i]), "eq15_eta case " + std::to_string(i));
    c.expect(near(eq15_eta(cases[i]), spcache::obs::load_eta(cases[i])),
             "eq15_eta equals obs::load_eta, case " + std::to_string(i));
  }
}

void check_spans(Checker& c) {
  // Parent [0,10] with children [1,3] and [2,5] (overlapping) and [8,12]
  // (clipped at 10): covered 4 + 2, self 4. The grandchild [1.5,2] counts
  // against its own parent only: [1,3] keeps 1.5 of self time.
  std::vector<Span> spans = {
      {1, 0, 1, "p", 0.0, 10.0}, {2, 1, 1, "a", 1.0, 3.0}, {3, 1, 1, "b", 2.0, 5.0},
      {4, 1, 1, "c", 8.0, 12.0}, {5, 2, 1, "g", 1.5, 2.0},
  };
  const auto t = span_totals(spans);
  c.expect(near(t.at("p").self_s, 4.0), "parent self time subtracts the union of children");
  c.expect(near(t.at("a").self_s, 1.5), "child self time subtracts its own child");
  c.expect(near(t.at("c").self_s, 4.0), "leaf self time is its duration");
  c.expect(near(t.at("p").total_s, 10.0), "span duration");

  // Live recorder: nesting sets parent ids, one request per root.
  SpanRecorder rec;
  rec.set_enabled(true);
  {
    ScopedSpan root(&rec, "root");
    ScopedSpan child(&rec, "child");
  }
  { ScopedSpan other(&rec, "root"); }
  const auto got = rec.collect();
  c.expect(got.size() == 3, "recorder kept 3 spans");
  if (got.size() == 3) {
    const Span& child = got[0];
    const Span& root = got[1];
    c.expect(child.parent == root.id && child.request == root.request, "child links to its root");
    c.expect(got[2].parent == 0 && got[2].request != root.request, "second root is a new request");
  }
}

void check_names(Checker& c, const std::vector<std::string>& names) {
  for (const auto& n : names) c.expect(valid_metric_name(n), "metric name " + n);
  c.expect(!valid_metric_name("bad name"), "space rejected");
  c.expect(!valid_metric_name(".lead"), "leading dot rejected");
  c.expect(!valid_metric_name(""), "empty rejected");
}

void check_inputs(Checker& c) {
  WorkloadShape shape;
  shape.files = 300;
  shape.mean_read_bytes = 512.0 * 1024;
  const auto a = make_catalog(shape, 7), b = make_catalog(shape, 7), d = make_catalog(shape, 8);
  bool same = a.size() == b.size(), differs = false;
  for (std::size_t i = 0; same && i < a.size(); ++i) {
    const auto id = static_cast<spcache::FileId>(i);
    same = a.file(id).size == b.file(id).size && a.file(id).request_rate == b.file(id).request_rate;
    differs = differs || a.file(id).size != d.file(id).size;
  }
  c.expect(same, "one seed regenerates the same catalog");
  c.expect(differs, "another seed gives another catalog");
  c.expect(file_sequence(a, 7, 2, 500) == file_sequence(b, 7, 2, 500),
           "one seed regenerates the same file sequence");
  c.expect(file_sequence(a, 7, 2, 500) != file_sequence(a, 8, 2, 500),
           "another seed gives another file sequence");
  // File choices are independent draws: the hottest file takes its
  // popularity share, and follows itself about that share squared of the time.
  const auto seq = file_sequence(a, 9, 0, 200000);
  const double p0 = a.popularity(0);
  double hits = 0.0, repeats = 0.0;
  for (std::size_t i = 0; i < seq.size(); ++i) {
    hits += seq[i] == 0;
    repeats += i > 0 && seq[i] == 0 && seq[i - 1] == 0;
  }
  const double n = static_cast<double>(seq.size());
  c.expect(std::abs(hits / n - p0) < 0.01, "file choices follow popularity");
  c.expect(std::abs(repeats / n - p0 * p0) < 0.1 * p0 * p0 + 0.002,
           "file choices are independent draws");
  c.expect(make_content(4099, 7, 3, 1) == make_content(4099, 7, 3, 1),
           "one seed regenerates the same content");
  auto bytes = make_content(4099, 7, 3, 1);
  c.expect(content_matches(bytes, 7, 3, 1), "content verifies against itself");
  c.expect(!content_matches(bytes, 7, 3, 2), "another version does not verify");
  bytes[4098] ^= 1;
  c.expect(!content_matches(bytes, 7, 3, 1), "a flipped tail byte does not verify");
}

}  // namespace

int run_selftest(const std::vector<std::string>& metric_names) {
  Checker c;
  check_percentiles(c);
  check_eta(c);
  check_spans(c);
  check_names(c, metric_names);
  check_inputs(c);
  return c.failures;
}

}  // namespace perfbench
