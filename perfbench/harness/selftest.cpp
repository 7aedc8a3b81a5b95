// Self-test of the harness's own arithmetic and naming: percentiles, the
// tail sample-count rule, ratio bases, span self time and the metric
// table. Runs in milliseconds; the runner script runs it before every
// measurement.
#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "metrics.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "selftest FAILED: %s\n", what.c_str());
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void test_percentiles() {
  std::vector<double> v;
  for (int i = 10; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  check(near(percentile(v, 0.5), 5.5), "p50 of 1..10 is 5.5");
  check(near(percentile(v, 0.9), 9.1), "p90 of 1..10 is 9.1");
  check(near(percentile(v, 0.0), 1.0), "p0 is the minimum");
  check(near(percentile(v, 1.0), 10.0), "p100 is the maximum");
  check(near(percentile({7.0}, 0.9), 7.0), "one sample is every percentile");
  check(percentile({}, 0.5) == 0.0, "no samples read as 0");
}

void test_tail_rule() {
  check(tail_supported(100, 0.9), "100 samples support p90");
  check(!tail_supported(99, 0.9), "99 samples do not support p90");
  check(tail_supported(1000, 0.99), "1000 samples support p99");
  check(!tail_supported(999, 0.99), "999 samples do not support p99");
  check(tail_supported(1, 0.5), "one sample supports the median");
  check(!tail_supported(0, 0.5), "no samples support nothing");
  check(min_samples_for(0.9) == 100, "p90 needs 100 samples");
  check(min_samples_for(0.99) == 1000, "p99 needs 1000 samples");
  check(min_samples_for(0.5) == 1, "the median needs one sample");
}

void test_ratios() {
  check(ratio(1, 4) == 0.25, "ratio divides by its base");
  check(ratio(5, 0) == 0.0, "an empty base reads as 0, not NaN");
  check(near(mean({1, 2, 3, 6}), 3.0), "mean");
  check(mean({}) == 0.0, "mean of nothing is 0");
}

void test_self_time() {
  SpanRecorder r;
  r.add({"interval", 0, 10, 1, true, {}});
  r.add({"app.mutate", 0, 3, 1, false, {}});
  r.add({"core.nvchkptall", 3, 4, 1, false, {}});
  r.add({"interval", 10, 5, 2, true, {}});
  r.add({"app.mutate", 10, 5, 2, false, {}});
  const auto self = r.self_ms();
  check(near(self.at("interval"), 3.0), "root self time excludes children");
  check(near(self.at("app.mutate"), 8.0), "child self time is its duration");
  const nvmcp::Json doc = r.to_chrome();
  check(doc.find("traceEvents") && doc.find("traceEvents")->size() == 5,
        "chrome trace holds every span");
}

void test_metric_table() {
  std::set<std::string> names;
  bool setup = false;
  int e2e = 0, layer = 0;
  for (const MetricDef& d : metric_defs()) {
    check(valid_metric_name(d.name), "metric name is valid: " + d.name);
    check(valid_unit(d.unit), "unit is valid: " + d.unit);
    check(names.insert(d.name).second, "metric name is unique: " + d.name);
    if (d.name == "setup_s") setup = d.end_to_end && d.unit == "s";
    (d.end_to_end ? e2e : layer) += 1;
  }
  check(setup, "setup_s is an end-to-end metric in seconds");
  check(e2e >= 1 && e2e <= 16, "1 to 16 end-to-end metrics");
  check(layer >= 1 && layer <= 128, "1 to 128 per-layer metrics");
  check(!valid_metric_name("_x"), "a name starts with a letter or digit");
  check(!valid_metric_name("a b"), "a name has no spaces");
  check(!valid_metric_name(std::string(65, 'a')), "a name is at most 64");
  check(!valid_unit("seconds_per_interval"), "a unit is at most 16");
  check(valid_unit("1/s") && valid_unit("%"), "units like 1/s and %");
}

void test_workloads() {
  for (const std::string& n : workload_names()) {
    const WorkloadDef w = workload_def(n);
    check(w.name == n, "workload carries its name: " + n);
    check(!w.chunks.empty() && w.payload_bytes() > 0, "workload has data: " + n);
    check(w.restarts >= 10, "workload restarts at least 10 times: " + n);
    // The application thread, the copier pool (only built for more than
    // one copier) and the pre-copy engine.
    const std::size_t threads =
        1 + (w.copy_threads > 1 ? w.copy_threads : 0) +
        (w.policy == nvmcp::core::PrecopyPolicy::kNone ? 0 : 1);
    check(threads <= 3, "workload uses at most 3 threads: " + n);
  }
  bool threw = false;
  try {
    workload_def("no_such_workload");
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  check(threw, "an unknown workload is refused");
}

}  // namespace

int run_selftest() {
  test_percentiles();
  test_tail_rule();
  test_ratios();
  test_self_time();
  test_metric_table();
  test_workloads();
  std::fprintf(stderr, "selftest: %s\n", failures ? "FAILED" : "ok");
  return failures ? 1 : 0;
}

}  // namespace perfbench
