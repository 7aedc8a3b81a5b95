// nvbench: the repository benchmark's harness.
//
//   nvbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--out-dir <dir>]
//   nvbench --selftest
//
// Prints a human summary on stderr and, as the last line of stdout, one
// JSON object: {"correct", "attempted", "failed", "metrics"}. Untraced
// runs report the end-to-end metrics, traced runs the per-layer ones.
// With --out-dir it also writes the run's detail (effective knobs, sample
// counts, failures, determinism counts) and, when traced, the span trace.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "metrics.hpp"
#include "runner.hpp"

extern char** environ;

namespace perfbench {
int run_selftest();
}

namespace {

/// The library reads NVMCP_* knobs from its environment. The benchmark
/// pins every knob in code, so none of them may leak in from the caller.
std::vector<std::string> scrub_environment() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    if (kv.rfind("NVMCP_", 0) == 0) names.push_back(kv.substr(0, kv.find('=')));
  }
  for (const std::string& n : names) unsetenv(n.c_str());
  return names;
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text << '\n';
  return static_cast<bool>(out);
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "nvbench: %s\nusage: nvbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>] | --selftest\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> scrubbed = scrub_environment();
  perfbench::RunOptions opts;
  std::string out_dir;
  bool have_workload = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (a == "--selftest") return perfbench::run_selftest();
      if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
      const std::string v = argv[++i];
      if (a == "--workload") {
        opts.workload = v;
        have_workload = true;
      } else if (a == "--seed") {
        opts.seed = std::stoull(v);
      } else if (a == "--seconds") {
        opts.seconds = std::stod(v);
      } else if (a == "--trace") {
        if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
        opts.trace = v == "1";
      } else if (a == "--out-dir") {
        out_dir = v;
      } else {
        return usage(("unknown argument " + a).c_str());
      }
    }
  } catch (const std::exception&) {
    return usage("bad numeric argument");
  }
  if (!have_workload) return usage("--workload is required");
  if (!(opts.seconds > 0 && opts.seconds <= 3600)) {
    return usage("--seconds must be in (0, 3600]");
  }

  perfbench::RunResult res;
  try {
    res = perfbench::run_benchmark(opts);
  } catch (const std::invalid_argument& e) {
    return usage(e.what());
  }

  nvmcp::Json ignored = nvmcp::Json::array();
  for (const std::string& n : scrubbed) ignored.push_back(n);
  res.detail["environment_ignored"] = std::move(ignored);
  const std::string stem = out_dir.empty()
                               ? std::string()
                               : out_dir + "/" + opts.workload + "-seed" +
                                     std::to_string(opts.seed) +
                                     (opts.trace ? "-trace" : "");
  if (!stem.empty()) {
    if (!write_file(stem + ".json", res.detail.dump(2))) {
      std::fprintf(stderr, "nvbench: cannot write %s.json\n", stem.c_str());
      return 1;
    }
    if (opts.trace && !write_file(stem + ".trace.json", res.trace.dump())) {
      std::fprintf(stderr, "nvbench: cannot write %s.trace.json\n",
                   stem.c_str());
      return 1;
    }
  }

  // Human summary.
  std::fprintf(stderr, "nvbench %s seed=%llu seconds=%g trace=%d\n",
               opts.workload.c_str(),
               static_cast<unsigned long long>(opts.seed), opts.seconds,
               opts.trace ? 1 : 0);
  std::fprintf(stderr, "  knobs: %s\n", res.detail["knobs"].dump().c_str());
  std::fprintf(stderr, "  samples: %s\n", res.detail["samples"].dump().c_str());
  for (const auto& f : res.detail["failures"].items()) {
    std::fprintf(stderr, "  FAILURE: %s\n", f.str().c_str());
  }
  for (const auto& d : res.detail["determinism_divergences"].items()) {
    std::fprintf(stderr, "  DETERMINISM DIVERGENCE: %s\n", d.str().c_str());
  }
  for (const perfbench::MetricDef& d : perfbench::metric_defs()) {
    std::fprintf(stderr, "  %-40s %14.6g %s%s\n", d.name.c_str(),
                 res.metrics[d.name], d.unit.c_str(),
                 d.end_to_end ? "  (end to end)" : "");
  }

  nvmcp::Json metrics = nvmcp::Json::object();
  for (const perfbench::MetricDef& d : perfbench::metric_defs()) {
    if (d.end_to_end == opts.trace) continue;
    nvmcp::Json m = nvmcp::Json::object();
    m["value"] = res.metrics[d.name];
    m["unit"] = d.unit;
    metrics[d.name] = std::move(m);
  }
  nvmcp::Json line = nvmcp::Json::object();
  line["correct"] = res.correct;
  line["attempted"] = static_cast<unsigned long long>(res.attempted);
  line["failed"] = static_cast<unsigned long long>(res.failed);
  line["metrics"] = std::move(metrics);
  std::fflush(stderr);
  std::printf("%s\n", line.dump().c_str());
  std::fflush(stdout);
  return 0;
}
