// One benchmark run: set up a workload's checkpoint stack several times,
// drive the measured closed loop, restart at the end, and turn what was
// timed and counted into the declared metrics.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "common/json.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;  // every declared metric
  nvmcp::Json detail;  // knobs, sample counts, failures, determinism
  nvmcp::Json trace;   // Chrome trace; null unless traced
};

/// Throws std::invalid_argument for an unknown workload. Failures of the
/// library under test never throw out of here: they are counted.
RunResult run_benchmark(const RunOptions& opts);

}  // namespace perfbench
