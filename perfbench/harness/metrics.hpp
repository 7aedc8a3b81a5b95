// Every metric the harness reports, with its unit. An untraced run prints
// exactly the end-to-end set, a traced run exactly the per-layer set; the
// runner script checks both against BENCHMARK.json.
#pragma once

#include <string>
#include <vector>

namespace perfbench {

struct MetricDef {
  std::string name;
  std::string unit;
  bool end_to_end = false;
};

inline const std::vector<MetricDef>& metric_defs() {
  static const std::vector<MetricDef> defs = {
      // End to end: what the application sees, on every workload.
      {"setup_s", "s", true},
      {"blocking_ms.p50", "ms", true},
      {"blocking_ms.p90", "ms", true},
      {"interval_ms.p50", "ms", true},
      {"interval_ms.p90", "ms", true},
      {"restart_soft_ms.p50", "ms", true},
      {"nvm_write_mb_per_interval", "MB", true},
      {"peak_rss_mb", "MB", true},
      // Per layer (traced run). Sample counts and the failure ratio first.
      {"samples.intervals", "count", false},
      {"samples.rounds", "count", false},
      {"samples.restarts", "count", false},
      {"fail_ratio", "ratio", false},
      // Remote path, end-to-end numbers of bulk_remote only.
      {"remote_round_ms.p50", "ms", false},
      {"remote_round_ms.p90", "ms", false},
      {"restart_hard_ms.p50", "ms", false},
      {"link_mb_per_round", "MB", false},
      // apps
      {"apps.mutate_ms.p50", "ms", false},
      // vmem
      {"vmem.faults_per_interval", "count", false},
      {"vmem.fault_ms_per_interval", "ms", false},
      {"vmem.mprotect_calls_per_interval", "count", false},
      {"vmem.log_mb_per_interval", "MB", false},
      {"vmem.log_drops", "count", false},
      // core manager
      {"core.chunks_recopied_per_interval", "count", false},
      {"core.chunks_from_precopy_per_interval", "count", false},
      {"core.chunks_skipped_per_interval", "count", false},
      {"core.precopy_mb_per_interval", "MB", false},
      {"core.precopy_useful_ratio", "ratio", false},
      {"core.blocking_ms_per_dirty_mb", "ms/MB", false},
      // nvm
      {"nvm.write_calls_per_interval", "count", false},
      {"nvm.write_ms_per_interval", "ms", false},
      {"nvm.emulated_wait_ms_per_interval", "ms", false},
      {"nvm.read_mb_per_restart", "MB", false},
      // alloc
      {"alloc.read_committed_gbps", "GB/s", false},
      // epoch
      {"epoch.gc_pass_ms.p50", "ms", false},
      {"epoch.slots_reclaimed_per_pass", "count", false},
      {"epoch.occupancy", "ratio", false},
      // compress
      {"codec.encode_ms_per_round", "ms", false},
      {"codec.wire_ratio", "ratio", false},
      {"codec.share.raw", "ratio", false},
      {"codec.share.lz", "ratio", false},
      {"codec.share.delta", "ratio", false},
      // net
      {"net.link_ms_per_round", "ms", false},
      {"net.store_write_ms_per_round", "ms", false},
      {"net.fetch_mb_per_restart", "MB", false},
      // remote helper
      {"remote.busy_ms_per_round", "ms", false},
      {"remote.self_ms_per_round", "ms", false},
      {"remote.retries_per_round", "count", false},
      {"remote.degraded_rounds", "count", false},
      // restart
      {"restart.chunks_local", "count", false},
      {"restart.chunks_remote", "count", false},
      {"restart.chunks_rolled_back", "count", false},
      // telemetry: self time per traced span, and what tracing costs
      {"self_ms.interval", "ms", false},
      {"self_ms.app.mutate", "ms", false},
      {"self_ms.core.nvchkptall", "ms", false},
      {"self_ms.epoch.gc_pass", "ms", false},
      {"self_ms.core.remote.coordinate_now", "ms", false},
      {"self_ms.alloc.read_committed", "ms", false},
      {"self_ms.core.restart.soft", "ms", false},
      {"self_ms.core.restart.hard", "ms", false},
      {"trace.overhead_pct", "%", false},
      {"determinism.divergences", "count", false},
      // host speed, so drift between runs can be told from regressions
      {"host.crc64_gbps", "GB/s", false},
  };
  return defs;
}

}  // namespace perfbench
