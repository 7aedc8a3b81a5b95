// cluster_sim_demo: explore exascale-ish what-if questions with the
// discrete-event cluster simulator -- how do failure rates, checkpoint
// intervals, and pre-copy interact at scales no laptop can run live?
//
// Scenario: the paper's 8-node cluster (fig9_config) running a 1200 s
// (compute) job with 4.7 GB checkpoint state per node, sweeping the job's
// MTBF while comparing multilevel checkpointing with and without pre-copy,
// plus the model-predicted optimal interval.
#include <cstdio>

#include "common/table.hpp"
#include "common/units.hpp"
#include "model/model.hpp"
#include "sim/cluster_scale.hpp"
#include "telemetry/telemetry.hpp"

int main() {
  using namespace nvmcp;
  using namespace nvmcp::sim;
  telemetry::init_from_env();

  TableWriter table(
      "Cluster what-if: efficiency vs failure rate (simulated)",
      {"MTBF soft", "MTBF hard", "policy", "efficiency", "soft/hard fails",
       "lost node-s", "peak uplink ckpt"});

  for (const double mtbf : {1200.0, 400.0, 150.0}) {
    for (const bool precopy : {false, true}) {
      ScaleConfig cfg = fig9_config();
      cfg.comm_bytes_per_iter = 1.0e9;
      cfg.precopy = precopy;
      // Job-level MTBFs; the scenario draws failures per node.
      cfg.node_soft_mtbf = cfg.topo.nodes * mtbf;
      cfg.node_hard_mtbf = cfg.topo.nodes * mtbf * 4;  // ~80% are soft
      cfg.seed = 7;
      const ScaleResult r = run_scale_cluster(cfg);
      table.row({TableWriter::num(mtbf, 0) + " s",
                 TableWriter::num(mtbf * 4, 0) + " s",
                 precopy ? "precopy" : "no-precopy",
                 TableWriter::num(r.efficiency, 4),
                 std::to_string(r.soft_failures) + "/" +
                     std::to_string(r.hard_failures),
                 TableWriter::num(r.lost_work, 0),
                 format_bandwidth(r.peak_uplink_ckpt_rate)});
    }
  }
  table.print();

  // What interval should such a system use? Ask the Section III model.
  std::printf("\nmodel-suggested local checkpoint intervals:\n");
  for (const double mtbf : {1200.0, 400.0, 150.0}) {
    model::SystemParams p;
    p.t_compute = 1200;
    p.ckpt_data = 4.7e9 / 12;  // per core
    p.nvm_bw_core = 2.0e9 / 12;
    p.mtbf_local = mtbf;
    p.mtbf_remote = mtbf * 4;
    p.precopy = true;
    const double opt = model::optimal_local_interval(p);
    std::printf("  MTBF_soft=%5.0fs -> optimal I=%5.1fs\n", mtbf, opt);
  }
  return 0;
}
