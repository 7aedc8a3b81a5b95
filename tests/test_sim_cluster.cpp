// The paper's Fig-9 cluster (fig9_config): checkpoint cadence, failure
// recovery semantics, pre-copy effects on blocking time and peak uplink
// usage, and the Fig 9 shape over the bench's full grid. Determinism,
// queue-drain and wall-consistency checks for the preset live with the
// matching cases in test_sim_scale and test_sim_determinism.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "common/stats.hpp"
#include "sim/cluster_scale.hpp"

namespace nvmcp::sim {
namespace {

ScaleConfig base() {
  ScaleConfig cfg = fig9_config();
  cfg.comm_bytes_per_iter = 0.5e9;
  cfg.total_compute = 400.0;
  cfg.precopy = false;
  cfg.node_soft_mtbf = 0;
  cfg.node_hard_mtbf = 0;
  return cfg;
}

/// Per-node MTBF that gives the whole job `job_mtbf`.
double per_node(const ScaleConfig& cfg, double job_mtbf) {
  return cfg.topo.nodes * job_mtbf;
}

TEST(SimCluster, NoCheckpointNoFailureHitsIdeal) {
  ScaleConfig cfg = base();
  cfg.remote_enabled = false;
  cfg.local_interval = 1e9;  // never checkpoints
  const ScaleResult r = run_scale_cluster(cfg);
  EXPECT_EQ(r.local_checkpoints, 0);
  EXPECT_NEAR(r.efficiency, 1.0, 1e-6);
  EXPECT_NEAR(r.wall, r.ideal, 1e-6);
}

TEST(SimCluster, CheckpointCadenceMatchesInterval) {
  ScaleConfig cfg = base();
  cfg.remote_enabled = false;
  const ScaleResult r = run_scale_cluster(cfg);
  // ~400s of compute+comm with a 40s interval: about 10 local checkpoints.
  EXPECT_GE(r.local_checkpoints, 8);
  EXPECT_LE(r.local_checkpoints, 12);
  EXPECT_LT(r.efficiency, 1.0);
}

TEST(SimCluster, BlockingTimeMatchesVolumeOverBandwidth) {
  ScaleConfig cfg = base();
  cfg.remote_enabled = false;
  const ScaleResult r = run_scale_cluster(cfg);
  ASSERT_GT(r.local_checkpoints, 0);
  // 4.7 GB / 2 GB/s = 2.35 s per blocking step.
  const double per_ckpt = r.local_blocking / r.local_checkpoints;
  EXPECT_NEAR(per_ckpt, cfg.ckpt_bytes / cfg.nvm_bw, 1e-6);
}

TEST(SimCluster, LocalPrecopyCutsBlockingTime) {
  ScaleConfig cfg = base();
  cfg.remote_enabled = false;
  const ScaleResult no_pc = run_scale_cluster(cfg);
  cfg.precopy = true;
  const ScaleResult pc = run_scale_cluster(cfg);
  EXPECT_LT(pc.local_blocking, 0.5 * no_pc.local_blocking);
  EXPECT_GT(pc.efficiency, no_pc.efficiency);
  // The price: more total NVM traffic.
  EXPECT_GT(pc.nvm_bytes, no_pc.nvm_bytes * 0.9);
}

TEST(SimCluster, RemotePrecopyHalvesPeakLinkUsage) {
  ScaleConfig cfg = base();
  cfg.remote_enabled = true;
  const ScaleResult burst = run_scale_cluster(cfg);
  cfg.precopy = true;
  const ScaleResult spread = run_scale_cluster(cfg);
  EXPECT_GT(burst.peak_uplink_ckpt_rate, 0.0);
  EXPECT_LT(spread.peak_uplink_ckpt_rate, 0.7 * burst.peak_uplink_ckpt_rate);
  EXPECT_GE(spread.efficiency, burst.efficiency);
}

TEST(SimCluster, SoftFailuresRollBackToLocalCheckpoint) {
  ScaleConfig cfg = base();
  cfg.remote_enabled = false;
  cfg.node_soft_mtbf = per_node(cfg, 120.0);
  const ScaleResult r = run_scale_cluster(cfg);
  EXPECT_GT(r.soft_failures, 0);
  EXPECT_EQ(r.recoveries_local, r.soft_failures);
  EXPECT_GT(r.lost_work, 0.0);
  EXPECT_GT(r.restart_seconds, 0.0);
  EXPECT_LT(r.efficiency, 1.0);
}

TEST(SimCluster, HardFailuresNeedRemoteCheckpoints) {
  ScaleConfig cfg = base();
  cfg.remote_enabled = true;
  cfg.precopy = true;
  cfg.node_hard_mtbf = per_node(cfg, 150.0);
  int total_hard = 0;
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    cfg.seed = seed;
    const ScaleResult r = run_scale_cluster(cfg);
    total_hard += r.hard_failures;
    // Work always completes because the remote cut bounds the rollback:
    // the in-rack pairwise buddy survives a single-node loss.
    EXPECT_EQ(r.unrecoverable, 0);
    EXPECT_EQ(r.recoveries_buddy, r.hard_failures);
    EXPECT_GT(r.efficiency, 0.05);
  }
  EXPECT_GT(total_hard, 0);
}

TEST(SimCluster, MoreFailuresLowerEfficiency) {
  ScaleConfig cfg = base();
  cfg.remote_enabled = false;
  cfg.node_soft_mtbf = per_node(cfg, 500.0);
  const double healthy = run_scale_cluster(cfg).efficiency;
  cfg.node_soft_mtbf = per_node(cfg, 60.0);
  const double flaky = run_scale_cluster(cfg).efficiency;
  EXPECT_LT(flaky, healthy);
}

TEST(SimCluster, LinkContentionSlowsCommunication) {
  ScaleConfig cfg = base();
  // Communication-intensive shape so checkpoint bursts overlap comm
  // phases (short compute, large messages).
  cfg.compute_per_iter = 0.5;
  cfg.comm_bytes_per_iter = 1.0e9;  // 0.2 s per iteration uncontended
  cfg.total_compute = 100.0;
  cfg.remote_enabled = true;
  cfg.precopy = false;  // bursty remote checkpoints
  const ScaleResult with_ckpt = run_scale_cluster(cfg);
  cfg.remote_enabled = false;
  const ScaleResult without = run_scale_cluster(cfg);
  EXPECT_GT(with_ckpt.app_comm_seconds, without.app_comm_seconds);
}

// Regression (lost-work accounting): a failure used to charge only the
// iterations already credited to the job, silently dropping the in-flight
// iteration's partial progress. With compute_per_iter = 4, comm
// 0.2 s/iter, no checkpoints: iterations run [0,4) compute, [4,4.2) comm,
// [4.2,8.2) compute, [8.2,8.4) comm, [8.4,12.4) compute. A failure at
// t = 10.0 lands 1.6 s into the third compute phase, so every node has
// lost 4 + 4 + 1.6 = 9.6 s of work (the old accounting said 8).
TEST(SimCluster, LostWorkCountsInFlightIteration) {
  ScaleConfig cfg = base();
  cfg.compute_per_iter = 4.0;
  cfg.comm_bytes_per_iter = 1.0e9;  // 0.2 s per iteration at 5 GB/s/node
  cfg.total_compute = 20.0;
  cfg.local_interval = 1e9;  // never checkpoints: rollback goes to zero
  cfg.remote_enabled = false;
  cfg.forced_outages.push_back({10.0, OutageKind::kNodeSoft, 0});
  const ScaleResult r = run_scale_cluster(cfg);
  EXPECT_EQ(r.soft_failures, 1);
  EXPECT_NEAR(r.lost_work, 9.6 * cfg.topo.nodes, 1e-9);  // node-seconds
}

// Same bug, failure during the communication phase: the iteration's compute
// finished but was never credited, so a failure at t = 8.3 (mid-comm of
// iteration 2) destroys 4 + 4 = 8 s per node (old accounting: 4).
TEST(SimCluster, LostWorkCountsCommPhaseIteration) {
  ScaleConfig cfg = base();
  cfg.compute_per_iter = 4.0;
  cfg.comm_bytes_per_iter = 1.0e9;
  cfg.total_compute = 20.0;
  cfg.local_interval = 1e9;
  cfg.remote_enabled = false;
  cfg.forced_outages.push_back({8.3, OutageKind::kNodeSoft, 0});
  const ScaleResult r = run_scale_cluster(cfg);
  EXPECT_EQ(r.soft_failures, 1);
  EXPECT_NEAR(r.lost_work, 8.0 * cfg.topo.nodes, 1e-9);
}

// Fig 9's shape over the bench's full grid (same preset, bandwidths,
// intervals and seeds as bench_fig9_efficiency): remote pre-copy never
// loses to the burst, and it cuts the average runtime overhead by at
// least 30% (the paper reports ~40%). Deterministic, so it cannot flake.
TEST(SimCluster, Fig9PrecopyBeatsBurstAcrossTheGrid) {
  OnlineStats overhead_nopc, overhead_pc;
  for (const double bw : {1.0e9, 2.0e9, 4.0e9}) {
    for (const double ri : {47.0, 90.0, 120.0, 180.0}) {
      double eff[2] = {0, 0};
      for (const int precopy : {0, 1}) {
        OnlineStats acc;
        for (const std::uint64_t seed : {11u, 22u, 33u, 44u, 55u}) {
          ScaleConfig cfg = fig9_config();
          cfg.remote_interval = ri;
          cfg.precopy = precopy != 0;
          cfg.nvm_bw = bw;
          cfg.seed = seed;
          acc.add(run_scale_cluster(cfg).efficiency);
        }
        eff[precopy] = acc.mean();
      }
      EXPECT_GE(eff[1], eff[0]) << "bw " << bw << " interval " << ri;
      overhead_nopc.add(1.0 / eff[0] - 1.0);
      overhead_pc.add(1.0 / eff[1] - 1.0);
    }
  }
  EXPECT_LE(overhead_pc.mean(), 0.7 * overhead_nopc.mean())
      << "no-precopy " << overhead_nopc.mean() << " precopy "
      << overhead_pc.mean();
}

// Property sweep: completion and sane efficiency across the parameter grid
// used by the Fig 9 bench.
class ClusterSweep
    : public ::testing::TestWithParam<std::tuple<double, double, bool>> {};

TEST_P(ClusterSweep, CompletesWithSaneEfficiency) {
  ScaleConfig cfg = base();
  cfg.nvm_bw = std::get<0>(GetParam());
  cfg.remote_interval = std::get<1>(GetParam());
  cfg.precopy = std::get<2>(GetParam());
  cfg.remote_enabled = true;
  cfg.node_soft_mtbf = per_node(cfg, 200.0);
  cfg.node_hard_mtbf = per_node(cfg, 900.0);
  const ScaleResult r = run_scale_cluster(cfg);
  EXPECT_GT(r.efficiency, 0.0);
  EXPECT_LE(r.efficiency, 1.0 + 1e-9);
  EXPECT_GT(r.iterations, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ClusterSweep,
    ::testing::Combine(::testing::Values(0.4e9, 1.0e9, 2.0e9),
                       ::testing::Values(47.0, 120.0, 180.0),
                       ::testing::Bool()));

}  // namespace
}  // namespace nvmcp::sim
