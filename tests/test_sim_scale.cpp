// Cluster-scale simulator: strategy coverage under correlated failures,
// scale behavior, and the 10k-node acceptance sweep (under the `stress`
// ctest label via the *Acceptance* filter).
#include <gtest/gtest.h>

#include <cstdint>

#include "sim/cluster_scale.hpp"

namespace nvmcp::sim {
namespace {

ScaleConfig base(int nodes) {
  ScaleConfig cfg;
  cfg.topo.nodes = nodes;
  cfg.topo.nodes_per_rack = 16;
  cfg.topo.racks_per_switch = 8;
  cfg.compute_per_iter = 4.0;
  cfg.compute_jitter = 0.01;
  cfg.comm_bytes_per_iter = 0.8e9;
  cfg.total_compute = 120.0;
  cfg.ckpt_bytes = 4.7e9;
  cfg.local_interval = 40.0;
  cfg.remote_interval = 120.0;
  return cfg;
}

TEST(SimScale, CleanRunLandsNearIdeal) {
  ScaleConfig cfg = base(64);
  cfg.remote_enabled = false;
  cfg.local_interval = 1e9;  // no checkpoints, no failures: jitter only
  const ScaleResult r = run_scale_cluster(cfg);
  EXPECT_GT(r.efficiency, 0.90);
  EXPECT_LT(r.efficiency, 1.0);  // straggler jitter keeps it below ideal
  EXPECT_EQ(r.local_checkpoints, 0);
  EXPECT_EQ(r.unrecoverable, 0);
  EXPECT_EQ(r.iterations, 30);  // 120 / 4
  EXPECT_TRUE(r.queue_drained);
}

TEST(SimScale, CheckpointingCostsEfficiency) {
  ScaleConfig cfg = base(64);
  cfg.remote_enabled = false;
  cfg.local_interval = 1e9;
  const double no_ckpt = run_scale_cluster(cfg).efficiency;
  cfg.local_interval = 40.0;
  cfg.remote_enabled = true;
  const ScaleResult with_ckpt = run_scale_cluster(cfg);
  EXPECT_LT(with_ckpt.efficiency, no_ckpt);
  EXPECT_GT(with_ckpt.local_checkpoints, 0);
  EXPECT_GT(with_ckpt.nvm_bytes, 0.0);
  EXPECT_GT(with_ckpt.remote_bytes, 0.0);
}

TEST(SimScale, StragglersGrowWithScale) {
  ScaleConfig small = base(64);
  small.remote_enabled = false;
  small.local_interval = 1e9;
  ScaleConfig big = small;
  big.topo.nodes = 1024;
  const double e_small = run_scale_cluster(small).efficiency;
  const double e_big = run_scale_cluster(big).efficiency;
  EXPECT_LT(e_big, e_small);  // max of N jitter draws grows ~ln N
}

TEST(SimScale, PairwiseBuddyDiesWithItsRack) {
  // One forced rack outage after the first remote cut. In-rack pairwise
  // replication (stride 0) loses both copies -> job restarts from zero;
  // a cross-rack ring rolls back only to the committed cut.
  ScaleConfig cfg = base(128);
  cfg.strategy = RemoteStrategy::kReplication;
  cfg.total_compute = 240.0;
  cfg.forced_outages.push_back({200.0, OutageKind::kRackOutage, 3});

  cfg.ring_rack_stride = 0;  // the paper's in-rack pairwise buddy
  const ScaleResult pairwise = run_scale_cluster(cfg);
  cfg.ring_rack_stride = 1;
  const ScaleResult ring = run_scale_cluster(cfg);

  ASSERT_EQ(pairwise.rack_outages, 1);
  ASSERT_EQ(ring.rack_outages, 1);
  EXPECT_EQ(pairwise.unrecoverable, 1);
  EXPECT_EQ(ring.unrecoverable, 0);
  EXPECT_EQ(ring.recoveries_buddy, 1);
  EXPECT_GT(ring.efficiency, pairwise.efficiency);
  EXPECT_LT(ring.lost_work, pairwise.lost_work);
}

TEST(SimScale, RSParitySurvivesRackButNotSwitchOutage) {
  ScaleConfig cfg = base(256);  // 16 racks, 2 switches
  cfg.strategy = RemoteStrategy::kRSParity;
  cfg.total_compute = 240.0;
  cfg.forced_outages.push_back({200.0, OutageKind::kRackOutage, 5});
  const ScaleResult rack_hit = run_scale_cluster(cfg);
  ASSERT_EQ(rack_hit.rack_outages, 1);
  // Rack-transposed groups lose at most one member per rack outage.
  EXPECT_EQ(rack_hit.unrecoverable, 0);
  EXPECT_EQ(rack_hit.recoveries_parity, 1);

  cfg.forced_outages.back() = {200.0, OutageKind::kSwitchOutage, 0};
  const ScaleResult switch_hit = run_scale_cluster(cfg);
  ASSERT_EQ(switch_hit.switch_outages, 1);
  // 8 racks die at once: every group loses more than m members.
  EXPECT_EQ(switch_hit.unrecoverable, 1);
  EXPECT_GT(switch_hit.lost_work, rack_hit.lost_work);
}

TEST(SimScale, HybridSurvivesSwitchOutage) {
  ScaleConfig cfg = base(256);
  cfg.strategy = RemoteStrategy::kHybrid;
  cfg.hybrid_replica_every = 1;  // replica at every cut for the test
  cfg.total_compute = 240.0;
  cfg.forced_outages.push_back({200.0, OutageKind::kSwitchOutage, 0});
  const ScaleResult r = run_scale_cluster(cfg);
  ASSERT_EQ(r.switch_outages, 1);
  EXPECT_EQ(r.unrecoverable, 0);
  EXPECT_EQ(r.recoveries_buddy, 1);  // cross-switch ring replica took over
}

TEST(SimScale, RSShipsLessButRebuildsSlower) {
  // Per remote cut, RS ships m/k of the replication volume; the price is a
  // k-share rebuild on every hard failure.
  ScaleConfig repl = base(128);
  repl.strategy = RemoteStrategy::kReplication;
  repl.node_hard_mtbf = 0;
  ScaleConfig rs = repl;
  rs.strategy = RemoteStrategy::kRSParity;
  const ScaleResult a = run_scale_cluster(repl);
  const ScaleResult b = run_scale_cluster(rs);
  ASSERT_GT(a.remote_cuts, 0);
  ASSERT_GT(b.remote_cuts, 0);
  EXPECT_LT(b.remote_bytes, 0.5 * a.remote_bytes);

  repl.node_hard_mtbf = 8.0e2;
  rs.node_hard_mtbf = 8.0e2;
  const ScaleResult af = run_scale_cluster(repl);
  const ScaleResult bf = run_scale_cluster(rs);
  ASSERT_GT(af.hard_failures, 0);
  ASSERT_GT(bf.hard_failures, 0);
  EXPECT_GT(bf.restart_seconds, af.restart_seconds);
}

TEST(SimScale, SoftFailuresRecoverLocally) {
  ScaleConfig cfg = base(64);
  cfg.forced_outages.push_back({60.0, OutageKind::kNodeSoft, 5});
  cfg.forced_outages.push_back({110.0, OutageKind::kNodeSoft, 40});
  const ScaleResult r = run_scale_cluster(cfg);
  ASSERT_EQ(r.soft_failures, 2);
  EXPECT_EQ(r.recoveries_local, r.soft_failures);
  EXPECT_GT(r.lost_work, 0.0);
  EXPECT_TRUE(r.queue_drained);

  // Random soft and hard failures on the Fig-9 preset, with remote
  // pre-copy flows in flight: late outages and unfinished flows are all
  // guarded, so the queue still drains after the job finishes.
  ScaleConfig fig9 = fig9_config();
  fig9.total_compute = 400.0;
  fig9.node_soft_mtbf = fig9.topo.nodes * 90.0;
  fig9.node_hard_mtbf = fig9.topo.nodes * 300.0;
  const ScaleResult f = run_scale_cluster(fig9);
  EXPECT_GT(f.soft_failures + f.hard_failures, 0);
  EXPECT_TRUE(f.queue_drained);
  EXPECT_GT(f.events_fired, 0u);
}

TEST(SimScale, EfficiencyIsWallConsistent) {
  ScaleConfig cfg = base(64);
  cfg.node_soft_mtbf = 3.0e4;
  const ScaleResult r = run_scale_cluster(cfg);
  EXPECT_NEAR(r.efficiency * r.wall, r.ideal, 1e-6 * r.ideal);
  EXPECT_GT(r.efficiency, 0.0);
  EXPECT_LT(r.efficiency, 1.0);

  // Same on the Fig-9 preset under soft failures (job-level MTBF 120 s).
  ScaleConfig fig9 = fig9_config();
  fig9.total_compute = 400.0;
  fig9.node_soft_mtbf = fig9.topo.nodes * 120.0;
  fig9.node_hard_mtbf = 0;
  const ScaleResult f = run_scale_cluster(fig9);
  EXPECT_GT(f.soft_failures, 0);
  EXPECT_NEAR(f.wall * f.efficiency, f.ideal, 1e-6);
}

// 10 240-node correlated-failure frontier point: the acceptance shape from
// the issue. Each run fires >10^6 engine events; a rack outage and a switch
// outage land mid-run on top of stochastic soft failures, so the three
// strategies separate exactly where the design says they should. Registered
// under the `stress` ctest label.
TEST(SimScaleAcceptance, TenThousandNodeFrontierSweep) {
  auto run_strategy = [](RemoteStrategy strategy) {
    ScaleConfig cfg = base(10240);  // 640 racks, 80 switches
    cfg.strategy = strategy;
    cfg.total_compute = 240.0;
    cfg.node_soft_mtbf = 2.0e6;  // cluster-wide: a soft failure every ~195 s
    cfg.forced_outages.push_back({100.0, OutageKind::kRackOutage, 17});
    cfg.forced_outages.push_back({180.0, OutageKind::kSwitchOutage, 3});
    cfg.seed = 42;
    const ScaleResult a = run_scale_cluster(cfg);
    const ScaleResult b = run_scale_cluster(cfg);
    // Completes, drains, and replays bit-identically.
    EXPECT_TRUE(a.queue_drained) << to_string(strategy);
    EXPECT_GT(a.efficiency, 0.0);
    EXPECT_LE(a.efficiency, 1.0);
    EXPECT_GT(a.events_fired, 1000000u) << to_string(strategy);
    EXPECT_EQ(a.rack_outages, 1);
    EXPECT_EQ(a.switch_outages, 1);
    EXPECT_EQ(a.wall, b.wall) << to_string(strategy);
    EXPECT_EQ(a.lost_work, b.lost_work);
    EXPECT_EQ(a.events_fired, b.events_fired);
    return a;
  };
  const ScaleResult repl = run_strategy(RemoteStrategy::kReplication);
  const ScaleResult rs = run_strategy(RemoteStrategy::kRSParity);
  const ScaleResult hybrid = run_strategy(RemoteStrategy::kHybrid);
  // Cross-rack ring survives the rack outage but not the switch outage
  // (stride 1 stays inside the switch domain); rack-transposed RS groups
  // span switch boundaries, so 8 dead racks exceed m = 2 somewhere.
  EXPECT_EQ(repl.unrecoverable, 1);
  EXPECT_EQ(rs.unrecoverable, 1);
  // Hybrid's cross-switch replica covers both correlated outages.
  EXPECT_EQ(hybrid.unrecoverable, 0);
  EXPECT_GT(hybrid.efficiency, repl.efficiency);
  EXPECT_GT(hybrid.efficiency, rs.efficiency);
  // RS ships ~m/k of replication's redundancy volume.
  EXPECT_LT(rs.remote_bytes, repl.remote_bytes);
}

}  // namespace
}  // namespace nvmcp::sim
