// Processor-sharing bandwidth resource: exact completion times for single
// and concurrent flows, cancel_all, and timeline accounting.
#include <gtest/gtest.h>

#include "sim/resource.hpp"

namespace nvmcp::sim {
namespace {

TEST(SimResource, SingleFlowCompletesAtRate) {
  Engine eng;
  SharedBandwidth pipe(eng, 100.0);  // 100 bytes/s
  double done_at = -1;
  pipe.submit(250.0, 0, [&](double) { done_at = eng.now(); });
  eng.run();
  EXPECT_NEAR(done_at, 2.5, 1e-9);
}

TEST(SimResource, TwoEqualFlowsShareFairly) {
  Engine eng;
  SharedBandwidth pipe(eng, 100.0);
  double a_done = -1, b_done = -1;
  pipe.submit(100.0, 0, [&](double) { a_done = eng.now(); });
  pipe.submit(100.0, 0, [&](double) { b_done = eng.now(); });
  eng.run();
  // 200 bytes through a 100 B/s pipe: both finish at t=2.
  EXPECT_NEAR(a_done, 2.0, 1e-9);
  EXPECT_NEAR(b_done, 2.0, 1e-9);
}

TEST(SimResource, LateArrivalSlowsExistingFlow) {
  Engine eng;
  SharedBandwidth pipe(eng, 100.0);
  double a_done = -1, b_done = -1;
  pipe.submit(200.0, 0, [&](double) { a_done = eng.now(); });
  eng.schedule_at(1.0, [&] {
    // At t=1, flow A has 100 bytes left; now it shares.
    pipe.submit(50.0, 1, [&](double) { b_done = eng.now(); });
  });
  eng.run();
  // From t=1: A=100 left, B=50, each at 50 B/s. B done at t=2; then A has
  // 50 left at 100 B/s: done at 2.5.
  EXPECT_NEAR(b_done, 2.0, 1e-9);
  EXPECT_NEAR(a_done, 2.5, 1e-9);
}

TEST(SimResource, DepartureSpeedsUpRemaining) {
  Engine eng;
  SharedBandwidth pipe(eng, 100.0);
  double big_done = -1;
  pipe.submit(50.0, 0, nullptr);         // finishes at t=1 (sharing)
  pipe.submit(150.0, 0, [&](double) { big_done = eng.now(); });
  eng.run();
  // Until t=1 both at 50 B/s (small:50 done, big:100 left); then big alone
  // at 100 B/s: one more second.
  EXPECT_NEAR(big_done, 2.0, 1e-9);
}

TEST(SimResource, CancelAllSilencesEverything) {
  Engine eng;
  SharedBandwidth pipe(eng, 100.0);
  int completions = 0;
  pipe.submit(100.0, 0, [&](double) { ++completions; });
  pipe.submit(200.0, 0, [&](double) { ++completions; });
  eng.schedule_at(0.1, [&] { pipe.cancel_all(); });
  eng.run();
  EXPECT_EQ(completions, 0);
  EXPECT_EQ(pipe.active_flows(), 0u);
}

TEST(SimResource, TimelineTracksBytesByClass) {
  Engine eng;
  SharedBandwidth pipe(eng, 100.0, /*bucket=*/1.0);
  pipe.submit(100.0, 0, nullptr);
  pipe.submit(300.0, 1, nullptr);
  eng.run();
  EXPECT_NEAR(pipe.total_bytes(0), 100.0, 1e-6);
  EXPECT_NEAR(pipe.total_bytes(1), 300.0, 1e-6);
}

TEST(SimResource, PeakRateRespectsCapacity) {
  Engine eng;
  SharedBandwidth pipe(eng, 100.0, 1.0);
  pipe.submit(500.0, 1, nullptr);
  eng.run();
  EXPECT_LE(pipe.timeline(1).peak_rate(), 100.0 + 1e-6);
}

TEST(SimResource, ZeroByteFlowCompletesImmediately) {
  Engine eng;
  SharedBandwidth pipe(eng, 100.0);
  double done_at = -1;
  pipe.submit(0.0, 0, [&](double) { done_at = eng.now(); });
  eng.run();
  EXPECT_NEAR(done_at, 0.0, 1e-6);
}

TEST(SimResource, ElapsedReportedToCallback) {
  Engine eng;
  SharedBandwidth pipe(eng, 100.0);
  double elapsed = -1;
  eng.schedule_at(3.0, [&] {
    pipe.submit(100.0, 0, [&](double e) { elapsed = e; });
  });
  eng.run();
  EXPECT_NEAR(elapsed, 1.0, 1e-9);
}

}  // namespace
}  // namespace nvmcp::sim
