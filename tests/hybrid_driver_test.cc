// HybridDriver behaviour regressions outside the fault path:
//
//   * a zero-length WRITE on a fluid connection has no bytes to serve and
//     so no fluid completion time; it must zoom its region like SEND/READ
//     and complete in packet mode, without stalling the messages behind it;
//   * promotion timing after an explicit zoom window: hybrid fidelity
//     promotes on the 3rd quiet 5 us epoch and not before, pure fluid
//     fidelity after the first one.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "collective/fleet.h"
#include "sim/hybrid.h"

namespace stellar {
namespace {

FabricConfig small_fabric() {
  FabricConfig fc;
  fc.segments = 2;
  fc.hosts_per_segment = 2;
  fc.rails = 1;
  fc.planes = 1;
  fc.aggs_per_plane = 8;
  return fc;
}

class HybridDriverTest : public ::testing::Test {
 protected:
  HybridDriverTest()
      : fabric_(sim_, small_fabric()),
        driver_(sim_, fabric_, Fidelity::kHybrid),
        fleet_(sim_, fabric_),
        dst_(fabric_.endpoint(1, 0, 0, 0)) {
    TransportConfig t;
    t.algo = MultipathAlgo::kObs;
    t.num_paths = 8;
    conn_ = fleet_.connect(fabric_.endpoint(0, 0, 0, 0), dst_, t).value();
  }

  Simulator sim_;
  ClosFabric fabric_;
  HybridDriver driver_;
  EngineFleet fleet_;
  EndpointId dst_;
  RdmaConnection* conn_ = nullptr;
};

TEST_F(HybridDriverTest, ZeroLengthWriteOnFluidConnectionCompletes) {
  ASSERT_EQ(driver_.region_mode(0), RegionMode::kFluid);
  bool done = false;
  conn_->post_write(0, [&] { done = true; });
  sim_.run_until(SimTime::millis(5));
  EXPECT_TRUE(done) << "zero-length WRITE never completed";
  EXPECT_TRUE(conn_->status().is_ok());
  EXPECT_TRUE(conn_->idle());
}

TEST_F(HybridDriverTest, ZeroLengthWriteDoesNotStallLaterMessages) {
  ASSERT_EQ(driver_.region_mode(0), RegionMode::kFluid);
  std::vector<int> order;
  conn_->post_write(1_MiB, [&] { order.push_back(0); });
  conn_->post_write(0, [&] { order.push_back(1); });
  conn_->post_write(1_MiB, [&] { order.push_back(2); });
  sim_.run_until(SimTime::millis(5));
  // Packet mode completes each message on its own last ACK, so the
  // zero-length one may finish first; each must finish exactly once.
  std::sort(order.begin(), order.end());
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(fleet_.at(dst_).rx_goodput_bytes(), 2_MiB);
  EXPECT_TRUE(conn_->idle());
}

TEST_F(HybridDriverTest, ZeroLengthWritePostedFromFluidCompletionCompletes) {
  // The post lands mid-serve (inside a fluid completion callback), so the
  // zoom it triggers is deferred to the end of the serve loop.
  std::vector<int> order;
  conn_->post_write(1_MiB, [&] {
    order.push_back(0);
    conn_->post_write(0, [&] {
      order.push_back(1);
      conn_->post_write(1_MiB, [&] { order.push_back(2); });
    });
  });
  sim_.run_until(SimTime::millis(5));
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(fleet_.at(dst_).rx_goodput_bytes(), 2_MiB);
  EXPECT_TRUE(conn_->idle());
}

// ---------------------------------------------------------------------------
// Promotion timing. The zoom window is [100 us, 150 us); the trigger epoch
// is 5 us and starts at the zoom, so ticks land at 105, 110, ... us and the
// first one past the hold is at 150 us. The region's one connection is
// idle (queues empty, no ECN marks or retransmits), so every tick from
// 150 us on is quiet.
// ---------------------------------------------------------------------------

struct PromotionProbe {
  RegionMode at_us[4] = {};  // region mode at 149, 151, 156 and 161 us
  std::uint64_t transitions = 0;
};

PromotionProbe run_zoom_window(Fidelity fidelity) {
  Simulator sim;
  ClosFabric fabric(sim, small_fabric());
  HybridDriver driver(sim, fabric, fidelity);
  EngineFleet fleet(sim, fabric);
  TransportConfig t;
  t.algo = MultipathAlgo::kObs;
  t.num_paths = 8;
  RdmaConnection* conn =
      fleet.connect(fabric.endpoint(0, 0, 0, 0), fabric.endpoint(1, 0, 0, 0),
                    t)
          .value();
  // A small WRITE completes in fluid well before the window opens.
  conn->post_write(64_KiB, {});
  driver.request_zoom_window(SimTime::micros(100), SimTime::micros(150));

  PromotionProbe probe;
  const std::int64_t probe_us[4] = {149, 151, 156, 161};
  for (int i = 0; i < 4; ++i) {
    sim.schedule_at(SimTime::micros(probe_us[i]), [&probe, &driver, i] {
      probe.at_us[i] = driver.region_mode(0);
    });
  }
  // Keeps the simulator (and so the trigger poll) alive past the probes.
  sim.schedule_at(SimTime::micros(500), [] {});
  sim.run();
  probe.transitions = driver.transitions();
  return probe;
}

TEST(HybridPromotionTest, HybridPromotesOnThirdQuietEpoch) {
  const PromotionProbe p = run_zoom_window(Fidelity::kHybrid);
  EXPECT_EQ(p.at_us[0], RegionMode::kPacket) << "promoted inside the window";
  EXPECT_EQ(p.at_us[1], RegionMode::kPacket) << "promoted after 1 epoch";
  EXPECT_EQ(p.at_us[2], RegionMode::kPacket) << "promoted after 2 epochs";
  EXPECT_EQ(p.at_us[3], RegionMode::kFluid) << "not promoted after 3 epochs";
  EXPECT_EQ(p.transitions, 2u);
}

TEST(HybridPromotionTest, FluidPromotesAfterOneEpoch) {
  const PromotionProbe p = run_zoom_window(Fidelity::kFluid);
  EXPECT_EQ(p.at_us[0], RegionMode::kPacket) << "promoted inside the window";
  EXPECT_EQ(p.at_us[1], RegionMode::kFluid) << "not promoted after 1 epoch";
  EXPECT_EQ(p.at_us[3], RegionMode::kFluid);
  EXPECT_EQ(p.transitions, 2u);
}

}  // namespace
}  // namespace stellar
