// HybridDriver behaviour regressions outside the fault path:
//
//   * a zero-length WRITE on a fluid connection has no bytes to serve and
//     so no fluid completion time; it must zoom its region like SEND/READ
//     and complete in packet mode, without stalling the messages behind it;
//   * promotion timing after an explicit zoom window: hybrid fidelity
//     promotes on the 3rd quiet 5 us epoch and not before, pure fluid
//     fidelity after the first one;
//   * deferred fluid service (bytes earned short of a message's end stay in
//     the driver): a zoom that opens mid-message still syncs the served
//     prefix to the receiver, and a completion callback that posts to a
//     flow drained earlier in the same advance keeps that flow active —
//     both pinned to exact picosecond values;
//   * zoom reasons are counted per region and per reason;
//   * snapshotting a connection under fluid service fails loudly.
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

// ---------------------------------------------------------------------------
// Deferred fluid service. The pinned values are those of serving every
// advance eagerly; a driver that holds earned bytes back must reproduce
// them exactly.
// ---------------------------------------------------------------------------

TEST_F(HybridDriverTest, ZoomWindowMidMessageSyncsServedPrefix) {
  // A second connection from the same host shares its uplink, so each of
  // its small completions re-rates (and advances) the big message.
  TransportConfig t;
  t.algo = MultipathAlgo::kObs;
  t.num_paths = 8;
  RdmaConnection* side =
      fleet_.connect(fabric_.endpoint(0, 0, 0, 0), fabric_.endpoint(1, 1, 0, 0),
                     t)
          .value();
  std::int64_t done_ps = -1;
  conn_->post_write(4_MiB, [&] { done_ps = sim_.now().ps(); });
  for (int i = 0; i < 4; ++i) side->post_write(128_KiB, {});
  const SimTime start = SimTime::micros(40);
  driver_.request_zoom_window(start, SimTime::micros(60));
  std::uint64_t prefix = 0;
  RegionMode mode = RegionMode::kFluid;
  sim_.schedule_at(start + SimTime::picos(1), [&] {
    prefix = fleet_.at(dst_).rx_goodput_bytes();
    mode = driver_.region_mode(0);
  });
  sim_.run_until(SimTime::millis(5));
  EXPECT_EQ(mode, RegionMode::kPacket);
  EXPECT_EQ(side->completed_messages(), 4u);
  // Bytes fluid served before the zoom, synced by fluid_advance at thaw.
  EXPECT_EQ(prefix, 499999u);
  EXPECT_EQ(done_ps, 194343081);
  EXPECT_EQ(fleet_.at(dst_).rx_goodput_bytes(), 4_MiB);
}

TEST_F(HybridDriverTest, PostFromCompletionKeepsDrainedFlowActive) {
  // Two symmetric connections get bit-equal rates, so their 1 MiB WRITEs
  // complete in one advance. conn_ registered first and is served first:
  // its queue drains, then `other`'s completion posts to conn_. The flow
  // must not retire: the post behind it was never a flow start.
  TransportConfig t;
  t.algo = MultipathAlgo::kObs;
  t.num_paths = 8;
  RdmaConnection* other =
      fleet_.connect(fabric_.endpoint(0, 1, 0, 0), fabric_.endpoint(1, 1, 0, 0),
                     t)
          .value();
  std::int64_t first_ps = -1;
  std::int64_t other_ps = -1;
  std::int64_t second_ps = -1;
  std::uint64_t completions_at_post = 0;
  conn_->post_write(1_MiB, [&] { first_ps = sim_.now().ps(); });
  other->post_write(1_MiB, [&] {
    other_ps = sim_.now().ps();
    completions_at_post = driver_.fluid_completions();
    conn_->post_write(1_MiB, [&] { second_ps = sim_.now().ps(); });
  });
  sim_.run_until(SimTime::millis(5));
  EXPECT_EQ(first_ps, other_ps) << "not completed in one advance";
  EXPECT_EQ(first_ps, 41943041);
  EXPECT_EQ(completions_at_post, 0u);
  EXPECT_EQ(second_ps, 83886081);
  // conn_'s flow served both messages as one flow; `other` retired once.
  EXPECT_EQ(driver_.fluid_completions(), 2u);
  EXPECT_EQ(driver_.region_mode(0), RegionMode::kFluid);
  EXPECT_EQ(fleet_.at(dst_).rx_goodput_bytes(), 2_MiB);
}

// ---------------------------------------------------------------------------
// Zoom reasons. Two regions (planes), one connection each: an ineligible
// post zooms only its own region; a zoom window and a fault zoom both.
// ---------------------------------------------------------------------------

TEST(HybridZoomReasonTest, CountsEachReasonPerRegion) {
  FabricConfig fc = small_fabric();
  fc.planes = 2;
  Simulator sim;
  ClosFabric fabric(sim, fc);
  HybridDriver driver(sim, fabric, Fidelity::kHybrid);
  EngineFleet fleet(sim, fabric);
  TransportConfig t;
  t.algo = MultipathAlgo::kObs;
  t.num_paths = 8;
  RdmaConnection* c0 = fleet
                           .connect(fabric.endpoint(0, 0, 0, 0),
                                    fabric.endpoint(1, 0, 0, 0), t)
                           .value();
  RdmaConnection* c1 = fleet
                           .connect(fabric.endpoint(0, 0, 0, 1),
                                    fabric.endpoint(1, 0, 0, 1), t)
                           .value();
  ASSERT_EQ(driver.region_count(), 2u);
  c1->post_write(64_KiB, {});
  // t=0: a zero-length WRITE is ineligible; region 0 zooms alone, then
  // promotes once quiet (no hold).
  c0->post_write(0, {});
  // [100, 150) us: a zoom window over both regions; both promote by 170 us.
  driver.request_zoom_window(SimTime::micros(100), SimTime::micros(150));
  // 300 us: a fault zooms both; the repeat finds them in packet mode and
  // is not counted.
  sim.schedule_at(SimTime::micros(300), [&] {
    driver.force_packet(SimTime::micros(20), ZoomReason::kFault);
    driver.force_packet(SimTime::micros(20), ZoomReason::kFault);
  });
  RegionMode before_window[2] = {};
  sim.schedule_at(SimTime::micros(99), [&] {
    before_window[0] = driver.region_mode(0);
    before_window[1] = driver.region_mode(1);
  });
  sim.schedule_at(SimTime::micros(500), [] {});
  sim.run();
  EXPECT_EQ(before_window[0], RegionMode::kFluid);
  EXPECT_EQ(before_window[1], RegionMode::kFluid);
  EXPECT_EQ(driver.zooms(0, ZoomReason::kIneligiblePost), 1u);
  EXPECT_EQ(driver.zooms(1, ZoomReason::kIneligiblePost), 0u);
  for (std::uint32_t r = 0; r < 2; ++r) {
    EXPECT_EQ(driver.zooms(r, ZoomReason::kZoomWindow), 1u) << "region " << r;
    EXPECT_EQ(driver.zooms(r, ZoomReason::kFault), 1u) << "region " << r;
  }
  // Every zoom is a fluid -> packet transition, paired with a promotion
  // back (all regions end fluid): 3 + 2 zooms, 5 promotions.
  EXPECT_EQ(driver.region_mode(0), RegionMode::kFluid);
  EXPECT_EQ(driver.region_mode(1), RegionMode::kFluid);
  EXPECT_EQ(driver.transitions(), 10u);
}

TEST_F(HybridDriverTest, SnapshotOfFluidConnectionFailsLoudly) {
  // Born in fluid: the connection is frozen before it posts anything.
  ASSERT_EQ(driver_.region_mode(0), RegionMode::kFluid);
  conn_->post_write(1_MiB, {});
  RdmaEngine& src = fleet_.at(fabric_.endpoint(0, 0, 0, 0));
  EXPECT_DEATH((void)src.save_state(),
               "snapshot of a connection under fluid service");
}

}  // namespace
}  // namespace stellar
