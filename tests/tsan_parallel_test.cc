// Threaded run-level parallelism smoke for the TSan gate.
//
// tsan_smoke_test.cc certifies the obs layer's sharing pattern; this file
// certifies run-level parallelism (core/run_shard.h) under real worker
// threads: a fig09-mini sweep sharded across a ShardedRunSet with per-run
// obs capture. Under -DSTELLAR_SANITIZE=thread (tools/ci_checks.sh) TSan
// watches the worker hand-offs and per-run hub installs for real; in
// plain builds the test still asserts the deterministic-merge contract:
// threaded results equal the single-threaded reference exactly.
//
// tests/tsan_race_demo.cc is the control: an unprotected cross-thread
// hand-off that the same TSan build MUST flag.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "collective/traffic.h"
#include "core/run_shard.h"
#include "obs/obs.h"

using namespace stellar;

namespace {

// ---------------------------------------------------------------------------
// fig09-mini sharded across a ShardedRunSet (run-level parallelism with
// per-run obs capture merged in index order).
// ---------------------------------------------------------------------------

struct MiniResult {
  std::uint64_t bytes = 0;
  std::uint64_t events = 0;
  std::int64_t final_ps = 0;
};

MiniResult run_mini(MultipathAlgo algo) {
  Simulator sim;
  if (obs::ObsHub* h = obs::hub()) h->set_clock(&sim);
  FabricConfig fc;
  fc.segments = 2;
  fc.hosts_per_segment = 2;
  fc.rails = 1;
  fc.planes = 1;
  fc.aggs_per_plane = 2;
  ClosFabric fabric(sim, fc);
  EngineFleet fleet(sim, fabric);

  std::vector<EndpointId> eps;
  for (std::uint32_t s = 0; s < 2; ++s) {
    for (std::uint32_t h = 0; h < 2; ++h) {
      eps.push_back(fabric.endpoint(s, h, 0, 0));
    }
  }
  PermutationConfig pc;
  pc.message_bytes = 64 * 1024;
  pc.transport.algo = algo;
  pc.transport.num_paths = 8;
  pc.seed = 5;
  PermutationTraffic traffic(fleet, eps, {}, pc);
  traffic.start();
  sim.run_until(SimTime::micros(200));
  MiniResult out;
  out.bytes = traffic.completed_bytes();
  traffic.stop();
  out.events = sim.executed_events();
  out.final_ps = sim.now().ps();
  if (obs::ObsHub* h = obs::hub()) h->set_clock(nullptr);
  return out;
}

TEST(TsanParallelTest, ThreadedMiniPermutationRunSet) {
  obs::ObsHub hub;
  obs::ObsHub* prev = obs::install_hub(&hub);

  const MultipathAlgo algos[] = {
      MultipathAlgo::kObs, MultipathAlgo::kRoundRobin,
      MultipathAlgo::kSinglePath, MultipathAlgo::kBestRtt};
  const auto sweep = [&algos](std::uint32_t threads) {
    std::vector<MiniResult> out(4);
    ShardedRunSet runs(threads);
    for (std::size_t i = 0; i < out.size(); ++i) {
      MiniResult* slot = &out[i];
      const MultipathAlgo algo = algos[i];
      runs.add([slot, algo] { *slot = run_mini(algo); });
    }
    runs.execute();
    return out;
  };

  const std::size_t t0 = hub.tracer().event_count();
  const std::vector<MiniResult> ref = sweep(1);
  const std::size_t t1 = hub.tracer().event_count();
  const std::vector<MiniResult> par = sweep(4);
  const std::size_t t2 = hub.tracer().event_count();

  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_GT(ref[i].events, 100u) << "run " << i << " too small";
    EXPECT_EQ(ref[i].bytes, par[i].bytes) << "run " << i;
    EXPECT_EQ(ref[i].events, par[i].events) << "run " << i;
    EXPECT_EQ(ref[i].final_ps, par[i].final_ps) << "run " << i;
  }
  // Per-run capture merges the same trace volume whatever the thread count.
  EXPECT_EQ(t1 - t0, t2 - t1);

  obs::install_hub(prev);
}

}  // namespace
