// The three benchmark workloads. Each builds its simulations through the
// public API of the simulator's modules (ClosFabric, HybridDriver,
// EngineFleet/RdmaEngine, RingAllReduce/PermutationTraffic, FaultInjector)
// and drives them with Simulator::run_until, timing every call from the
// outside.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "probe.h"

namespace perfbench {

using stellar::bench::Fidelity;

struct Params {
  std::string workload;
  /// Scenario indices the seed was folded onto: each generates a rank
  /// placement, a permutation or a fault plan. allreduce_fault_hybrid
  /// simulates every listed scenario in each repetition; the other
  /// workloads take exactly one.
  std::vector<std::uint64_t> scenarios;
  /// Hybrid workloads run hybrid; the reference mode reruns them packet.
  Fidelity fidelity = Fidelity::kHybrid;
};

/// Host time of each construction phase, seconds.
struct SetupTimes {
  double fabric = 0, engines = 0, collective = 0, fault = 0;
  double total() const { return fabric + engines + collective + fault; }
};

/// One repetition of a workload: every simulation it holds, built and run.
struct Rep {
  SetupTimes setup;
  double run_s = 0;      // host wall time inside Simulator::run_until
  double run_cpu_s = 0;  // host CPU time over the same calls
  std::uint64_t minor_faults = 0;
  /// Per-layer counters summed over the rep's simulations (keys that start
  /// with '_' are inputs of derived metrics, see finish_layers()).
  Table layer;
  /// Simulated results that err_pct compares against the packet reference.
  Table result;
  std::vector<double> iter_us;   // every completed AllReduce iteration
  std::vector<double> busbw;     // bus bandwidth of every iteration, Gbps
  std::string canon;             // canonical text of the simulated outputs
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  // failed output checks
};

bool known_workload(const std::string& name);

/// True for the workload that simulates several scenarios per repetition.
bool multi_scenario(const std::string& name);

/// Build and run one repetition. A non-null `log` makes it the traced
/// run: host-time spans for each setup call and region-mode epoch, plus
/// the hybrid host-time split.
Rep run_rep(const Params& p, SpanLog* log);

/// Build the workload's simulations and tear them down unrun.
SetupTimes setup_only(const Params& p);

/// Turn the summed counters of a rep into the per-layer metric table.
Table finish_layers(const Rep& rep);

/// Host cost of one schedule+fire through Simulator's public API, ns: a
/// bare-wheel floor with no model work behind the events.
double wheel_ns_per_event();

}  // namespace perfbench
