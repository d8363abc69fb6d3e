#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "collective/allreduce.h"
#include "collective/traffic.h"
#include "common/rng.h"
#include "fault/fault.h"
#include "fault/telemetry.h"
#include "sim/hybrid.h"

namespace perfbench {
namespace {

using stellar::AllReduceConfig;
using stellar::ClosFabric;
using stellar::EndpointId;
using stellar::EngineFleet;
using stellar::FabricConfig;
using stellar::FaultEvent;
using stellar::FaultInjector;
using stellar::FaultKind;
using stellar::FaultPlan;
using stellar::FaultTelemetry;
using stellar::HybridDriver;
using stellar::LinkLayer;
using stellar::MultipathAlgo;
using stellar::NetLink;
using stellar::PermutationConfig;
using stellar::PermutationTraffic;
using stellar::RdmaEngine;
using stellar::RegionMode;
using stellar::RingAllReduce;
using stellar::Rng;
using stellar::SimTime;
using stellar::Simulator;
using stellar::bench::make_fidelity_driver;

// -- Workload definitions -----------------------------------------------------

// allreduce_hybrid: the fig16b random-ranking pair — two concurrent rings
// of kArEndpoints/2 ranks whose every hop crosses segments; ring A is
// measured kArMeasured times while ring B loops, once per transport.
constexpr std::uint32_t kArEndpoints = 160;
constexpr std::uint32_t kArMeasured = 3;
constexpr std::uint64_t kArBytes = 32ull << 20;

// permutation_packet: fig09 with OBS/128 at packet fidelity.
constexpr std::uint32_t kPermHostsPerSegment = 16;
constexpr std::uint64_t kPermMessage = 1ull << 20;
constexpr SimTime kPermWarmup = SimTime::millis(1);
constexpr SimTime kPermWindow = SimTime::millis(4);

// allreduce_fault_hybrid: one simulation per listed scenario, each a dual-plane
// fabric with one 16-rank ring per plane, each ring looping kFaultIters
// times with a kComputeGap pause in between (with no traffic in flight a
// zoomed region turns quiet and can promote back to fluid before the next
// iteration). Iterations 1..kFaults of the plane-0 ring each get one fault,
// kFaultOffset plus a seeded jitter after the iteration starts, so every
// fault lands at the same phase of an iteration.
constexpr std::uint32_t kFaultHostsPerSegment = 8;
constexpr std::uint32_t kFaultAggs = 16;
constexpr std::uint32_t kFaultIters = 4;
constexpr std::uint32_t kFaults = 3;
constexpr SimTime kComputeGap = SimTime::micros(100);
constexpr SimTime kFaultOffset = SimTime::micros(1900);
constexpr std::uint32_t kFaultJitterUs = 100;

constexpr SimTime kStep = SimTime::millis(1);  // run_until granularity
constexpr SimTime kHorizon = SimTime::millis(400);

// -- Simulation ownership -----------------------------------------------------

/// One simulation. Members are destroyed in reverse order, so workload
/// objects declared in derived structs go first, then the engines, then
/// the HybridDriver, then the fabric — the order the modules require.
struct World {
  Simulator sim;
  std::unique_ptr<ClosFabric> fabric;
  std::unique_ptr<HybridDriver> driver;
  std::unique_ptr<EngineFleet> fleet;
};

template <typename F>
double timed(SpanLog* log, const char* name, int parent, F&& fn) {
  ScopedSpan span(log, name, parent);
  const double t0 = wall_now();
  fn();
  return wall_now() - t0;
}

void build_fabric(World& w, const FabricConfig& fc, Fidelity fidelity) {
  w.fabric = std::make_unique<ClosFabric>(w.sim, fc);
  w.driver = make_fidelity_driver(w.sim, *w.fabric, fidelity);
}

void build_engines(World& w, const std::vector<EndpointId>& endpoints) {
  w.fleet = std::make_unique<EngineFleet>(w.sim, *w.fabric);
  for (EndpointId ep : endpoints) w.fleet->at(ep);
}

/// Seeded rank placement on one (rail, plane): rank i sits in segment i%2,
/// so every ring hop crosses the aggregation layer (random ranking); the
/// hosts within each segment are a seeded shuffle. Returns `rings` rings of
/// `ring_size` ranks that together use `ring_size*rings/2` hosts/segment.
std::vector<std::vector<EndpointId>> random_rings(
    const ClosFabric& fabric, std::uint32_t hosts, std::uint32_t rings,
    std::uint32_t ring_size, std::uint32_t plane, Rng& rng) {
  std::vector<std::uint32_t> order[2];
  for (auto& seg : order) {
    for (std::uint32_t h = 0; h < hosts; ++h) seg.push_back(h);
    for (std::size_t i = seg.size(); i > 1; --i) {
      std::swap(seg[i - 1], seg[rng.below(i)]);
    }
  }
  std::vector<std::vector<EndpointId>> out(rings);
  std::uint32_t next[2] = {0, 0};
  for (std::uint32_t r = 0; r < rings; ++r) {
    for (std::uint32_t i = 0; i < ring_size; ++i) {
      const std::uint32_t seg = i % 2;
      out[r].push_back(fabric.endpoint(seg, order[seg][next[seg]++], 0, plane));
    }
  }
  return out;
}

/// Restarts a ring until it has completed `target` iterations (0: until
/// stop()), `gap` after the previous one (the compute phase between two
/// AllReduces), recording every iteration's duration and bus bandwidth.
class RingLoop {
 public:
  RingLoop(Simulator& sim, RingAllReduce& ring, std::uint32_t target,
           SimTime gap = SimTime::zero())
      : sim_(&sim), ring_(&ring), target_(target), gap_(gap) {}
  /// Called with the iteration index just before each iteration starts.
  void set_on_start(std::function<void(std::uint32_t)> fn) {
    on_start_ = std::move(fn);
  }
  void start() {
    waiting_ = false;
    if (on_start_) on_start_(started_);
    ++started_;
    ring_->start([this] { on_done(); });
  }
  void stop() { stopping_ = true; }
  bool finished() const { return failed_ || (!waiting_ && !ring_->running()); }
  bool reached_target() const { return done_ >= target_; }
  std::uint32_t started() const { return started_; }
  std::uint32_t done() const { return done_; }
  bool failed() const { return failed_; }
  const std::vector<std::int64_t>& iter_ps() const { return iter_ps_; }
  const std::vector<double>& busbw() const { return busbw_; }

 private:
  void on_done() {
    if (!ring_->status().is_ok()) {
      failed_ = true;
      return;
    }
    ++done_;
    iter_ps_.push_back(ring_->last_duration().ps());
    busbw_.push_back(ring_->bus_bandwidth_gbps());
    if (stopping_ || (target_ != 0 && done_ >= target_)) return;
    if (gap_ == SimTime::zero()) {
      start();
    } else {
      waiting_ = true;
      sim_->schedule_after(gap_, [this] { start(); });
    }
  }

  Simulator* sim_;
  RingAllReduce* ring_;
  std::uint32_t target_;
  SimTime gap_;
  std::uint32_t started_ = 0;
  std::uint32_t done_ = 0;
  bool stopping_ = false;
  bool waiting_ = false;
  bool failed_ = false;
  std::vector<std::int64_t> iter_ps_;
  std::vector<double> busbw_;
  std::function<void(std::uint32_t)> on_start_;
};

/// Traced runs only: host time and executed events between region mode
/// changes, taken from HybridDriver's public span hook. An interval counts as
/// fluid while every region is fluid, packet otherwise; each region's
/// epochs also become spans under the run span.
class HybridProbe {
 public:
  HybridProbe(World& w, SpanLog* log, int parent)
      : w_(&w), log_(log), parent_(parent) {
    HybridDriver& d = *w.driver;
    modes_.resize(d.region_count());
    since_.assign(d.region_count(), wall_now());
    sim_since_.assign(d.region_count(), w.sim.now().ps());
    for (std::uint32_t r = 0; r < d.region_count(); ++r) {
      modes_[r] = d.region_mode(r);
    }
    mark_ = wall_now();
    mark_events_ = w.sim.executed_events();
    d.set_span_hook([this](std::uint32_t region, RegionMode ended,
                           SimTime begin, SimTime end) {
      on_change(region, ended, begin, end);
    });
  }

  /// Close the open epochs and detach before the HybridDriver goes away.
  void finish(Table& layer) {
    account();
    w_->driver->set_span_hook({});
    const double now = wall_now();
    for (std::uint32_t r = 0; r < modes_.size(); ++r) {
      log_->add(epoch_name(r, modes_[r]), parent_, since_[r], now,
                sim_since_[r], w_->sim.now().ps());
    }
    layer["hybrid.fluid_events"] += static_cast<double>(fluid_events_);
    layer["hybrid.packet_events"] += static_cast<double>(packet_events_);
    layer["hybrid.fluid_host_s"] += fluid_s_;
    layer["hybrid.packet_host_s"] += packet_s_;
  }

 private:
  static std::string epoch_name(std::uint32_t region, RegionMode mode) {
    return std::string(mode == RegionMode::kFluid ? "fluid_epoch"
                                                  : "packet_epoch") +
           ".r" + std::to_string(region);
  }
  bool all_fluid() const {
    return std::all_of(modes_.begin(), modes_.end(),
                       [](RegionMode m) { return m == RegionMode::kFluid; });
  }
  void account() {
    const double now = wall_now();
    const std::uint64_t events = w_->sim.executed_events();
    if (all_fluid()) {
      fluid_s_ += now - mark_;
      fluid_events_ += events - mark_events_;
    } else {
      packet_s_ += now - mark_;
      packet_events_ += events - mark_events_;
    }
    mark_ = now;
    mark_events_ = events;
  }
  void on_change(std::uint32_t region, RegionMode ended, SimTime begin,
                 SimTime end) {
    account();
    log_->add(epoch_name(region, ended), parent_, since_[region], mark_,
              begin.ps(), end.ps());
    since_[region] = mark_;
    sim_since_[region] = end.ps();
    modes_[region] = ended == RegionMode::kFluid ? RegionMode::kPacket
                                                 : RegionMode::kFluid;
  }

  World* w_;
  SpanLog* log_;
  int parent_;
  std::vector<RegionMode> modes_;
  std::vector<double> since_;
  std::vector<std::int64_t> sim_since_;
  double mark_ = 0;
  std::uint64_t mark_events_ = 0;
  double fluid_s_ = 0, packet_s_ = 0;
  std::uint64_t fluid_events_ = 0, packet_events_ = 0;
};

/// Times the run phase of one simulation (wall and CPU, minor faults) and,
/// when traced, records it as a span with the hybrid probe under it.
class RunPhase {
 public:
  RunPhase(World& w, Rep& rep, SpanLog* log, int parent)
      : rep_(&rep), span_(log, "run", parent) {
    if (log != nullptr && w.driver != nullptr) {
      probe_ = std::make_unique<HybridProbe>(w, log, span_.id());
    }
    faults0_ = minor_faults_now();
    cpu0_ = cpu_now();
    wall0_ = wall_now();
  }
  ~RunPhase() {
    rep_->run_s += wall_now() - wall0_;
    rep_->run_cpu_s += cpu_now() - cpu0_;
    rep_->minor_faults += minor_faults_now() - faults0_;
    if (probe_ != nullptr) probe_->finish(rep_->layer);
  }
  RunPhase(const RunPhase&) = delete;
  RunPhase& operator=(const RunPhase&) = delete;

 private:
  Rep* rep_;
  ScopedSpan span_;
  std::unique_ptr<HybridProbe> probe_;
  std::uint64_t faults0_;
  double cpu0_, wall0_;
};

// -- Counters and checks ------------------------------------------------------

void appendf(std::string& out, const char* fmt, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  out += buf;
}

/// Receiver goodput bytes summed over every engine.
std::uint64_t fleet_goodput(const EngineFleet& fleet) {
  std::uint64_t bytes = 0;
  fleet.for_each_engine(
      [&](const RdmaEngine& e) { bytes += e.rx_goodput_bytes(); });
  return bytes;
}

/// Fold one finished simulation's public counters into the rep, append its
/// model outputs to the canonical text and run the shared output checks.
/// `goodput_before_reset` is the receiver goodput at the last
/// ClosFabric::reset_stats, left out of rnic.goodput_ratio because the host
/// link byte counters restarted there.
void collect(World& w, Rep& rep, const char* tag,
             std::uint64_t goodput_before_reset = 0) {
  Table& t = rep.layer;
  t["sim.events"] += static_cast<double>(w.sim.executed_events());

  ClosFabric& f = *w.fabric;
  std::uint64_t ecn = 0, drops = 0;
  for (const NetLink* l : f.all_links()) {
    ecn += l->ecn_marks();
    drops += l->tail_drops() + l->random_drops() + l->down_drops() +
             l->voided_packets();
  }
  double tor_mean_sum = 0, tor_max = 0;
  std::size_t tor_links = 0;
  for (const NetLink* l : f.all_tor_uplinks()) {
    tor_mean_sum += l->mean_queue_bytes();
    tor_max = std::max(tor_max, static_cast<double>(l->max_queue_bytes()));
    ++tor_links;
  }
  std::uint64_t host_bytes = 0;
  for (const NetLink* l : f.all_host_links()) host_bytes += l->bytes_sent();
  t["net.delivered_packets"] += static_cast<double>(f.delivered_packets());
  t["net.ecn_marks"] += static_cast<double>(ecn);
  t["net.drops"] += static_cast<double>(drops);
  t["_tor_up_mean_sum_bytes"] += tor_mean_sum;
  t["_tor_up_links"] += static_cast<double>(tor_links);
  t["net.tor_up_max_queue_kib"] =
      std::max(t["net.tor_up_max_queue_kib"], tor_max / 1024.0);
  t["_host_link_bytes"] += static_cast<double>(host_bytes);

  std::uint64_t rx_goodput = 0, rx_ooo = 0, sent = 0, retx = 0, rto = 0,
                probes = 0, qp_err = 0, completed = 0;
  w.fleet->for_each_engine([&](const RdmaEngine& e) {
    rx_goodput += e.rx_goodput_bytes();
    rx_ooo += e.rx_out_of_order_packets();
    for (const auto& c : e.connections()) {
      sent += c->packets_sent();
      retx += c->retransmits();
      rto += c->timeouts();
      probes += c->probes_sent();
      qp_err += c->in_error() ? 1 : 0;
      completed += c->completed_bytes();
    }
  });
  t["rnic.packets_sent"] += static_cast<double>(sent);
  t["rnic.retransmits"] += static_cast<double>(retx);
  t["rnic.timeouts"] += static_cast<double>(rto);
  t["rnic.rx_ooo_packets"] += static_cast<double>(rx_ooo);
  t["rnic.probes_sent"] += static_cast<double>(probes);
  t["rnic.qp_errors"] += static_cast<double>(qp_err);
  t["_rx_goodput_bytes"] +=
      static_cast<double>(rx_goodput - goodput_before_reset);

  std::uint64_t transitions = 0;
  if (HybridDriver* d = w.driver.get()) {
    transitions = d->transitions();
    t["hybrid.transitions"] += static_cast<double>(transitions);
    t["hybrid.absorbed_packets"] += static_cast<double>(d->absorbed_packets());
    t["hybrid.fluid_completions"] +=
        static_cast<double>(d->fluid_completions());
    t["_fluid_region_ps"] += static_cast<double>(d->fluid_time().ps());
    t["_region_ps"] += static_cast<double>(w.sim.now().ps()) *
                       static_cast<double>(d->region_count());
  }

  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "%s: end_ps=%lld delivered=%llu ecn=%llu drops=%llu "
                "goodput=%llu completed=%llu sent=%llu retx=%llu rto=%llu "
                "ooo=%llu probes=%llu qp_err=%llu transitions=%llu\n",
                tag, static_cast<long long>(w.sim.now().ps()),
                static_cast<unsigned long long>(f.delivered_packets()),
                static_cast<unsigned long long>(ecn),
                static_cast<unsigned long long>(drops),
                static_cast<unsigned long long>(rx_goodput),
                static_cast<unsigned long long>(completed),
                static_cast<unsigned long long>(sent),
                static_cast<unsigned long long>(retx),
                static_cast<unsigned long long>(rto),
                static_cast<unsigned long long>(rx_ooo),
                static_cast<unsigned long long>(probes),
                static_cast<unsigned long long>(qp_err),
                static_cast<unsigned long long>(transitions));
  rep.canon += buf;

  if (rx_goodput != completed) {
    rep.errors.push_back(std::string(tag) + ": receiver goodput " +
                         std::to_string(rx_goodput) +
                         " B != sender completed " +
                         std::to_string(completed) + " B");
  }
  if (qp_err != 0) {
    rep.errors.push_back(std::string(tag) + ": " + std::to_string(qp_err) +
                         " QPs ended in error");
  }
}

void collect_loops(const std::vector<const RingLoop*>& loops, Rep& rep,
                   const char* tag) {
  for (std::size_t i = 0; i < loops.size(); ++i) {
    const RingLoop& l = *loops[i];
    rep.attempted += l.started();
    rep.failed += l.started() - l.done();
    rep.canon += std::string(tag) + ".ring" + std::to_string(i) + ":";
    for (std::size_t k = 0; k < l.iter_ps().size(); ++k) {
      rep.iter_us.push_back(static_cast<double>(l.iter_ps()[k]) / 1e6);
      rep.busbw.push_back(l.busbw()[k]);
      rep.canon += " " + std::to_string(l.iter_ps()[k]);
    }
    rep.canon += "\n";
    if (l.failed() || l.done() != l.started() || !l.reached_target()) {
      rep.errors.push_back(std::string(tag) + ": ring " + std::to_string(i) +
                           " completed " + std::to_string(l.done()) + " of " +
                           std::to_string(l.started()) + " iterations");
    }
  }
}

/// Run in kStep slices until `done()` or the horizon.
template <typename Done>
void run_while_not(World& w, Done&& done) {
  while (!done() && w.sim.now() < kHorizon) {
    w.sim.run_until(w.sim.now() + kStep);
  }
}

// -- allreduce_hybrid ---------------------------------------------------------

struct AllReduceWorld : World {
  std::unique_ptr<RingAllReduce> ring_a, ring_b;
};

void build_allreduce(AllReduceWorld& w, const Params& p, MultipathAlgo algo,
                     SetupTimes& st, SpanLog* log, int parent) {
  const std::uint32_t hosts = kArEndpoints / 2;
  std::vector<std::vector<EndpointId>> rings;
  st.fabric += timed(log, "setup.fabric", parent, [&] {
    FabricConfig fc;
    fc.segments = 2;
    fc.hosts_per_segment = hosts;
    fc.rails = 1;
    fc.planes = 1;
    fc.aggs_per_plane = 16;
    fc.fabric_link.bandwidth = stellar::Bandwidth::gbps(200);
    build_fabric(w, fc, p.fidelity);
  });
  st.engines += timed(log, "setup.engines", parent, [&] {
    Rng rng(0xA11ED0CEull + p.scenarios.front());
    rings = random_rings(*w.fabric, hosts, 2, hosts, 0, rng);
    std::vector<EndpointId> all = rings[0];
    all.insert(all.end(), rings[1].begin(), rings[1].end());
    build_engines(w, all);
  });
  st.collective += timed(log, "setup.collective", parent, [&] {
    AllReduceConfig cfg;
    cfg.data_bytes = kArBytes;
    cfg.transport.algo = algo;
    cfg.transport.num_paths = 128;
    w.ring_a = std::make_unique<RingAllReduce>(*w.fleet, rings[0], cfg);
    w.ring_b = std::make_unique<RingAllReduce>(*w.fleet, rings[1], cfg);
  });
}

void allreduce_hybrid(const Params& p, Rep& rep, SpanLog* log, int root) {
  const std::pair<MultipathAlgo, const char*> transports[] = {
      {MultipathAlgo::kSinglePath, "single"}, {MultipathAlgo::kObs, "obs"}};
  for (const auto& [algo, name] : transports) {
    ScopedSpan span(log, name, root);
    AllReduceWorld w;
    {
      ScopedSpan setup(log, "setup", span.id());
      build_allreduce(w, p, algo, rep.setup, log, setup.id());
    }
    RingLoop a(w.sim, *w.ring_a, kArMeasured);
    RingLoop b(w.sim, *w.ring_b, 0);
    {
      RunPhase run(w, rep, log, span.id());
      b.start();
      a.start();
      run_while_not(w, [&] { return a.failed() || a.reached_target(); });
      // Let ring B finish its iteration so every posted byte is delivered.
      b.stop();
      run_while_not(w, [&] { return b.finished(); });
    }
    ScopedSpan check(log, "collect", span.id());
    // A ring runs at the pace of its slowest hop, which the placement
    // sets, so the pair's bus bandwidth averages both rings: A's measured
    // iterations and B's contended ones (its last ran partly alone).
    std::vector<double> bws = a.busbw();
    if (!b.busbw().empty()) {
      bws.insert(bws.end(), b.busbw().begin(), b.busbw().end() - 1);
    }
    double sum = 0;
    for (double bw : bws) sum += bw;
    const double busbw = bws.empty() ? 0.0 : sum / bws.size();
    rep.result[std::string("busbw_gbps.") + name] = busbw;
    collect(w, rep, name);
    collect_loops({&a, &b}, rep, name);
    appendf(rep.canon, "busbw=%.6f\n", busbw);
  }
}

// -- permutation_packet -------------------------------------------------------

struct PermutationWorld : World {
  std::unique_ptr<PermutationTraffic> traffic;
  std::uint64_t goodput_at_reset = 0;
};

void build_permutation(PermutationWorld& w, const Params& p, Fidelity fidelity,
                       SetupTimes& st, SpanLog* log, int parent) {
  std::vector<EndpointId> eps;
  st.fabric += timed(log, "setup.fabric", parent, [&] {
    FabricConfig fc;
    fc.segments = 2;
    fc.hosts_per_segment = kPermHostsPerSegment;
    fc.rails = 1;
    fc.planes = 1;
    fc.aggs_per_plane = 16;
    fc.fabric_link.bandwidth = stellar::Bandwidth::gbps(200);
    build_fabric(w, fc, fidelity);
  });
  st.engines += timed(log, "setup.engines", parent, [&] {
    for (std::uint32_t s = 0; s < 2; ++s) {
      for (std::uint32_t h = 0; h < kPermHostsPerSegment; ++h) {
        eps.push_back(w.fabric->endpoint(s, h, 0, 0));
      }
    }
    build_engines(w, eps);
  });
  st.collective += timed(log, "setup.collective", parent, [&] {
    PermutationConfig pc;
    pc.message_bytes = kPermMessage;
    pc.transport.algo = MultipathAlgo::kObs;
    pc.transport.num_paths = 128;
    pc.seed = 0x9E3D0000ull + p.scenarios.front();
    w.traffic = std::make_unique<PermutationTraffic>(*w.fleet, eps,
                                                     std::vector<EndpointId>{},
                                                     pc);
  });
}

/// Warm up, measure the window, stop and drain. Returns the per-flow
/// goodput over the window, Gbps.
double run_permutation(PermutationWorld& w) {
  PermutationTraffic& traffic = *w.traffic;
  traffic.start();
  w.sim.run_until(kPermWarmup);
  w.goodput_at_reset = fleet_goodput(*w.fleet);
  w.fabric->reset_stats();
  const std::uint64_t before = traffic.completed_bytes();
  w.sim.run_until(kPermWarmup + kPermWindow);
  const std::uint64_t delivered = traffic.completed_bytes() - before;
  traffic.stop();
  run_while_not(w, [&] {
    for (const auto* c : traffic.connections()) {
      if (!c->idle() && !c->in_error()) return false;
    }
    return true;
  });
  return static_cast<double>(delivered) * 8.0 / kPermWindow.sec() / 1e9 /
         static_cast<double>(traffic.flow_count());
}

void permutation_packet(const Params& p, Rep& rep, SpanLog* log, int root) {
  {
    PermutationWorld w;
    {
      ScopedSpan setup(log, "setup", root);
      build_permutation(w, p, Fidelity::kPacket, rep.setup, log, setup.id());
    }
    double goodput = 0;
    {
      RunPhase run(w, rep, log, root);
      goodput = run_permutation(w);
    }
    ScopedSpan check(log, "collect", root);
    rep.result["goodput_gbps"] = goodput;
    collect(w, rep, "permutation", w.goodput_at_reset);
    for (const auto* c : w.traffic->connections()) {
      rep.attempted += c->completed_messages() + (c->in_error() ? 1 : 0);
    }
    rep.failed += w.traffic->failed_flows();
    appendf(rep.canon, "goodput=%.6f\n", goodput);
  }
  // Flow-level prediction of the same permutation (pure fluid fidelity),
  // the model err_pct holds the packet result against. Not part of run_s
  // or the counters.
  ScopedSpan span(log, "fluid_prediction", root);
  PermutationWorld w;
  SetupTimes unused;
  build_permutation(w, p, Fidelity::kFluid, unused, nullptr, -1);
  const double fluid = run_permutation(w);
  rep.result["fluid_goodput_gbps"] = fluid;
  appendf(rep.canon, "fluid_goodput=%.6f\n", fluid);
}

// -- allreduce_fault_hybrid ---------------------------------------------------

struct FaultWorld : World {
  std::unique_ptr<RingAllReduce> rings[2];
  std::unique_ptr<FaultTelemetry> telemetry;
  std::unique_ptr<FaultInjector> injector;
  /// One single-fault plan per faulted iteration; event times are offsets
  /// from that iteration's start, shifted when it is armed.
  std::vector<FaultPlan> plans;
  std::uint64_t plan_events = 0;
};

/// Seeded plan: kFaults faults alternating between the two planes — a
/// ToR-uplink flap, an aggregation-switch death and restore, and a loss
/// window, in a seeded order, on seeded links and switches.
std::vector<FaultPlan> fault_plans(std::uint64_t scenario) {
  Rng rng(0xFA017000ull + scenario);
  FaultKind kinds[] = {FaultKind::kLinkFlap, FaultKind::kSwitchDown,
                       FaultKind::kDegrade};
  for (std::size_t i = 2; i > 0; --i) {
    std::swap(kinds[i], kinds[rng.below(i + 1)]);
  }
  std::vector<FaultPlan> plans(kFaults);
  for (std::uint32_t k = 0; k < kFaults; ++k) {
    FaultPlan& plan = plans[k];
    plan.seed = scenario + 1;
    FaultEvent e;
    e.at = kFaultOffset + SimTime::micros(static_cast<std::int64_t>(
                              rng.below(kFaultJitterUs)));
    const std::uint32_t plane = k % 2;
    const std::uint32_t seg = static_cast<std::uint32_t>(rng.below(2));
    const std::uint32_t agg = static_cast<std::uint32_t>(rng.below(kFaultAggs));
    e.label = "f" + std::to_string(k);
    e.link = {LinkLayer::kTorUp, seg, 0, plane, agg};
    e.kind = kinds[k];
    switch (e.kind) {
      case FaultKind::kLinkFlap:
        e.flaps = 2;
        e.duration = SimTime::micros(40);
        e.flap_period = SimTime::micros(100);
        plan.events.push_back(e);
        break;
      case FaultKind::kSwitchDown: {
        e.sw.agg = agg;
        plan.events.push_back(e);
        FaultEvent up = e;
        up.kind = FaultKind::kSwitchUp;
        up.at = e.at + SimTime::micros(300);
        plan.events.push_back(up);
        break;
      }
      default:
        e.degrade_loss = 0.02;
        e.duration = SimTime::micros(200);
        plan.events.push_back(e);
        break;
    }
  }
  return plans;
}

void build_fault(FaultWorld& w, std::uint64_t scenario, Fidelity fidelity,
                 SetupTimes& st, SpanLog* log, int parent) {
  std::vector<std::vector<EndpointId>> rings[2];
  st.fabric += timed(log, "setup.fabric", parent, [&] {
    FabricConfig fc;
    fc.segments = 2;
    fc.hosts_per_segment = kFaultHostsPerSegment;
    fc.rails = 1;
    fc.planes = 2;
    fc.aggs_per_plane = kFaultAggs;
    build_fabric(w, fc, fidelity);
  });
  st.engines += timed(log, "setup.engines", parent, [&] {
    Rng rng(0xFA11ED00ull + scenario);
    std::vector<EndpointId> all;
    for (std::uint32_t plane = 0; plane < 2; ++plane) {
      rings[plane] = random_rings(*w.fabric, kFaultHostsPerSegment, 1,
                                  2 * kFaultHostsPerSegment, plane, rng);
      all.insert(all.end(), rings[plane][0].begin(), rings[plane][0].end());
    }
    build_engines(w, all);
  });
  st.collective += timed(log, "setup.collective", parent, [&] {
    AllReduceConfig cfg;
    cfg.data_bytes = kArBytes;
    cfg.transport.algo = MultipathAlgo::kObs;
    cfg.transport.num_paths = 128;
    cfg.transport.max_retries = 32;
    for (std::uint32_t plane = 0; plane < 2; ++plane) {
      w.rings[plane] =
          std::make_unique<RingAllReduce>(*w.fleet, rings[plane][0], cfg);
    }
  });
  st.fault += timed(log, "setup.fault", parent, [&] {
    w.telemetry = std::make_unique<FaultTelemetry>();
    w.fleet->for_each_engine(
        [&](RdmaEngine& e) { w.telemetry->watch_engine(&e); });
    w.injector =
        std::make_unique<FaultInjector>(w.sim, *w.fabric, w.telemetry.get());
    w.plans = fault_plans(scenario);
    for (const FaultPlan& plan : w.plans) w.plan_events += plan.events.size();
    w.telemetry->attach(w.sim, SimTime::micros(50));
  });
}

struct FaultTotals {
  double detect_us = 0, recover_us = 0;
  std::size_t detected = 0, recovered = 0;
};

/// Regions still in packet mode, as text ("" when every region is fluid).
std::string packet_regions(const HybridDriver& d) {
  std::string out;
  for (std::uint32_t r = 0; r < d.region_count(); ++r) {
    if (d.region_mode(r) != RegionMode::kFluid) {
      out += (out.empty() ? "" : ",") + std::to_string(r);
    }
  }
  return out;
}

/// One simulation of the fault workload on `scenario`.
void fault_sim(const Params& p, std::uint64_t scenario, Rep& rep,
               FaultTotals& totals, SpanLog* log, int root) {
  const std::string tag = "fault.s" + std::to_string(scenario);
  ScopedSpan span(log, tag.c_str(), root);
  FaultWorld w;
  {
    ScopedSpan setup(log, "setup", span.id());
    build_fault(w, scenario, p.fidelity, rep.setup, log, setup.id());
  }
  // At hybrid fidelity every fault must zoom and thaw back: each region is
  // fluid again when the next fault is armed and at the end, with at least
  // one zoom and one thaw (two transitions) per fault in between.
  HybridDriver* d = w.driver.get();
  std::uint64_t armed_transitions = 0;
  auto check_thawed = [&](const std::string& when) {
    if (d == nullptr) return;
    const std::string packet = packet_regions(*d);
    if (!packet.empty()) {
      rep.errors.push_back(tag + ": region(s) " + packet +
                           " still in packet mode " + when);
    }
    if (d->transitions() < armed_transitions + 2) {
      rep.errors.push_back(tag + ": no zoom and thaw " + when);
    }
  };
  RingLoop a(w.sim, *w.rings[0], kFaultIters, kComputeGap);
  RingLoop b(w.sim, *w.rings[1], kFaultIters, kComputeGap);
  a.set_on_start([&](std::uint32_t iteration) {
    if (iteration == 0 || iteration > w.plans.size()) return;
    if (iteration > 1) {
      check_thawed("before fault " + std::to_string(iteration));
    }
    if (d != nullptr) armed_transitions = d->transitions();
    FaultPlan plan = w.plans[iteration - 1];
    for (FaultEvent& e : plan.events) e.at += w.sim.now();
    STELLAR_CHECK_OK(w.injector->arm(plan));
  });
  {
    RunPhase run(w, rep, log, span.id());
    a.start();
    b.start();
    run_while_not(w, [&] { return a.finished() && b.finished(); });
  }
  ScopedSpan check(log, "collect", span.id());
  check_thawed("at the end");
  collect(w, rep, tag.c_str());
  collect_loops({&a, &b}, rep, tag.c_str());

  const std::uint64_t executed = w.injector->events_executed();
  rep.layer["fault.events"] += static_cast<double>(executed);
  for (const auto& f : w.telemetry->analyze()) {
    if (f.detected) {
      totals.detect_us += f.detect_latency.us();
      ++totals.detected;
    }
    if (f.recovered) {
      totals.recover_us += f.recover_latency.us();
      ++totals.recovered;
    }
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "%s %s %s: at_ps=%lld detect_ps=%lld recover_ps=%lld "
                  "dip=%.6f\n",
                  tag.c_str(), f.label.c_str(), f.kind.c_str(),
                  static_cast<long long>(f.injected_at.ps()),
                  static_cast<long long>(f.detect_latency.ps()),
                  static_cast<long long>(f.recover_latency.ps()),
                  f.goodput_dip);
    rep.canon += buf;
  }
  if (executed != w.plan_events) {
    rep.errors.push_back(tag + ": executed " + std::to_string(executed) +
                         " of " + std::to_string(w.plan_events) +
                         " plan events");
  }
}

void allreduce_fault_hybrid(const Params& p, Rep& rep, SpanLog* log,
                            int root) {
  FaultTotals totals;
  for (std::uint64_t scenario : p.scenarios) {
    fault_sim(p, scenario, rep, totals, log, root);
  }
  double sum = 0;
  for (double us : rep.iter_us) sum += us;
  const double mean = rep.iter_us.empty() ? 0.0 : sum / rep.iter_us.size();
  rep.result["iter_mean_us"] = mean;
  appendf(rep.canon, "iter_mean_us=%.6f\n", mean);
  rep.layer["fault.detect_us"] =
      totals.detected > 0 ? totals.detect_us / totals.detected : 0.0;
  rep.layer["fault.recover_us"] =
      totals.recovered > 0 ? totals.recover_us / totals.recovered : 0.0;
}

}  // namespace

bool known_workload(const std::string& name) {
  return name == "allreduce_hybrid" || name == "permutation_packet" ||
         multi_scenario(name);
}

bool multi_scenario(const std::string& name) {
  return name == "allreduce_fault_hybrid";
}

Rep run_rep(const Params& p, SpanLog* log) {
  Rep rep;
  ScopedSpan root(log, p.workload.c_str(), -1);
  if (p.workload == "allreduce_hybrid") {
    allreduce_hybrid(p, rep, log, root.id());
  } else if (p.workload == "permutation_packet") {
    permutation_packet(p, rep, log, root.id());
  } else {
    allreduce_fault_hybrid(p, rep, log, root.id());
  }
  return rep;
}

SetupTimes setup_only(const Params& p) {
  SetupTimes st;
  if (p.workload == "allreduce_hybrid") {
    for (MultipathAlgo algo :
         {MultipathAlgo::kSinglePath, MultipathAlgo::kObs}) {
      AllReduceWorld w;
      build_allreduce(w, p, algo, st, nullptr, -1);
    }
  } else if (p.workload == "permutation_packet") {
    PermutationWorld w;
    build_permutation(w, p, Fidelity::kPacket, st, nullptr, -1);
  } else {
    for (std::uint64_t scenario : p.scenarios) {
      FaultWorld w;
      build_fault(w, scenario, p.fidelity, st, nullptr, -1);
    }
  }
  return st;
}

Table finish_layers(const Rep& rep) {
  Table t;
  for (const auto& [k, v] : rep.layer) {
    if (k[0] != '_') t[k] = v;
  }
  auto get = [&](const char* k) {
    auto it = rep.layer.find(k);
    return it == rep.layer.end() ? 0.0 : it->second;
  };
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  // Metrics that do not apply to a workload read 0.
  for (const char* k :
       {"hybrid.fluid_events", "hybrid.packet_events", "hybrid.fluid_host_s",
        "hybrid.packet_host_s", "hybrid.transitions", "hybrid.absorbed_packets",
        "hybrid.fluid_completions", "fault.events", "fault.detect_us",
        "fault.recover_us"}) {
    t[k] = get(k);
  }
  t["sim.ns_per_event"] = ratio(rep.run_s * 1e9, get("sim.events"));
  t["hybrid.fluid_us_per_event"] =
      ratio(get("hybrid.fluid_host_s") * 1e6, get("hybrid.fluid_events"));
  t["hybrid.fluid_share"] = ratio(get("_fluid_region_ps"), get("_region_ps"));
  t["net.tor_up_mean_queue_kib"] =
      ratio(get("_tor_up_mean_sum_bytes"), get("_tor_up_links")) / 1024.0;
  t["rnic.retx_ratio"] =
      ratio(get("rnic.retransmits"), get("rnic.packets_sent"));
  t["rnic.goodput_ratio"] =
      ratio(get("_rx_goodput_bytes"), get("_host_link_bytes"));

  std::vector<double> iters = rep.iter_us;
  double bw = 0;
  for (double b : rep.busbw) bw += b;
  t["collective.iterations"] = static_cast<double>(iters.size());
  t["collective.busbw_gbps"] = rep.busbw.empty() ? 0.0 : bw / rep.busbw.size();
  t["collective.iter_p50_us"] = median(iters);
  t["collective.iter_max_us"] =
      iters.empty() ? 0.0 : *std::max_element(iters.begin(), iters.end());

  t["setup.fabric_s"] = rep.setup.fabric;
  t["setup.engines_s"] = rep.setup.engines;
  t["setup.collective_s"] = rep.setup.collective;
  t["setup.fault_s"] = rep.setup.fault;
  t["host.cpu_s"] = rep.run_cpu_s;
  t["host.minor_faults"] = static_cast<double>(rep.minor_faults);
  return t;
}

double wheel_ns_per_event() {
  // kLive self-rescheduling chains with pseudo-random delays keep a pending
  // set of fabric-like size and spread while kEvents events fire.
  constexpr int kLive = 4096;
  constexpr std::uint64_t kEvents = 2'000'000;
  struct Chain {
    Simulator* sim;
    Rng* rng;
    std::uint64_t* fired;
    void fire() {
      if (++*fired >= kEvents) return;
      const auto delay =
          1000 + static_cast<std::int64_t>(rng->below(2'000'000));
      sim->schedule_after(SimTime::picos(delay), [this] { fire(); });
    }
  };
  Simulator sim;
  Rng rng(1);
  std::uint64_t fired = 0;
  std::vector<Chain> chains(kLive, Chain{&sim, &rng, &fired});
  for (Chain& c : chains) {
    const auto delay = static_cast<std::int64_t>(rng.below(2'000'000));
    sim.schedule_after(SimTime::picos(delay), [&c] { c.fire(); });
  }
  const double t0 = wall_now();
  sim.run();
  return (wall_now() - t0) * 1e9 / static_cast<double>(sim.executed_events());
}

}  // namespace perfbench
