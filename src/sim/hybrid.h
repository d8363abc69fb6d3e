// Hybrid fidelity driver: flow-level fast-forward with packet-level zoom
// (ROADMAP item 2; math and tolerance rationale in docs/HYBRID.md).
//
// Each fabric region — one (rail, plane), the unit connections never cross
// on a rail-optimized fabric — is in one of two modes:
//
//   * kPacket: the existing per-packet engine; the driver only watches
//     trigger counters (queue occupancy, ECN marks, retransmits).
//   * kFluid: no packets exist. Every connection is a fluid flow served at
//     the max-min fair rate of FluidSolver over the real link graph, and
//     the simulator jumps straight between flow-completion events.
//
// Transitions are loss-free and deterministic in both directions:
//
//   packet -> fluid (freeze): every link absorb()s the packets it owns
//     (counted by the conservation auditor as their own terminal outcome),
//     and each transport rewinds unacked wire bytes into unsent demand —
//     the same bytes continue as fluid flow state. A receiver-side
//     completion ledger suppresses the double delivery this re-serve
//     could otherwise cause for messages whose ACKs were mid-flight.
//   fluid -> packet (thaw): flows stop, each transport's congestion window
//     is seeded from its fluid rate (rate * base RTT), and send_more()
//     repopulates real queues.
//
// Drop-to-packet triggers: any FaultInjector event touching the fabric, a
// connection posting work the fluid model cannot serve (SEND/READ, a
// zero-length WRITE, QP error), and an explicit zoom window (benches use
// this to cover measurement or --trace windows). A persistently saturated
// bottleneck is not a trigger: max-min fairness models stable congestion
// exactly. Promotion back to fluid requires 3 consecutive quiet 5 us
// trigger epochs (every region queue <= 256 KiB, no new ECN marks or
// retransmits); pure fluid fidelity promotes after one epoch, whatever the
// queues.
//
// Per-event cost: each region keeps the clients that have a flow in a list
// (registration order), and advance, retire and next-completion scans walk
// only that list. Service is deferred: each flow caches the bytes to its
// in-service message's completion (`next`), and bytes earned below that
// threshold accumulate in the driver as `pending` instead of reaching the
// transport. The driver calls fluid_serve(pending + want) only once the
// message completes (pending + want >= next) — so the per-flow work of an
// event that completes nothing is arithmetic, with no virtual call — and it
// flushes `pending` into the transport before fluid_thaw, whose receiver
// prefix sync reads the served bytes. Completion times, serve order and
// flow-id reuse are exactly those of serving every advance eagerly. While
// a region is fluid, a message's `acked` therefore lags the bytes served;
// snapshotting a frozen connection is refused (transport_snapshot.cc).
//
// Everything is deterministic: regions, links, and clients are iterated in
// construction/registration order, rates come from the deterministic
// solver, and event times are integer picoseconds derived from the same
// arithmetic on every run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/units.h"
#include "net/fabric.h"
#include "net/link.h"
#include "sim/fluid.h"
#include "sim/inline_action.h"
#include "sim/simulator.h"

namespace stellar {

enum class RegionMode : std::uint8_t { kPacket, kFluid };

/// Why a region left fluid mode.
///   kFault           a FaultInjector event touched the fabric (force_packet)
///   kIneligiblePost  a frozen connection posted work fluid cannot serve
///   kZoomWindow      an explicit request_zoom_window opened
enum class ZoomReason : std::uint8_t { kFault, kIneligiblePost, kZoomWindow };
inline constexpr std::size_t kZoomReasonCount = 3;

/// Simulation fidelity, as picked by the benches' --fidelity= flag:
///   kPacket  the per-packet reference engine: no driver is attached at all
///   kHybrid  fluid fast-forward of stable epochs, packet zoom on triggers
///   kFluid   flow-level wherever possible: no trigger is polled, so a
///            forced zoom promotes back after one epoch
enum class Fidelity { kPacket, kFluid, kHybrid };

const char* fidelity_name(Fidelity f);

/// A connection's footprint on the link graph, produced by fluid_freeze():
/// (link, fraction-of-packets) in deterministic route order — first-
/// encounter order over path ids, never pointer order.
using FluidShares = std::vector<std::pair<const NetLink*, double>>;

/// Sender side of a connection under fluid service (RdmaConnection).
class FluidClient {
 public:
  virtual ~FluidClient() = default;
  /// Local endpoint; the driver derives the region from its coordinates.
  virtual EndpointId fluid_endpoint() const = 0;
  /// True if every queued message is fluid-servable (a non-empty WRITE)
  /// and the QP is healthy. A false answer keeps the region in packet mode.
  virtual bool fluid_eligible() const = 0;
  /// True once the QP entered its terminal error state. Errored clients
  /// are skipped at freeze time rather than blocking the whole region.
  virtual bool fluid_errored() const = 0;
  /// Convert packet state to fluid state (rewind unacked bytes, cancel
  /// timers). Called once per freeze; must be valid on a fresh connection.
  virtual FluidShares fluid_freeze() = 0;
  /// Convert back: seed the congestion window from the last fluid rate
  /// (bytes/sec; 0 = no assigned rate) and resume packet transmission.
  virtual void fluid_thaw(double rate_bytes_per_sec) = 0;
  /// Serve up to `bytes` of queued demand, firing receiver-then-sender
  /// completions exactly as packet mode would. Returns bytes consumed.
  virtual std::uint64_t fluid_serve(std::uint64_t bytes) = 0;
  /// Bytes until the in-service message completes (0 = no servable
  /// demand: the flow is inactive).
  virtual std::uint64_t fluid_next_completion_bytes() const = 0;
  /// Cumulative retransmit count — a promotion quietness signal.
  virtual std::uint64_t fluid_retransmit_count() const = 0;
};

/// Receiver side (RdmaEngine): accepts a whole-message fluid delivery.
struct FluidDelivery {
  std::uint64_t conn_id = 0;
  std::uint64_t msg_id = 0;
  std::uint64_t bytes = 0;
  std::uint32_t tag = 0;
  EndpointId src = 0;
};
class FluidReceiver {
 public:
  virtual ~FluidReceiver() = default;
  virtual void fluid_deliver(const FluidDelivery& delivery) = 0;
  /// Partial-progress sync at thaw. `bytes` is the sender's cumulative
  /// served prefix of a still-incomplete message: those bytes never travel
  /// as packets, so the receiver must fold them into its reassembly state
  /// before the packet-mode tail arrives or the message never completes on
  /// the receive side.
  virtual void fluid_advance(const FluidDelivery& delivery) = 0;
};

class HybridDriver {
 public:
  /// Mode-span observation hook, fired when a region leaves a mode (and at
  /// driver destruction for the open span). Benches wire this into the
  /// tracer; the sim layer itself stays obs-free.
  using SpanHook = InlineFunction<void(std::uint32_t region, RegionMode mode,
                                       SimTime begin, SimTime end)>;

  /// `fidelity` is kHybrid or kFluid. Every region starts in fluid mode.
  HybridDriver(Simulator& sim, ClosFabric& fabric, Fidelity fidelity);
  ~HybridDriver();
  HybridDriver(const HybridDriver&) = delete;
  HybridDriver& operator=(const HybridDriver&) = delete;

  // -- Registration (called by RdmaEngine) ----------------------------------

  void register_client(FluidClient* client);
  void unregister_client(FluidClient* client);
  void register_receiver(EndpointId endpoint, FluidReceiver* receiver);
  void unregister_receiver(EndpointId endpoint);
  FluidReceiver* receiver(EndpointId endpoint) const;

  // -- Mode control ---------------------------------------------------------

  std::uint32_t region_count() const {
    return static_cast<std::uint32_t>(regions_.size());
  }
  RegionMode region_mode(std::uint32_t region) const {
    return regions_[region].mode;
  }

  /// Drop every region to packet mode now and hold promotion off for at
  /// least `hold`. The FaultInjector calls this for every fabric-touching
  /// event; safe to call redundantly.
  void force_packet(SimTime hold, ZoomReason reason);

  /// Explicit packet-fidelity window [start, end): regions zoom at `start`
  /// and may promote only after `end` (measurement / --trace windows).
  void request_zoom_window(SimTime start, SimTime end);

  // -- Client notifications (called by the transport) -----------------------

  /// New fluid-servable demand was queued on a frozen connection.
  void on_fluid_post(FluidClient* client);
  /// A frozen connection queued work fluid cannot serve — zoom its region.
  void on_ineligible_post(FluidClient* client);
  /// A frozen connection entered QP error; its flow leaves the solver.
  void on_client_error(FluidClient* client);

  void set_span_hook(SpanHook hook) { span_hook_ = std::move(hook); }

  // -- Stats ----------------------------------------------------------------

  std::uint64_t transitions() const { return transitions_; }
  std::uint64_t absorbed_packets() const { return absorbed_packets_; }
  std::uint64_t fluid_completions() const { return fluid_completions_; }
  /// Fluid -> packet transitions of `region` caused by `reason`. A zoom
  /// request that finds the region already in packet mode is not counted.
  std::uint64_t zooms(std::uint32_t region, ZoomReason reason) const {
    return regions_.at(region).zooms[static_cast<std::size_t>(reason)];
  }
  /// Simulated time spent in fluid mode, summed over regions (open spans
  /// included up to now()).
  SimTime fluid_time() const;

 private:
  struct ClientInfo {
    FluidClient* client = nullptr;
    std::uint64_t order = 0;  // registration sequence number
    std::uint32_t region = 0;
    bool in_fluid = false;
    bool dead = false;  // QP error while frozen; never re-frozen
    std::int64_t flow = -1;
    double carry = 0.0;  // fractional bytes carried between advances
    /// fluid_next_completion_bytes() as of the last real serve or post.
    std::uint64_t next = 0;
    /// Bytes earned but not yet passed to fluid_serve; below `next`
    /// whenever that is non-zero, else zero.
    std::uint64_t pending = 0;
    std::vector<FluidSolver::LinkShare> shares;  // resolved at freeze
  };

  struct Region {
    RegionMode mode = RegionMode::kPacket;
    FluidSolver solver;
    std::vector<NetLink*> links;  // deterministic fabric order
    std::unordered_map<const NetLink*, std::uint32_t> link_index;  // lookup
    std::vector<ClientInfo*> clients;  // registration order
    std::vector<ClientInfo*> flowing;  // clients with a flow, same order
    EventHandle advance_event;
    SimTime last_advance = SimTime::zero();
    bool solve_needed = false;
    bool kick_scheduled = false;
    bool pending_zoom = false;
    ZoomReason pending_zoom_reason = ZoomReason::kFault;
    std::uint32_t quiet_epochs = 0;
    SimTime span_start = SimTime::zero();
    SimTime fluid_total = SimTime::zero();
    std::uint64_t last_ecn = 0;
    std::uint64_t last_retx = 0;
    std::uint64_t zooms[kZoomReasonCount] = {};
  };

  std::uint32_t region_of(EndpointId endpoint) const;
  /// Freeze one client and resolve its link shares to solver indices.
  void freeze_client(Region& rg, ClientInfo* ci);
  /// Add `ci`'s flow to the solver and to the region's flowing list.
  void start_flow(Region& rg, ClientInfo* ci, std::uint64_t next);
  void enter_fluid(std::uint32_t region);
  void zoom_region(std::uint32_t region, ZoomReason reason);
  /// Serve elapsed time, prune finished flows, re-solve, schedule the next
  /// completion — the single advance path every event funnels through.
  void service_region(std::uint32_t region);
  void advance_to_now(Region& rg);
  void schedule_next(std::uint32_t region);
  void schedule_kick(std::uint32_t region);
  void emit_span(std::uint32_t region, Region& rg, RegionMode ended);
  void arm_tick();
  void tick();

  Simulator* sim_;
  ClosFabric* fabric_;
  Fidelity fidelity_;
  std::vector<Region> regions_;
  std::unordered_map<FluidClient*, std::unique_ptr<ClientInfo>> info_;
  std::unordered_map<EndpointId, FluidReceiver*> receivers_;
  std::uint64_t next_order_ = 0;
  std::vector<ClientInfo*> serve_order_;  // advance_to_now scratch
  SpanHook span_hook_;
  SimTime hold_until_ = SimTime::zero();
  bool tick_armed_ = false;
  bool in_advance_ = false;
  std::uint64_t transitions_ = 0;
  std::uint64_t absorbed_packets_ = 0;
  std::uint64_t fluid_completions_ = 0;
};

/// The driver for `f`: nullptr for packet fidelity, so the packet path stays
/// exactly the no-driver build. Must be called before any RdmaEngine is
/// constructed on `fabric`, and destroyed after all of them.
std::unique_ptr<HybridDriver> make_fidelity_driver(Simulator& sim,
                                                   ClosFabric& fabric,
                                                   Fidelity f);

}  // namespace stellar
