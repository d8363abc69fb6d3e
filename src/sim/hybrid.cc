#include "sim/hybrid.h"

#include <algorithm>
#include <cmath>

namespace stellar {

namespace {

/// Trigger-poll period while any region is in packet mode.
constexpr SimTime kEpoch = SimTime::micros(5);
/// Hybrid promotion requires every region link's queue at or below this...
constexpr std::uint64_t kZoomQueueBytes = 256u << 10;
/// ...for this many consecutive quiet epochs.
constexpr std::uint32_t kPromoteQuietEpochs = 3;

}  // namespace

const char* fidelity_name(Fidelity f) {
  switch (f) {
    case Fidelity::kPacket: return "packet";
    case Fidelity::kFluid: return "fluid";
    case Fidelity::kHybrid: return "hybrid";
  }
  return "?";
}

std::unique_ptr<HybridDriver> make_fidelity_driver(Simulator& sim,
                                                   ClosFabric& fabric,
                                                   Fidelity f) {
  if (f == Fidelity::kPacket) return nullptr;
  return std::make_unique<HybridDriver>(sim, fabric, f);
}

HybridDriver::HybridDriver(Simulator& sim, ClosFabric& fabric,
                           Fidelity fidelity)
    : sim_(&sim), fabric_(&fabric), fidelity_(fidelity) {
  STELLAR_CHECK(fidelity != Fidelity::kPacket,
                "packet fidelity runs without a hybrid driver");
  STELLAR_CHECK(fabric.hybrid_driver() == nullptr,
                "fabric already has a hybrid driver attached");
  fabric.set_hybrid_driver(this);
  const FabricConfig& fc = fabric.config();
  regions_.resize(static_cast<std::size_t>(fc.rails) * fc.planes);
  for (std::uint32_t r = 0; r < fc.rails; ++r) {
    for (std::uint32_t p = 0; p < fc.planes; ++p) {
      Region& rg = regions_[r * fc.planes + p];
      // Deterministic link order: host/ToR edge links per (segment, host),
      // then the aggregation layer per (segment, agg).
      for (std::uint32_t s = 0; s < fc.segments; ++s) {
        for (std::uint32_t h = 0; h < fc.hosts_per_segment; ++h) {
          rg.links.push_back(&fabric.host_uplink(s, h, r, p));
          rg.links.push_back(&fabric.tor_downlink(s, h, r, p));
        }
      }
      for (std::uint32_t s = 0; s < fc.segments; ++s) {
        for (std::uint32_t a = 0; a < fc.aggs_per_plane; ++a) {
          rg.links.push_back(&fabric.tor_uplink(s, r, p, a));
          rg.links.push_back(&fabric.agg_downlink(a, s, r, p));
        }
      }
      for (NetLink* link : rg.links) {
        rg.link_index.emplace(
            link, rg.solver.add_link(
                      static_cast<double>(link->config().bandwidth.bps()) /
                      8.0));
      }
      rg.span_start = sim.now();
      rg.last_advance = sim.now();
      rg.mode = RegionMode::kFluid;
    }
  }
}

HybridDriver::~HybridDriver() {
  for (std::uint32_t r = 0; r < regions_.size(); ++r) {
    Region& rg = regions_[r];
    if (rg.advance_event.valid()) {
      sim_->cancel(rg.advance_event);
      rg.advance_event = EventHandle{};
    }
    emit_span(r, rg, rg.mode);
  }
  fabric_->set_hybrid_driver(nullptr);
}

std::uint32_t HybridDriver::region_of(EndpointId endpoint) const {
  const ClosFabric::EndpointCoords c = fabric_->coords(endpoint);
  return c.rail * fabric_->config().planes + c.plane;
}

void HybridDriver::emit_span(std::uint32_t region, Region& rg,
                             RegionMode ended) {
  const SimTime now = sim_->now();
  if (now > rg.span_start) {
    if (ended == RegionMode::kFluid) rg.fluid_total += now - rg.span_start;
    if (span_hook_) span_hook_(region, ended, rg.span_start, now);
  }
  rg.span_start = now;
}

SimTime HybridDriver::fluid_time() const {
  SimTime total = SimTime::zero();
  for (const Region& rg : regions_) {
    total = total + rg.fluid_total;
    if (rg.mode == RegionMode::kFluid && sim_->now() > rg.span_start) {
      total = total + (sim_->now() - rg.span_start);
    }
  }
  return total;
}

// ---------------------------------------------------------------------------
// Registration
// ---------------------------------------------------------------------------

void HybridDriver::register_client(FluidClient* client) {
  auto info = std::make_unique<ClientInfo>();
  ClientInfo* ci = info.get();
  ci->client = client;
  ci->order = next_order_++;
  ci->region = region_of(client->fluid_endpoint());
  Region& rg = regions_[ci->region];
  rg.clients.push_back(ci);
  info_.emplace(client, std::move(info));
  if (rg.mode == RegionMode::kFluid) {
    // Born in fluid: a connection registers from its constructor, before
    // any post, so its freeze only resolves the link shares its spray
    // would use; its first WRITE starts the flow (on_fluid_post).
    freeze_client(rg, ci);
  } else {
    arm_tick();
  }
}

void HybridDriver::unregister_client(FluidClient* client) {
  auto it = info_.find(client);
  if (it == info_.end()) return;
  ClientInfo* ci = it->second.get();
  Region& rg = regions_[ci->region];
  if (ci->flow >= 0) {
    rg.solver.remove_flow(static_cast<std::uint32_t>(ci->flow));
    rg.solve_needed = true;
    rg.flowing.erase(std::find(rg.flowing.begin(), rg.flowing.end(), ci));
  }
  // A completion callback may tear a connection down mid-advance.
  if (in_advance_) {
    std::replace(serve_order_.begin(), serve_order_.end(), ci,
                 static_cast<ClientInfo*>(nullptr));
  }
  rg.clients.erase(std::find(rg.clients.begin(), rg.clients.end(), ci));
  info_.erase(it);
}

void HybridDriver::register_receiver(EndpointId endpoint,
                                     FluidReceiver* receiver) {
  receivers_[endpoint] = receiver;
}

void HybridDriver::unregister_receiver(EndpointId endpoint) {
  receivers_.erase(endpoint);
}

FluidReceiver* HybridDriver::receiver(EndpointId endpoint) const {
  auto it = receivers_.find(endpoint);
  return it == receivers_.end() ? nullptr : it->second;
}

// ---------------------------------------------------------------------------
// Fluid service
// ---------------------------------------------------------------------------

void HybridDriver::advance_to_now(Region& rg) {
  const SimTime now = sim_->now();
  if (now <= rg.last_advance) return;
  const double dt = (now - rg.last_advance).sec();
  rg.last_advance = now;
  in_advance_ = true;
  // Completion callbacks may start flows mid-loop (on_fluid_post), which
  // edits rg.flowing; a flow started now has no rate before the next solve
  // and would earn nothing this pass, so walking a copy loses nothing.
  serve_order_.assign(rg.flowing.begin(), rg.flowing.end());
  for (ClientInfo* ci : serve_order_) {
    if (ci == nullptr || !ci->in_fluid || ci->dead || ci->flow < 0) continue;
    const double rate = rg.solver.rate(static_cast<std::uint32_t>(ci->flow));
    if (rate <= 0.0) continue;
    // Integrate rate over the elapsed interval with a fractional-byte
    // carry, so bytes are conserved exactly across rate-change events.
    const double earned = rate * dt + ci->carry;
    const auto want = static_cast<std::uint64_t>(earned);
    if (want == 0) {
      ci->carry = earned;
      continue;
    }
    // Short of the in-service message's end, a serve would only move its
    // byte count: keep the bytes here until they complete it.
    const std::uint64_t owed = ci->pending + want;
    if (owed < ci->next) {
      ci->pending = owed;
      ci->carry = earned - static_cast<double>(want);
      continue;
    }
    const std::uint64_t served = ci->client->fluid_serve(owed);
    ci->pending = 0;
    ci->next = ci->client->fluid_next_completion_bytes();
    ci->carry = served == owed ? earned - static_cast<double>(want) : 0.0;
  }
  in_advance_ = false;
}

void HybridDriver::service_region(std::uint32_t region) {
  Region& rg = regions_[region];
  if (rg.mode != RegionMode::kFluid) return;
  advance_to_now(rg);
  if (rg.pending_zoom) {
    rg.pending_zoom = false;
    zoom_region(region, rg.pending_zoom_reason);
    return;
  }
  // Retire drained (or errored) flows, in registration order: the solver
  // recycles freed ids LIFO, so this order decides later flow ids.
  std::size_t keep = 0;
  for (ClientInfo* ci : rg.flowing) {
    if (ci->dead || ci->next == 0) {
      rg.solver.remove_flow(static_cast<std::uint32_t>(ci->flow));
      ci->flow = -1;
      ci->carry = 0.0;
      if (!ci->dead) ++fluid_completions_;
      rg.solve_needed = true;
      continue;
    }
    rg.flowing[keep++] = ci;
  }
  rg.flowing.resize(keep);
  if (rg.solve_needed) {
    rg.solver.solve();
    rg.solve_needed = false;
  }
  schedule_next(region);
}

void HybridDriver::schedule_next(std::uint32_t region) {
  Region& rg = regions_[region];
  if (rg.advance_event.valid()) {
    sim_->cancel(rg.advance_event);
    rg.advance_event = EventHandle{};
  }
  const SimTime now = sim_->now();
  SimTime best = SimTime::max();
  bool found = false;
  for (const ClientInfo* ci : rg.flowing) {
    const double rate = rg.solver.rate(static_cast<std::uint32_t>(ci->flow));
    if (rate <= 0.0) continue;
    const std::uint64_t upcoming = ci->next - ci->pending;
    if (upcoming == 0) continue;
    double need = static_cast<double>(upcoming) - ci->carry;
    if (need < 0.0) need = 0.0;
    auto dt_ps = static_cast<std::uint64_t>(std::ceil(need * 1e12 / rate));
    if (dt_ps == 0) dt_ps = 1;
    const SimTime at = now + SimTime::picos(dt_ps);
    if (at < best) {
      best = at;
      found = true;
    }
  }
  if (!found) return;
  rg.advance_event = sim_->schedule_at(best, [this, region] {
    regions_[region].advance_event = EventHandle{};
    service_region(region);
  });
}

void HybridDriver::schedule_kick(std::uint32_t region) {
  Region& rg = regions_[region];
  if (rg.kick_scheduled) return;
  rg.kick_scheduled = true;
  sim_->schedule_at(sim_->now(), [this, region] {
    regions_[region].kick_scheduled = false;
    service_region(region);
  });
}

// ---------------------------------------------------------------------------
// Mode transitions
// ---------------------------------------------------------------------------

void HybridDriver::freeze_client(Region& rg, ClientInfo* ci) {
  ci->shares.clear();
  for (const auto& [link, weight] : ci->client->fluid_freeze()) {
    auto it = rg.link_index.find(link);
    STELLAR_CHECK(it != rg.link_index.end(),
                  "fluid flow references a link outside its region");
    ci->shares.push_back(FluidSolver::LinkShare{it->second, weight});
  }
  ci->in_fluid = true;
  ci->carry = 0.0;
}

void HybridDriver::start_flow(Region& rg, ClientInfo* ci, std::uint64_t next) {
  ci->flow = rg.solver.add_flow(ci->shares);
  ci->carry = 0.0;
  ci->next = next;
  ci->pending = 0;
  rg.flowing.insert(
      std::upper_bound(rg.flowing.begin(), rg.flowing.end(), ci,
                       [](const ClientInfo* a, const ClientInfo* b) {
                         return a->order < b->order;
                       }),
      ci);
}

void HybridDriver::enter_fluid(std::uint32_t region) {
  Region& rg = regions_[region];
  if (rg.mode == RegionMode::kFluid) return;
  const SimTime now = sim_->now();
  if (now < hold_until_) return;
  for (ClientInfo* ci : rg.clients) {
    if (ci->dead || ci->client->fluid_errored()) continue;
    if (!ci->client->fluid_eligible()) return;  // stay packet this epoch
  }
  // A down link breaks the fluid model's capacity assumptions (flows
  // across it would stall at rate zero and never complete): packet mode
  // owns outages — its retransmit/blacklist machinery routes around them.
  for (const NetLink* link : rg.links) {
    if (!link->is_up()) return;
  }
  // Refresh capacities: degrade faults may have changed link bandwidth
  // since the region was last fluid.
  for (std::uint32_t l = 0; l < rg.links.size(); ++l) {
    rg.solver.set_capacity(
        l, static_cast<double>(rg.links[l]->config().bandwidth.bps()) / 8.0);
  }
  // Absorb every packet the region's links still own into fluid state.
  for (NetLink* link : rg.links) absorbed_packets_ += link->absorb();
  for (ClientInfo* ci : rg.clients) {
    if (ci->dead || ci->client->fluid_errored()) {
      ci->dead = true;
      continue;
    }
    freeze_client(rg, ci);
    const std::uint64_t next = ci->client->fluid_next_completion_bytes();
    if (next > 0) start_flow(rg, ci, next);
  }
  emit_span(region, rg, RegionMode::kPacket);
  rg.mode = RegionMode::kFluid;
  rg.last_advance = now;
  ++transitions_;
  rg.solver.solve();
  rg.solve_needed = false;
  schedule_next(region);
}

void HybridDriver::zoom_region(std::uint32_t region, ZoomReason reason) {
  Region& rg = regions_[region];
  if (rg.mode != RegionMode::kFluid) return;
  if (in_advance_) {
    // Mid-serve (a completion callback triggered the zoom): finish the
    // serve loop first, then zoom at the same timestamp via the kick.
    rg.pending_zoom = true;
    rg.pending_zoom_reason = reason;
    schedule_kick(region);
    return;
  }
  advance_to_now(rg);
  if (rg.advance_event.valid()) {
    sim_->cancel(rg.advance_event);
    rg.advance_event = EventHandle{};
  }
  rg.pending_zoom = false;
  emit_span(region, rg, RegionMode::kFluid);
  rg.mode = RegionMode::kPacket;
  ++transitions_;
  ++rg.zooms[static_cast<std::size_t>(reason)];
  for (ClientInfo* ci : rg.clients) {
    double rate = 0.0;
    if (ci->flow >= 0) {
      rate = rg.solver.rate(static_cast<std::uint32_t>(ci->flow));
      rg.solver.remove_flow(static_cast<std::uint32_t>(ci->flow));
      ci->flow = -1;
    }
    ci->carry = 0.0;
    if (ci->in_fluid) {
      ci->in_fluid = false;
      // Hand the deferred bytes to the transport before thaw syncs its
      // served prefix to the receiver. They end short of the in-service
      // message, so no completion fires.
      if (ci->pending > 0) ci->client->fluid_serve(ci->pending);
      // Thaw seeds the congestion window from the fluid rate and calls
      // send_more(), repopulating real link queues.
      ci->client->fluid_thaw(rate);
    }
    ci->pending = 0;
  }
  rg.flowing.clear();
  rg.solve_needed = false;
  rg.quiet_epochs = 0;
  // Promotion baselines: only *new* ECN marks / retransmits after the zoom
  // count against quietness.
  std::uint64_t ecn = 0;
  for (const NetLink* link : rg.links) ecn += link->ecn_marks();
  std::uint64_t retx = 0;
  for (ClientInfo* ci : rg.clients) {
    if (!ci->dead) retx += ci->client->fluid_retransmit_count();
  }
  rg.last_ecn = ecn;
  rg.last_retx = retx;
  arm_tick();
}

void HybridDriver::force_packet(SimTime hold, ZoomReason reason) {
  const SimTime until = sim_->now() + hold;
  if (until > hold_until_) hold_until_ = until;
  for (std::uint32_t r = 0; r < regions_.size(); ++r) zoom_region(r, reason);
  arm_tick();
}

void HybridDriver::request_zoom_window(SimTime start, SimTime end) {
  if (start <= sim_->now()) {
    if (end > hold_until_) hold_until_ = end;
    force_packet(SimTime::zero(), ZoomReason::kZoomWindow);
    return;
  }
  sim_->schedule_at(start, [this, end] {
    if (end > hold_until_) hold_until_ = end;
    force_packet(SimTime::zero(), ZoomReason::kZoomWindow);
  });
}

// ---------------------------------------------------------------------------
// Client notifications
// ---------------------------------------------------------------------------

void HybridDriver::on_fluid_post(FluidClient* client) {
  auto it = info_.find(client);
  if (it == info_.end()) return;
  ClientInfo* ci = it->second.get();
  if (!ci->in_fluid || ci->dead) return;
  Region& rg = regions_[ci->region];
  const std::uint64_t next = ci->client->fluid_next_completion_bytes();
  if (ci->flow >= 0) {
    // A post behind an already-active flow queues after the in-service
    // message: rates and the next completion event are unchanged. But a
    // completion callback can post to a flow whose queue drained earlier
    // in the same advance; the refreshed `next` keeps it from retiring.
    ci->next = next;
    return;
  }
  if (next > 0) {
    start_flow(rg, ci, next);
    rg.solve_needed = true;
    if (!in_advance_) schedule_kick(ci->region);
  }
}

void HybridDriver::on_ineligible_post(FluidClient* client) {
  auto it = info_.find(client);
  if (it == info_.end()) return;
  ClientInfo* ci = it->second.get();
  if (!ci->in_fluid) return;
  zoom_region(ci->region, ZoomReason::kIneligiblePost);
}

void HybridDriver::on_client_error(FluidClient* client) {
  auto it = info_.find(client);
  if (it == info_.end()) return;
  ClientInfo* ci = it->second.get();
  ci->dead = true;
  ci->next = 0;
  ci->pending = 0;
  if (!ci->in_fluid) return;
  ci->in_fluid = false;
  Region& rg = regions_[ci->region];
  if (ci->flow >= 0) {
    rg.solve_needed = true;
    // The flow itself is retired by the next service_region pass — it may
    // currently be mid-iteration in advance_to_now().
    if (!in_advance_) schedule_kick(ci->region);
  }
}

// ---------------------------------------------------------------------------
// Promotion (packet -> fluid) trigger polling
// ---------------------------------------------------------------------------

void HybridDriver::arm_tick() {
  if (tick_armed_) return;
  bool needed = false;
  for (const Region& rg : regions_) {
    if (rg.mode != RegionMode::kPacket) continue;
    for (const ClientInfo* ci : rg.clients) {
      if (!ci->dead) {
        needed = true;
        break;
      }
    }
    if (needed) break;
  }
  if (!needed) return;
  // Never keep an otherwise-drained simulator alive just to poll: when
  // traffic stops, the tick stops with it.
  if (sim_->pending_events() == 0) return;
  tick_armed_ = true;
  sim_->schedule_after(kEpoch, [this] { tick(); });
}

void HybridDriver::tick() {
  tick_armed_ = false;
  const SimTime now = sim_->now();
  // Pure fluid polls no trigger: any epoch past the hold is quiet.
  const bool poll = fidelity_ == Fidelity::kHybrid;
  for (std::uint32_t r = 0; r < regions_.size(); ++r) {
    Region& rg = regions_[r];
    if (rg.mode != RegionMode::kPacket) continue;
    bool has_live = false;
    for (const ClientInfo* ci : rg.clients) {
      if (!ci->dead) {
        has_live = true;
        break;
      }
    }
    if (!has_live) continue;
    std::uint64_t ecn = 0;
    for (const NetLink* link : rg.links) ecn += link->ecn_marks();
    std::uint64_t retx = 0;
    for (const ClientInfo* ci : rg.clients) {
      if (!ci->dead) retx += ci->client->fluid_retransmit_count();
    }
    bool quiet = true;
    if (poll) {
      for (const NetLink* link : rg.links) {
        if (link->queue_bytes() > kZoomQueueBytes) {
          quiet = false;
          break;
        }
      }
      if (ecn != rg.last_ecn || retx != rg.last_retx) quiet = false;
    }
    rg.last_ecn = ecn;
    rg.last_retx = retx;
    if (now < hold_until_) quiet = false;
    if (quiet) {
      ++rg.quiet_epochs;
    } else {
      rg.quiet_epochs = 0;
    }
    if (rg.quiet_epochs >= (poll ? kPromoteQuietEpochs : 1)) enter_fluid(r);
  }
  arm_tick();
}

}  // namespace stellar
