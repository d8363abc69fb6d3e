#include "sim/fluid.h"

#include <algorithm>
#include <limits>

namespace stellar {

namespace {

/// Insert `x` into the sorted vector `v` (no-op if present).
void insert_sorted(std::vector<std::uint32_t>& v, std::uint32_t x) {
  auto it = std::lower_bound(v.begin(), v.end(), x);
  if (it == v.end() || *it != x) v.insert(it, x);
}

void erase_sorted(std::vector<std::uint32_t>& v, std::uint32_t x) {
  auto it = std::lower_bound(v.begin(), v.end(), x);
  if (it != v.end() && *it == x) v.erase(it);
}

}  // namespace

std::uint32_t FluidSolver::add_link(double capacity_bytes_per_sec) {
  links_.push_back(Link{capacity_bytes_per_sec, {}, 0.0, false});
  residual_.push_back(0.0);
  unfrozen_weight_.push_back(0.0);
  unfrozen_count_.push_back(0);
  headroom_.push_back(0.0);
  touched_.push_back(0);
  return static_cast<std::uint32_t>(links_.size() - 1);
}

std::uint32_t FluidSolver::add_flow(const std::vector<LinkShare>& shares) {
  STELLAR_CHECK(!shares.empty(), "fluid flow must cross at least one link");
  for (const LinkShare& s : shares) {
    STELLAR_CHECK(s.link < links_.size(), "fluid flow references unknown link");
    STELLAR_CHECK(s.weight > 0.0, "fluid link share weight must be positive");
  }
  ++active_count_;
  std::uint32_t id;
  if (!free_ids_.empty()) {
    id = free_ids_.back();
    free_ids_.pop_back();
  } else {
    id = static_cast<std::uint32_t>(flows_.size());
    flows_.emplace_back();
    frozen_.push_back(0);
  }
  // A flow crossing one link twice gets two entries, the second after the
  // first: upper_bound keeps share order within one flow id.
  for (const LinkShare& s : shares) {
    Link& l = links_[s.link];
    if (l.crossing.empty()) insert_sorted(busy_links_, s.link);
    auto pos = std::upper_bound(
        l.crossing.begin(), l.crossing.end(), id,
        [](std::uint32_t f, const Crossing& c) { return f < c.flow; });
    l.crossing.insert(pos, Crossing{id, s.weight});
    if (!l.dirty) {
      l.dirty = true;
      dirty_links_.push_back(s.link);
    }
  }
  Flow& f = flows_[id];
  f.shares.assign(shares.begin(), shares.end());  // reuses a recycled slot
  f.rate = 0.0;
  f.active = true;
  return id;
}

void FluidSolver::remove_flow(std::uint32_t flow) {
  Flow& f = flows_.at(flow);
  STELLAR_CHECK(f.active, "removing an inactive fluid flow");
  for (const LinkShare& s : f.shares) {
    Link& l = links_[s.link];
    auto [lo, hi] = std::equal_range(
        l.crossing.begin(), l.crossing.end(), Crossing{flow, 0.0},
        [](const Crossing& a, const Crossing& b) { return a.flow < b.flow; });
    l.crossing.erase(lo, hi);  // a repeated link's second pass erases none
    if (l.crossing.empty()) erase_sorted(busy_links_, s.link);
    if (!l.dirty) {
      l.dirty = true;
      dirty_links_.push_back(s.link);
    }
  }
  f.active = false;
  f.rate = 0.0;
  f.shares.clear();  // keeps capacity for the slot's next flow
  --active_count_;
  free_ids_.push_back(flow);
}

double FluidSolver::link_load(std::uint32_t link) const {
  double load = 0.0;
  for (const Crossing& c : links_.at(link).crossing) {
    load += c.weight * flows_[c.flow].rate;
  }
  return load;
}

void FluidSolver::solve() {
  // Re-sum the edited crossing lists. Summing in list (flow id) order
  // reproduces exactly the float a from-scratch pass over the flow table
  // would accumulate.
  for (const std::uint32_t l : dirty_links_) {
    Link& link = links_[l];
    double sum = 0.0;
    for (const Crossing& c : link.crossing) sum += c.weight;
    link.weight_sum = sum;
    link.dirty = false;
  }
  dirty_links_.clear();
  if (active_count_ == 0) return;

  // Per-link residual capacity, total unfrozen weight and headroom (the
  // common rate at which the link saturates), for the links that carry any
  // flow. Compacted as links drain so later rounds scan progressively fewer
  // links; iteration is strictly by index, so every derived rate is
  // identical across runs. Every busy link has positive weight, so this
  // pass is also the first round's scan.
  double rmin = std::numeric_limits<double>::infinity();
  active_links_.assign(busy_links_.begin(), busy_links_.end());
  for (const std::uint32_t l : active_links_) {
    residual_[l] = links_[l].capacity;
    unfrozen_weight_[l] = links_[l].weight_sum;
    unfrozen_count_[l] = static_cast<std::uint32_t>(links_[l].crossing.size());
    headroom_[l] = headroom(l);
    if (headroom_[l] < rmin) rmin = headroom_[l];
  }

  // Bottleneck matching uses a relative tolerance: links that are equal
  // bottlenecks in exact arithmetic can differ in the last few ulps once
  // residuals are updated in different orders, and exact comparison would
  // then freeze those symmetric groups one link per round instead of all
  // at once. The tolerance is deterministic (same arithmetic every run)
  // and the rate perturbation it admits is ~1e-12 relative — far inside
  // the fluid approximation itself.
  constexpr double kBottleneckTol = 1e-12;

  // Progressive filling. Each round picks the link(s) with the smallest
  // attainable common rate, freezes every flow crossing them, and charges
  // the frozen bandwidth against the residual network.
  const std::uint64_t solve = ++solve_stamp_;
  std::size_t remaining = active_count_;
  bool first_round = true;
  while (remaining > 0) {
    const std::uint64_t round = ++round_stamp_;
    if (!first_round) {
      rmin = std::numeric_limits<double>::infinity();
      std::size_t keep = 0;
      for (std::size_t k = 0; k < active_links_.size(); ++k) {
        const std::uint32_t l = active_links_[k];
        if (unfrozen_count_[l] == 0 || unfrozen_weight_[l] <= 0.0) continue;
        active_links_[keep++] = l;
        headroom_[l] = headroom(l);
        if (headroom_[l] < rmin) rmin = headroom_[l];
      }
      active_links_.resize(keep);
    }
    first_round = false;
    // Every unfrozen flow crosses at least one weighted link, so some link
    // had unfrozen_weight > 0 and rmin is finite.
    STELLAR_CHECK(rmin < std::numeric_limits<double>::infinity(),
                  "fluid solve found no constraining link");

    const double cutoff = rmin + rmin * kBottleneckTol;
    bool froze_any = false;
    for (const std::uint32_t l : active_links_) {
      // A link no freeze has touched this round still has the headroom
      // the scan computed from the same residual and weight.
      double r = headroom_[l];
      if (touched_[l] == round) {
        if (unfrozen_count_[l] == 0 || unfrozen_weight_[l] <= 0.0) continue;
        r = headroom(l);
      }
      if (r > cutoff) continue;
      // Bottleneck link: freeze its unfrozen crossing flows at rmin.
      for (const Crossing& c : links_[l].crossing) {
        if (frozen_[c.flow] == solve) continue;
        frozen_[c.flow] = solve;
        froze_any = true;
        --remaining;
        Flow& f = flows_[c.flow];
        f.rate = rmin;
        for (const LinkShare& s : f.shares) {
          touched_[s.link] = round;
          unfrozen_weight_[s.link] -= s.weight;
          --unfrozen_count_[s.link];
          residual_[s.link] -= s.weight * rmin;
          if (residual_[s.link] < 0.0) residual_[s.link] = 0.0;
          if (unfrozen_weight_[s.link] < 0.0) unfrozen_weight_[s.link] = 0.0;
        }
      }
    }
    STELLAR_CHECK(froze_any, "fluid solve made no progress");
  }
}

}  // namespace stellar
