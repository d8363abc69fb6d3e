// Property sweeps over the max-min fluid solver (sim/fluid.h): on seeded
// random topologies the solution must satisfy the defining max-min
// invariants —
//   * feasibility: no link carries more than its capacity;
//   * bottleneck: every active flow crosses at least one saturated link
//     (otherwise its rate could still grow, contradicting max-min);
//   * monotonicity: removing a flow never lowers any survivor's rate;
//   * determinism: re-running the identical call sequence reproduces
//     bitwise-identical rates;
//   * conservation: integrating rates over a rate-change schedule serves
//     exactly the demand the flows brought (no bytes created or lost);
//   * reference equivalence: under seeded churn the persistent solver's
//     rates and link loads are bit-identical to a from-scratch reference
//     solve after every step.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "sim/fluid.h"

namespace stellar {
namespace {

// Relative slack for comparing stored doubles that went through independent
// arithmetic (load sums vs capacities). The solver itself compares exact
// stored values; tests allow accumulated rounding across many flows.
constexpr double kRelEps = 1e-9;

struct RandomCase {
  FluidSolver solver;
  std::vector<std::uint32_t> flows;
  std::vector<std::vector<FluidSolver::LinkShare>> shares;  // per flow
  std::vector<double> capacities;
};

/// Build a random capacitated network: `links` links with capacities in
/// [1, 100] GB/s and `flows` flows, each crossing 1..4 distinct links with
/// weights in (0, 1].
RandomCase build_case(std::uint64_t seed, std::uint32_t links,
                      std::uint32_t flows) {
  RandomCase c;
  Rng rng(seed);
  for (std::uint32_t l = 0; l < links; ++l) {
    const double cap = 1e9 * (1.0 + 99.0 * rng.uniform());
    c.capacities.push_back(cap);
    c.solver.add_link(cap);
  }
  for (std::uint32_t f = 0; f < flows; ++f) {
    const std::uint32_t span = 1 + static_cast<std::uint32_t>(rng.below(4));
    std::vector<FluidSolver::LinkShare> shares;
    std::uint32_t start = static_cast<std::uint32_t>(rng.below(links));
    for (std::uint32_t k = 0; k < span; ++k) {
      // Distinct links: walk a strided window so no link repeats.
      const std::uint32_t link = (start + k * 7 + k) % links;
      bool dup = false;
      for (const auto& s : shares) dup |= (s.link == link);
      if (dup) continue;
      shares.push_back({link, 0.05 + 0.95 * rng.uniform()});
    }
    c.shares.push_back(shares);
    c.flows.push_back(c.solver.add_flow(shares));
  }
  c.solver.solve();
  return c;
}

void check_feasibility_and_bottleneck(const RandomCase& c) {
  // Feasibility: every link at or under capacity (with rounding slack).
  for (std::uint32_t l = 0; l < c.capacities.size(); ++l) {
    EXPECT_LE(c.solver.link_load(l),
              c.capacities[l] * (1.0 + kRelEps))
        << "link " << l << " over capacity";
  }
  // Bottleneck property: each active flow has a saturated link among its
  // shares. A flow crossing only unsaturated links could still grow.
  for (std::size_t i = 0; i < c.flows.size(); ++i) {
    const double rate = c.solver.rate(c.flows[i]);
    EXPECT_GT(rate, 0.0) << "flow " << i << " starved";
    bool bottlenecked = false;
    for (const auto& s : c.shares[i]) {
      if (c.solver.link_load(s.link) >=
          c.solver.capacity(s.link) * (1.0 - kRelEps)) {
        bottlenecked = true;
        break;
      }
    }
    EXPECT_TRUE(bottlenecked) << "flow " << i << " has no saturated link";
  }
}

class FluidPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FluidPropertyTest, FeasibleAndBottlenecked) {
  const std::uint64_t seed = GetParam();
  check_feasibility_and_bottleneck(build_case(seed, 12, 40));
  check_feasibility_and_bottleneck(build_case(seed ^ 0xabcdu, 3, 50));
  check_feasibility_and_bottleneck(build_case(seed ^ 0x1234u, 25, 8));
}

TEST_P(FluidPropertyTest, DepartureLexicographicImprovement) {
  // Per-flow monotonicity under departure is NOT a max-min theorem in
  // multi-link networks (removing a flow can un-bottleneck a neighbor,
  // which then takes more of a shared link and slows a third party). The
  // correct invariant: the survivors' old allocation stays feasible once a
  // flow leaves, so the new max-min solution must lexicographically
  // dominate it — in particular the slowest survivor never gets slower.
  const std::uint64_t seed = GetParam();
  RandomCase c = build_case(seed, 10, 30);
  std::vector<double> before(c.flows.size());
  for (std::size_t i = 0; i < c.flows.size(); ++i) {
    before[i] = c.solver.rate(c.flows[i]);
  }
  // Remove every third flow.
  std::vector<bool> removed(c.flows.size(), false);
  for (std::size_t i = 0; i < c.flows.size(); i += 3) {
    c.solver.remove_flow(c.flows[i]);
    removed[i] = true;
  }
  c.solver.solve();
  std::vector<double> old_rates;
  std::vector<double> new_rates;
  for (std::size_t i = 0; i < c.flows.size(); ++i) {
    if (removed[i]) continue;
    old_rates.push_back(before[i]);
    new_rates.push_back(c.solver.rate(c.flows[i]));
  }
  std::sort(old_rates.begin(), old_rates.end());
  std::sort(new_rates.begin(), new_rates.end());
  ASSERT_EQ(old_rates.size(), new_rates.size());
  EXPECT_GE(new_rates.front(), old_rates.front() * (1.0 - kRelEps))
      << "slowest survivor slowed down after departures";
  for (std::size_t i = 0; i < new_rates.size(); ++i) {
    if (new_rates[i] > old_rates[i] * (1.0 + kRelEps)) break;  // dominates
    EXPECT_GE(new_rates[i], old_rates[i] * (1.0 - kRelEps))
        << "sorted rate vector regressed at position " << i;
  }
}

TEST_P(FluidPropertyTest, BitwiseDeterministicAcrossRuns) {
  const std::uint64_t seed = GetParam();
  RandomCase a = build_case(seed, 14, 36);
  RandomCase b = build_case(seed, 14, 36);
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t i = 0; i < a.flows.size(); ++i) {
    // Bitwise equality, not approximate: same inputs, same arithmetic.
    EXPECT_EQ(a.solver.rate(a.flows[i]), b.solver.rate(b.flows[i]));
  }
  for (std::uint32_t l = 0; l < 14; ++l) {
    EXPECT_EQ(a.solver.link_load(l), b.solver.link_load(l));
  }
}

TEST_P(FluidPropertyTest, ByteConservationAcrossRateChanges) {
  // Integrate each flow's rate over a schedule of departures (the exact
  // arithmetic HybridDriver::advance_to_now performs) and check that each
  // flow is credited exactly the bytes of demand it brought: rate changes
  // must neither create nor destroy bytes.
  const std::uint64_t seed = GetParam();
  Rng rng(seed ^ 0x5eedf00du);
  FluidSolver solver;
  const std::uint32_t kLinks = 6;
  for (std::uint32_t l = 0; l < kLinks; ++l) {
    solver.add_link(1e9 * (1.0 + 9.0 * rng.uniform()));
  }
  struct Demand {
    std::uint32_t flow;
    double remaining;  // bytes
    double served = 0.0;
    bool done = false;
  };
  std::vector<Demand> demands;
  for (std::uint32_t f = 0; f < 12; ++f) {
    std::vector<FluidSolver::LinkShare> shares{
        {static_cast<std::uint32_t>(rng.below(kLinks)), 1.0}};
    const std::uint32_t second = static_cast<std::uint32_t>(rng.below(kLinks));
    if (second != shares[0].link) shares.push_back({second, 0.5});
    const double bytes = 1e6 * (1.0 + 9.0 * rng.uniform());
    demands.push_back({solver.add_flow(shares), bytes});
  }
  solver.solve();

  // Event loop: advance to the earliest flow completion, credit every
  // active flow rate*dt, remove finished flows, re-solve.
  double total_served = 0.0;
  for (int guard = 0; guard < 64 && solver.active_flows() > 0; ++guard) {
    double dt = 1e18;
    for (const Demand& d : demands) {
      if (d.done) continue;
      const double rate = solver.rate(d.flow);
      ASSERT_GT(rate, 0.0);
      dt = std::min(dt, (d.remaining - d.served) / rate);
    }
    bool removed_any = false;
    for (Demand& d : demands) {
      if (d.done) continue;
      d.served += solver.rate(d.flow) * dt;
      total_served += solver.rate(d.flow) * dt;
      if (d.served >= d.remaining * (1.0 - kRelEps)) {
        solver.remove_flow(d.flow);
        d.done = true;
        removed_any = true;
      }
    }
    ASSERT_TRUE(removed_any) << "no completion progress";
    solver.solve();
  }
  EXPECT_EQ(solver.active_flows(), 0u);
  double total_demand = 0.0;
  for (const Demand& d : demands) {
    total_demand += d.remaining;
    // Per-flow conservation: served bytes match the demand brought.
    EXPECT_NEAR(d.served, d.remaining, d.remaining * 1e-6);
  }
  EXPECT_NEAR(total_served, total_demand, total_demand * 1e-6);
}

// ---------------------------------------------------------------------------
// Reference equivalence. ReferenceSolver is the from-scratch solver the
// persistent one replaced: every solve() rebuilds the per-link crossing
// index (CSR) over all links, re-sums every weight, and fills link loads in
// a final pass. The persistent solver must reproduce its floats exactly.
// ---------------------------------------------------------------------------

class ReferenceSolver {
 public:
  using LinkShare = FluidSolver::LinkShare;

  std::uint32_t add_link(double capacity) {
    links_.push_back(Link{capacity, 0.0});
    return static_cast<std::uint32_t>(links_.size() - 1);
  }
  void set_capacity(std::uint32_t link, double capacity) {
    links_.at(link).capacity = capacity;
  }
  std::uint32_t add_flow(std::vector<LinkShare> shares) {
    ++active_count_;
    if (!free_ids_.empty()) {
      const std::uint32_t id = free_ids_.back();
      free_ids_.pop_back();
      flows_[id] = Flow{std::move(shares), 0.0, true};
      return id;
    }
    flows_.push_back(Flow{std::move(shares), 0.0, true});
    return static_cast<std::uint32_t>(flows_.size() - 1);
  }
  void remove_flow(std::uint32_t flow) {
    Flow& f = flows_.at(flow);
    f.active = false;
    f.rate = 0.0;
    f.shares.clear();
    --active_count_;
    free_ids_.push_back(flow);
  }
  double rate(std::uint32_t flow) const { return flows_.at(flow).rate; }
  double link_load(std::uint32_t link) const { return links_.at(link).load; }

  void solve() {
    const std::size_t nl = links_.size();
    for (Link& l : links_) l.load = 0.0;
    if (active_count_ == 0) return;
    std::vector<double> residual(nl);
    std::vector<double> unfrozen_weight(nl, 0.0);
    std::vector<std::uint32_t> unfrozen_count(nl, 0);
    for (std::size_t l = 0; l < nl; ++l) residual[l] = links_[l].capacity;
    std::vector<std::uint32_t> active_flows;
    std::size_t total_shares = 0;
    for (std::size_t i = 0; i < flows_.size(); ++i) {
      if (!flows_[i].active) continue;
      active_flows.push_back(static_cast<std::uint32_t>(i));
      total_shares += flows_[i].shares.size();
      for (const LinkShare& s : flows_[i].shares) {
        unfrozen_weight[s.link] += s.weight;
        ++unfrozen_count[s.link];
      }
    }
    std::vector<std::size_t> csr_pos(nl + 1, 0);
    for (std::uint32_t fid : active_flows) {
      for (const LinkShare& s : flows_[fid].shares) ++csr_pos[s.link + 1];
    }
    for (std::size_t l = 0; l < nl; ++l) csr_pos[l + 1] += csr_pos[l];
    std::vector<std::uint32_t> csr_flows(total_shares);
    {
      std::vector<std::size_t> fill(csr_pos.begin(), csr_pos.end() - 1);
      for (std::uint32_t fid : active_flows) {
        for (const LinkShare& s : flows_[fid].shares) {
          csr_flows[fill[s.link]++] = fid;
        }
      }
    }
    std::vector<std::uint32_t> active_links;
    for (std::size_t l = 0; l < nl; ++l) {
      if (unfrozen_count[l] > 0) {
        active_links.push_back(static_cast<std::uint32_t>(l));
      }
    }
    constexpr double kBottleneckTol = 1e-12;
    std::vector<char> frozen(flows_.size(), 0);
    std::size_t remaining = active_flows.size();
    while (remaining > 0) {
      double rmin = std::numeric_limits<double>::infinity();
      std::size_t keep = 0;
      for (std::size_t k = 0; k < active_links.size(); ++k) {
        const std::uint32_t l = active_links[k];
        if (unfrozen_count[l] == 0 || unfrozen_weight[l] <= 0.0) continue;
        active_links[keep++] = l;
        const double r =
            residual[l] > 0.0 ? residual[l] / unfrozen_weight[l] : 0.0;
        if (r < rmin) rmin = r;
      }
      active_links.resize(keep);
      ASSERT_LT(rmin, std::numeric_limits<double>::infinity());
      const double cutoff = rmin + rmin * kBottleneckTol;
      bool froze_any = false;
      for (const std::uint32_t l : active_links) {
        if (unfrozen_count[l] == 0 || unfrozen_weight[l] <= 0.0) continue;
        const double r =
            residual[l] > 0.0 ? residual[l] / unfrozen_weight[l] : 0.0;
        if (r > cutoff) continue;
        for (std::size_t i = csr_pos[l]; i < csr_pos[l + 1]; ++i) {
          const std::uint32_t fid = csr_flows[i];
          if (frozen[fid]) continue;
          frozen[fid] = 1;
          froze_any = true;
          --remaining;
          Flow& f = flows_[fid];
          f.rate = rmin;
          for (const LinkShare& s : f.shares) {
            unfrozen_weight[s.link] -= s.weight;
            --unfrozen_count[s.link];
            residual[s.link] -= s.weight * rmin;
            if (residual[s.link] < 0.0) residual[s.link] = 0.0;
            if (unfrozen_weight[s.link] < 0.0) unfrozen_weight[s.link] = 0.0;
          }
        }
      }
      ASSERT_TRUE(froze_any);
    }
    for (const Flow& f : flows_) {
      if (!f.active) continue;
      for (const LinkShare& s : f.shares) {
        links_[s.link].load += s.weight * f.rate;
      }
    }
  }

 private:
  struct Link {
    double capacity = 0.0;
    double load = 0.0;
  };
  struct Flow {
    std::vector<LinkShare> shares;
    double rate = 0.0;
    bool active = false;
  };
  std::vector<Link> links_;
  std::vector<Flow> flows_;
  std::vector<std::uint32_t> free_ids_;
  std::size_t active_count_ = 0;
};

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// A random flow footprint on a two-tier graph: links [0, edge) are NIC/ToR
/// edge hops crossed with weight 1, the rest fabric links. A sprayed flow
/// spreads over a random subset of fabric links with 1/k weights; a
/// single-path one crosses one fabric link. Occasionally a link repeats
/// within one flow, which the driver's share merging never produces but
/// the solver must still accept.
std::vector<FluidSolver::LinkShare> random_shares(Rng& rng,
                                                  std::uint32_t links,
                                                  std::uint32_t edge) {
  std::vector<FluidSolver::LinkShare> shares;
  shares.push_back({static_cast<std::uint32_t>(rng.below(edge)), 1.0});
  const std::uint32_t fabric = links - edge;
  if (rng.below(2) == 0) {
    const std::uint32_t k = 2 + static_cast<std::uint32_t>(rng.below(fabric - 1));
    const std::uint32_t start = static_cast<std::uint32_t>(rng.below(fabric));
    for (std::uint32_t i = 0; i < k; ++i) {
      shares.push_back({edge + (start + i) % fabric, 1.0 / k});
    }
  } else {
    shares.push_back(
        {edge + static_cast<std::uint32_t>(rng.below(fabric)), 1.0});
  }
  if (rng.below(16) == 0) shares.push_back(shares.back());
  shares.push_back({static_cast<std::uint32_t>(rng.below(edge)), 1.0});
  return shares;
}

TEST_P(FluidPropertyTest, ChurnMatchesFromScratchReferenceBitForBit) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed ^ 0xc0ffee11u);
  constexpr std::uint32_t kEdge = 16;
  constexpr std::uint32_t kLinks = 40;
  FluidSolver solver;
  ReferenceSolver ref;
  for (std::uint32_t l = 0; l < kLinks; ++l) {
    // Equal capacities make symmetric bottleneck groups (the tolerance
    // path); a few odd ones break the symmetry.
    const double cap = rng.below(4) == 0 ? 1e9 * (1.0 + 49.0 * rng.uniform())
                                         : 50e9;
    ASSERT_EQ(solver.add_link(cap), ref.add_link(cap));
  }
  std::vector<std::uint32_t> live;
  std::size_t compared = 0;
  for (int step = 0; step < 600; ++step) {
    const std::uint64_t op = rng.below(10);
    if (op < 5 || live.empty()) {
      const auto shares = random_shares(rng, kLinks, kEdge);
      const std::uint32_t id = solver.add_flow(shares);
      ASSERT_EQ(id, ref.add_flow(shares)) << "flow ids diverged";
      live.push_back(id);
    } else if (op < 9) {
      const std::size_t k = rng.below(live.size());
      solver.remove_flow(live[k]);
      ref.remove_flow(live[k]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
    } else {
      const auto l = static_cast<std::uint32_t>(rng.below(kLinks));
      const double cap = 1e9 * (1.0 + 99.0 * rng.uniform());
      solver.set_capacity(l, cap);
      ref.set_capacity(l, cap);
    }
    // Batch several edits into one solve now and then, as same-instant
    // posts do in the driver.
    if (rng.below(3) == 0) continue;
    solver.solve();
    ref.solve();
    for (const std::uint32_t f : live) {
      ASSERT_TRUE(same_bits(solver.rate(f), ref.rate(f)))
          << "step " << step << " flow " << f << ": " << solver.rate(f)
          << " vs reference " << ref.rate(f);
    }
    for (std::uint32_t l = 0; l < kLinks; ++l) {
      ASSERT_TRUE(same_bits(solver.link_load(l), ref.link_load(l)))
          << "step " << step << " link " << l << ": " << solver.link_load(l)
          << " vs reference " << ref.link_load(l);
    }
    ++compared;
  }
  EXPECT_GT(compared, 300u);
  EXPECT_EQ(solver.active_flows(), live.size());
}

TEST(FluidSolverTest, TouchedBottleneckHeadroomIsRecomputed) {
  // Link b is within the 1e-12 bottleneck tolerance of link a, so both are
  // round-1 bottlenecks. Freezing f1 on a (visited first) charges 0.999 of
  // f1 against b, whose recomputed headroom then lies ~5e-10 above the
  // cutoff: b must not freeze f2 in round 1, and f2 gets the larger rate.
  FluidSolver solver;
  ReferenceSolver ref;
  const std::uint32_t a = solver.add_link(1e9);
  const std::uint32_t b = solver.add_link(1e9 * (1.0 + 5e-13));
  ref.add_link(1e9);
  ref.add_link(1e9 * (1.0 + 5e-13));
  const std::vector<FluidSolver::LinkShare> s1{{a, 1.0}, {b, 0.999}};
  const std::vector<FluidSolver::LinkShare> s2{{b, 0.001}};
  const auto f1 = solver.add_flow(s1);
  const auto f2 = solver.add_flow(s2);
  ref.add_flow(s1);
  ref.add_flow(s2);
  solver.solve();
  ref.solve();
  EXPECT_EQ(solver.rate(f1), 1e9);
  EXPECT_GT(solver.rate(f2), solver.rate(f1) * (1.0 + 1e-10));
  EXPECT_TRUE(same_bits(solver.rate(f1), ref.rate(f1)));
  EXPECT_TRUE(same_bits(solver.rate(f2), ref.rate(f2)));
}

TEST(FluidSolverTest, SingleBottleneckEqualShares) {
  FluidSolver solver;
  const std::uint32_t l = solver.add_link(4e9);
  const auto f1 = solver.add_flow({{l, 1.0}});
  const auto f2 = solver.add_flow({{l, 1.0}});
  const auto f3 = solver.add_flow({{l, 1.0}});
  const auto f4 = solver.add_flow({{l, 1.0}});
  solver.solve();
  for (auto f : {f1, f2, f3, f4}) EXPECT_DOUBLE_EQ(solver.rate(f), 1e9);
  EXPECT_DOUBLE_EQ(solver.link_load(l), 4e9);
}

TEST(FluidSolverTest, ClassicTwoLinkMaxMin) {
  // The textbook example: flow A crosses both links, flows B and C one
  // each. With C1=1, C2=2: A and B split link 1 at 0.5; C gets the rest of
  // link 2 (1.5).
  FluidSolver solver;
  const std::uint32_t l1 = solver.add_link(1e9);
  const std::uint32_t l2 = solver.add_link(2e9);
  const auto fa = solver.add_flow({{l1, 1.0}, {l2, 1.0}});
  const auto fb = solver.add_flow({{l1, 1.0}});
  const auto fc = solver.add_flow({{l2, 1.0}});
  solver.solve();
  EXPECT_DOUBLE_EQ(solver.rate(fa), 0.5e9);
  EXPECT_DOUBLE_EQ(solver.rate(fb), 0.5e9);
  EXPECT_DOUBLE_EQ(solver.rate(fc), 1.5e9);
}

TEST(FluidSolverTest, WeightedSprayShares) {
  // A flow spraying 1/4 of its packets over each of 4 uplinks can run 4x
  // the single-link capacity.
  FluidSolver solver;
  std::vector<FluidSolver::LinkShare> shares;
  for (int i = 0; i < 4; ++i) shares.push_back({solver.add_link(1e9), 0.25});
  const auto f = solver.add_flow(shares);
  solver.solve();
  EXPECT_DOUBLE_EQ(solver.rate(f), 4e9);
  for (std::uint32_t l = 0; l < 4; ++l) {
    EXPECT_DOUBLE_EQ(solver.link_load(l), 1e9);
  }
}

TEST(FluidSolverTest, CapacityChangeReflowsRates) {
  FluidSolver solver;
  const std::uint32_t l = solver.add_link(2e9);
  const auto f1 = solver.add_flow({{l, 1.0}});
  const auto f2 = solver.add_flow({{l, 1.0}});
  solver.solve();
  EXPECT_DOUBLE_EQ(solver.rate(f1), 1e9);
  solver.set_capacity(l, 8e9);
  solver.solve();
  EXPECT_DOUBLE_EQ(solver.rate(f1), 4e9);
  EXPECT_DOUBLE_EQ(solver.rate(f2), 4e9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FluidPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 17u, 42u, 1234u,
                                           0xdeadbeefu, 0xfeedfaceu));

}  // namespace
}  // namespace stellar
