// Max-min fair-share fluid solver: the analytic flow-level network model
// behind hybrid fidelity (docs/HYBRID.md).
//
// The solver sees the fabric as abstract capacitated links and flows with
// fractional per-link weights. A packet-sprayed connection touches a set of
// egress ports, each with the fraction of its packets the spray policy lands
// there; the classic water-filling iteration then assigns every flow the
// max-min fair rate:
//
//   maximize the minimum flow rate subject to  sum_f w_{f,l} * r_f <= C_l
//
// Progressive filling: all unfrozen flows grow at a common rate; the link
// that saturates first freezes every flow crossing it at the current level;
// repeat on the residual network. Each round freezes at least one flow, so
// the iteration terminates in at most F rounds.
//
// Cost: the solver state persists between solves. Each link keeps its
// crossing list (the flows crossing it, sorted by flow id) and the sum of
// their weights; add_flow/remove_flow edit only the lists of the links the
// flow crosses, and a solve re-sums only those edited lists. The links that
// carry any flow are kept as a sorted list too, so a solve never touches an
// idle link, builds no index and allocates nothing: it costs
// O(edited shares + rounds * busy links + total shares). Each round
// computes every busy link's headroom once; the freeze pass recomputes it
// only for links a freeze has already touched in that round. Link loads
// are not kept: link_load() sums a crossing list on demand.
//
// Determinism: links are iterated in index order and flows in id order,
// every float is derived from the same arithmetic on every run, and the
// solver never consults pointers, hashes, or clocks — two identical call
// sequences produce bitwise-identical rates. Weight sums and loads are
// accumulated in crossing-list (flow id, then share) order, the order a
// from-scratch pass over the flow table would use.
//
// The solver is pure (src/sim layer: no net/ dependency); HybridDriver
// (sim/hybrid.h) maps real NetLink objects onto link indices.
#pragma once

#include <cstdint>
#include <vector>

#include "check/check.h"

namespace stellar {

class FluidSolver {
 public:
  /// One (link, weight) term of a flow's capacity footprint. `weight` is
  /// the fraction of the flow's packets that cross this link (1.0 for the
  /// shared first/last hop, 1/paths per sprayed fabric link).
  struct LinkShare {
    std::uint32_t link = 0;
    double weight = 1.0;
  };

  /// Register a link; returns its index. Capacity in bytes/second.
  std::uint32_t add_link(double capacity_bytes_per_sec);

  void set_capacity(std::uint32_t link, double capacity_bytes_per_sec) {
    links_.at(link).capacity = capacity_bytes_per_sec;
  }
  double capacity(std::uint32_t link) const { return links_.at(link).capacity; }
  std::size_t link_count() const { return links_.size(); }

  /// Register a flow; returns its id. Shares must be non-empty (every flow
  /// crosses at least its own NIC egress) with positive weights.
  std::uint32_t add_flow(const std::vector<LinkShare>& shares);

  /// Remove a departed flow. Its slot (and id) is recycled by a later
  /// add_flow — long-running churn keeps the flow table at the peak
  /// concurrent size instead of growing without bound. Callers must treat
  /// a removed id as dead immediately.
  void remove_flow(std::uint32_t flow);

  std::size_t active_flows() const { return active_count_; }

  /// Recompute max-min rates for the current flow set. Call after any
  /// add/remove/capacity change and before reading rate().
  void solve();

  /// Assigned rate (bytes/second) of an active flow, valid after solve().
  double rate(std::uint32_t flow) const {
    const Flow& f = flows_.at(flow);
    STELLAR_CHECK(f.active, "querying rate of an inactive fluid flow");
    return f.rate;
  }

  /// Total offered load on a link (sum of weight * rate over the flows
  /// crossing it), valid after solve().
  double link_load(std::uint32_t link) const;

 private:
  /// One flow's share of a link, in the link's crossing list.
  struct Crossing {
    std::uint32_t flow = 0;
    double weight = 0.0;
  };
  struct Link {
    double capacity = 0.0;  // bytes/sec
    std::vector<Crossing> crossing;  // sorted by flow id, then share order
    double weight_sum = 0.0;  // sum of crossing weights, in list order
    bool dirty = false;       // crossing list edited since weight_sum
  };
  struct Flow {
    std::vector<LinkShare> shares;
    double rate = 0.0;
    bool active = false;
  };

  std::vector<Link> links_;
  std::vector<Flow> flows_;  // indexed by flow id; inactive slots recycled
  std::vector<std::uint32_t> free_ids_;  // LIFO of recyclable slots
  std::size_t active_count_ = 0;
  std::vector<std::uint32_t> busy_links_;   // non-empty crossing, index order
  std::vector<std::uint32_t> dirty_links_;  // links to re-sum at next solve

  // Solve scratch, sized with links_/flows_ so a solve allocates nothing.
  std::vector<double> residual_;
  std::vector<double> unfrozen_weight_;
  // Integer crossing counts decide whether a link still constrains anyone:
  // the float weight sum can retain a tiny residue after its last flow
  // froze (subtractive cancellation), which would otherwise let a spent
  // link masquerade as the bottleneck that nobody crosses.
  std::vector<std::uint32_t> unfrozen_count_;
  std::vector<double> headroom_;         // this round's residual / weight
  std::vector<std::uint64_t> touched_;   // round stamp of the last freeze
  std::vector<std::uint64_t> frozen_;    // per flow: solve stamp when frozen
  std::vector<std::uint32_t> active_links_;
  std::uint64_t round_stamp_ = 0;
  std::uint64_t solve_stamp_ = 0;

  /// The common rate at which link `l` saturates its residual capacity.
  double headroom(std::uint32_t l) const {
    return residual_[l] > 0.0 ? residual_[l] / unfrozen_weight_[l] : 0.0;
  }
};

}  // namespace stellar
