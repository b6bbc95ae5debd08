// Yen's algorithm for the k shortest loopless paths. The multi-commodity
// routing in the feasibility oracle and the per-pair failure model
// (constraint #3 of the auction, paper section 3.3) both work over a
// candidate path set per commodity; Yen provides that set.
#pragma once

#include <set>
#include <span>
#include <vector>

#include "net/shortest_path.hpp"

namespace poc::net {

/// Yen's k shortest loopless paths, one at a time: path i+1 is computed
/// only when next() is called after path i, so a caller that stops
/// early (the greedy router, once its demand is placed) never pays for
/// the spur searches of paths it does not use. Draining the enumerator
/// to k paths gives exactly yen_k_shortest(..., k).
///
/// The view, its ActiveAdjacency and the weight array are borrowed and
/// must stay unchanged while one src->dst sequence is enumerated; the
/// view is toggled during each spur search and restored before next()
/// returns.
class YenEnumerator {
public:
    /// `adj` is the ActiveAdjacency of `view` or of a view it has only
    /// shrunk from; `weight[l]` is link l's non-negative cost.
    YenEnumerator(Subgraph& view, const ActiveAdjacency& adj, std::span<const double> weight,
                  SsspWorkspace& ws);

    /// Begin a new src->dst sequence, forgetting the previous one.
    /// Requires src != dst.
    void start(NodeId src, NodeId dst);

    /// The next path in non-decreasing weight order, or nullptr once the
    /// loopless path space is exhausted. The pointer is valid until the
    /// next call to next() or start().
    const WeightedPath* next();

private:
    struct ByWeightThenLinks {
        bool operator()(const WeightedPath& a, const WeightedPath& b) const {
            if (a.weight != b.weight) return a.weight < b.weight;
            return a.links < b.links;
        }
    };

    /// Push the spur paths deviating from the last accepted path into
    /// the candidate set (one round of Yen's outer loop).
    void add_spur_candidates();

    Subgraph* view_;
    const ActiveAdjacency* adj_;
    std::span<const double> weight_;
    SsspWorkspace* ws_;
    NodeId src_{};
    NodeId dst_{};
    bool exhausted_ = true;
    std::vector<WeightedPath> accepted_;
    std::set<WeightedPath, ByWeightThenLinks> candidates_;
    std::vector<LinkId> removed_;  // links toggled off for one spur search
};

/// Up to k shortest loopless paths from src to dst over active links,
/// ordered by non-decreasing weight. Fewer than k are returned when the
/// subgraph does not contain k distinct loopless paths. Requires k >= 1
/// and non-negative weights.
std::vector<WeightedPath> yen_k_shortest(const Subgraph& sg, NodeId src, NodeId dst,
                                         const LinkWeight& weight, std::size_t k);

/// yen_k_shortest with every internal SSSP run through a reusable
/// workspace. Identical results; the per-spur tree allocations of the
/// convenience overload disappear.
std::vector<WeightedPath> yen_k_shortest(const Subgraph& sg, NodeId src, NodeId dst,
                                         const LinkWeight& weight, std::size_t k,
                                         SsspWorkspace& ws);

}  // namespace poc::net
