// Single-source shortest paths over a Subgraph with pluggable link
// weights. Dijkstra is the workhorse (all weights in this project are
// non-negative); Bellman-Ford exists as an independent oracle for
// property tests.
#pragma once

#include <functional>
#include <limits>
#include <optional>
#include <vector>

#include "net/graph.hpp"

namespace poc::net {

/// Link weight functor: maps a link to its routing cost. Must be
/// non-negative for Dijkstra.
using LinkWeight = std::function<double(LinkId)>;

/// Weight by geographic length (the default routing metric).
LinkWeight weight_by_length(const Graph& g);
/// Unit weight (hop count).
LinkWeight weight_unit();

/// Result of a single-source shortest path computation.
struct ShortestPathTree {
    NodeId source;
    /// dist[v] = cost of the best path source->v, or +inf if unreachable.
    std::vector<double> dist;
    /// parent_link[v] = the link used to enter v on the best path, or an
    /// invalid id for the source / unreachable nodes.
    std::vector<LinkId> parent_link;
    /// pred_node_[v] = the node preceding v on the best path (the other
    /// endpoint of parent_link[v]). Stored so path reconstruction does
    /// not need the graph.
    std::vector<NodeId> pred_node_;

    bool reachable(NodeId v) const {
        return dist[v.index()] < std::numeric_limits<double>::infinity();
    }

    /// Reconstruct the link sequence source->target. Requires target
    /// reachable. Returned links are ordered from source to target.
    std::vector<LinkId> path_to(NodeId target) const;
};

/// Built-in routing metrics with stable identities, so caches
/// (net/path_cache.hpp) can key entries on "which weight function"
/// without hashing a std::function. kLength is weight_by_length,
/// kUnit is weight_unit.
enum class SsspMetric : std::uint8_t { kLength = 0, kUnit = 1 };

class SsspWorkspace;

namespace detail {
template <class Weight>
void run_dijkstra(const Subgraph& sg, NodeId source, Weight&& weight, SsspWorkspace& ws);
}

/// Reusable single-source shortest-path scratch: flat dist/parent/pred
/// arrays plus a 4-ary heap, invalidated by a generation stamp instead
/// of an O(V) clear. After the first run on a graph size, repeated
/// dijkstra_into() calls perform zero allocations (the heap vector
/// keeps its capacity), which is what makes per-demand routing loops
/// allocation-free (DESIGN.md §6).
///
/// Results are bit-identical to the tree-returning dijkstra(): a
/// priority queue with the total order (dist, node id) pops a uniquely
/// determined sequence whatever its arity, so the relaxation order —
/// and therefore every dist/parent/pred value — cannot differ.
class SsspWorkspace {
public:
    /// Source of the last dijkstra_into() run.
    NodeId source() const noexcept { return source_; }

    bool reachable(NodeId v) const {
        POC_EXPECTS(v.index() < dist_.size());
        return stamp_[v.index()] == generation_;
    }

    /// Distance from the source, +inf when unreachable.
    double dist(NodeId v) const {
        POC_EXPECTS(v.index() < dist_.size());
        return stamp_[v.index()] == generation_ ? dist_[v.index()]
                                                : std::numeric_limits<double>::infinity();
    }

    LinkId parent_link(NodeId v) const {
        POC_EXPECTS(v.index() < dist_.size());
        return stamp_[v.index()] == generation_ ? parent_[v.index()] : LinkId{};
    }

    NodeId pred_node(NodeId v) const {
        POC_EXPECTS(v.index() < dist_.size());
        return stamp_[v.index()] == generation_ ? pred_[v.index()] : NodeId{};
    }

    /// Append the link sequence source->target to `out` (cleared
    /// first). Requires target reachable. Allocation-free once `out`
    /// has capacity.
    void append_path_to(NodeId target, std::vector<LinkId>& out) const;

    std::vector<LinkId> path_to(NodeId target) const {
        std::vector<LinkId> out;
        append_path_to(target, out);
        return out;
    }

    /// Export the last run as a standalone ShortestPathTree (allocates;
    /// for callers that outlive the workspace, e.g. the path cache).
    ShortestPathTree to_tree() const;

private:
    template <class Weight>
    friend void detail::run_dijkstra(const Subgraph& sg, NodeId source, Weight&& weight,
                                     SsspWorkspace& ws);

    struct HeapItem {
        double dist;
        NodeId::underlying_type node;
    };

    /// The total order of the seed std::priority_queue<pair<double,
    /// id>, greater<>>: (dist, node id) ascending. Keeping the exact
    /// same order is what makes the 4-ary heap bit-identical.
    static bool heap_less(HeapItem a, HeapItem b) noexcept {
        return a.dist < b.dist || (a.dist == b.dist && a.node < b.node);
    }

    /// Size to the graph and open a fresh generation (O(1) amortized;
    /// O(V) only on first use, graph-size change, or stamp wraparound).
    void prepare(std::size_t node_count);

    void heap_push(HeapItem item);
    HeapItem heap_pop();

    std::vector<double> dist_;
    std::vector<LinkId> parent_;
    std::vector<NodeId> pred_;
    std::vector<std::uint32_t> stamp_;
    std::uint32_t generation_ = 0;
    std::vector<HeapItem> heap_;
    NodeId source_{};
};

/// Dijkstra over active links. Requires weights >= 0.
ShortestPathTree dijkstra(const Subgraph& sg, NodeId source, const LinkWeight& weight);

/// Dijkstra into a reusable workspace: identical results, no
/// allocations in the steady state.
void dijkstra_into(const Subgraph& sg, NodeId source, const LinkWeight& weight,
                   SsspWorkspace& ws);

/// dijkstra_into with the built-in metric inlined (no per-edge
/// std::function indirection); bit-identical to the generic form with
/// weight_by_length / weight_unit.
void dijkstra_metric_into(const Subgraph& sg, NodeId source, SsspMetric metric,
                          SsspWorkspace& ws);

/// Bellman-Ford over active links. Supports negative weights; returns
/// std::nullopt if a negative cycle is reachable from the source.
std::optional<ShortestPathTree> bellman_ford(const Subgraph& sg, NodeId source,
                                             const LinkWeight& weight);

/// A path with its total weight.
struct WeightedPath {
    std::vector<LinkId> links;
    double weight = 0.0;
};

/// Convenience: best path between two nodes, or nullopt if disconnected.
std::optional<WeightedPath> shortest_path(const Subgraph& sg, NodeId src, NodeId dst,
                                          const LinkWeight& weight);

/// shortest_path through a reusable workspace: same result, no
/// per-call tree allocation (the returned path still allocates).
std::optional<WeightedPath> shortest_path(const Subgraph& sg, NodeId src, NodeId dst,
                                          const LinkWeight& weight, SsspWorkspace& ws);

/// The node sequence visited by a path starting at `src`. Requires the
/// links to form a connected walk from src.
std::vector<NodeId> path_nodes(const Graph& g, NodeId src, const std::vector<LinkId>& links);

}  // namespace poc::net
