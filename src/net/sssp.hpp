// Batched single-source shortest paths over a demand matrix
// (DESIGN.md §6). A traffic matrix with D demands usually has far
// fewer distinct sources than demands, and every built-in routing
// metric here (length, hop count) is independent of which demand is
// being resolved — so one SSSP per distinct source answers every
// demand from that source. These helpers do that grouping, run each
// source's Dijkstra through a reusable SsspWorkspace (allocation-free
// in the steady state), and optionally share trees through a
// PathCache. The scale-out path for large matrices is the sharded data
// plane (net/shard.hpp), not these helpers.
//
// Both forms (workspace / cache) are bit-identical to resolving each
// demand with its own shortest_path() call: grouping only deduplicates
// whole SSSP runs, and the cache stores complete trees from the same
// deterministic Dijkstra.
//
// NOT valid for demand-dependent weights (e.g. greedy_path_routing's
// congestion metric, which changes as demands are placed); those call
// sites keep their per-demand SSSPs and reuse only the workspace.
#pragma once

#include <vector>

#include "net/path_cache.hpp"
#include "net/shortest_path.hpp"

namespace poc::net {

struct SsspBatchOptions {
    SsspMetric metric = SsspMetric::kLength;
    /// Optional tree cache shared across calls/masks/epochs. When set,
    /// trees are looked up by (source, mask fingerprint, metric) and
    /// computed on miss; when null, trees live only in the workspace.
    PathCache* cache = nullptr;
};

/// The distinct demand sources of `tm`, in first-appearance order.
std::vector<NodeId> distinct_sources(const TrafficMatrix& tm);

/// out[j] = weight of the best tm[j].src -> tm[j].dst path under the
/// metric, or +inf when disconnected. One SSSP per distinct source.
std::vector<double> batched_demand_distances(const Subgraph& sg, const TrafficMatrix& tm,
                                             const SsspBatchOptions& opt = {});

/// out[j] = link sequence of the best tm[j].src -> tm[j].dst path, or
/// empty when disconnected or tm[j].gbps <= 0 (the primary_paths
/// convention in net/failure.hpp).
std::vector<std::vector<LinkId>> batched_primary_paths(const Subgraph& sg,
                                                       const TrafficMatrix& tm,
                                                       const SsspBatchOptions& opt = {});

}  // namespace poc::net
