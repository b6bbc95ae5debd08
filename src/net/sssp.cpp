#include "net/sssp.hpp"

#include <limits>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace poc::net {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Demands grouped by source, sources in first-appearance order (a
/// deterministic order, so serial processing order is reproducible).
struct SourceGroups {
    std::vector<NodeId> sources;
    std::vector<std::vector<std::size_t>> demand_indices;  // parallel to sources
};

SourceGroups group_by_source(const TrafficMatrix& tm) {
    SourceGroups g;
    std::unordered_map<NodeId, std::size_t> index_of;
    index_of.reserve(tm.size());
    for (std::size_t j = 0; j < tm.size(); ++j) {
        const auto [it, inserted] = index_of.try_emplace(tm[j].src, g.sources.size());
        if (inserted) {
            g.sources.push_back(tm[j].src);
            g.demand_indices.emplace_back();
        }
        g.demand_indices[it->second].push_back(j);
    }
    return g;
}

}  // namespace

std::vector<NodeId> distinct_sources(const TrafficMatrix& tm) {
    return group_by_source(tm).sources;
}

std::vector<double> batched_demand_distances(const Subgraph& sg, const TrafficMatrix& tm,
                                             const SsspBatchOptions& opt) {
    POC_OBS_TIMER_MS("net.sssp.batch_ms", 0.0, 250.0, 50);
    std::vector<double> out(tm.size(), kInf);
    const SourceGroups groups = group_by_source(tm);
    POC_OBS_COUNT("net.sssp.batch_demands", tm.size());
    POC_OBS_COUNT("net.sssp.batch_sources", groups.sources.size());

    for (std::size_t gi = 0; gi < groups.sources.size(); ++gi) {
        if (opt.cache) {
            const auto tree = opt.cache->tree(sg, groups.sources[gi], opt.metric);
            for (const std::size_t j : groups.demand_indices[gi]) {
                out[j] = tree->dist[tm[j].dst.index()];
            }
        } else {
            thread_local SsspWorkspace ws;
            dijkstra_metric_into(sg, groups.sources[gi], opt.metric, ws);
            for (const std::size_t j : groups.demand_indices[gi]) {
                out[j] = ws.dist(tm[j].dst);
            }
        }
    }
    return out;
}

std::vector<std::vector<LinkId>> batched_primary_paths(const Subgraph& sg,
                                                       const TrafficMatrix& tm,
                                                       const SsspBatchOptions& opt) {
    POC_OBS_TIMER_MS("net.sssp.batch_ms", 0.0, 250.0, 50);
    std::vector<std::vector<LinkId>> primaries(tm.size());
    const SourceGroups groups = group_by_source(tm);
    POC_OBS_COUNT("net.sssp.batch_demands", tm.size());
    POC_OBS_COUNT("net.sssp.batch_sources", groups.sources.size());

    for (std::size_t gi = 0; gi < groups.sources.size(); ++gi) {
        if (opt.cache) {
            const auto tree = opt.cache->tree(sg, groups.sources[gi], opt.metric);
            for (const std::size_t j : groups.demand_indices[gi]) {
                if (tm[j].gbps <= 0.0) continue;
                if (tree->reachable(tm[j].dst)) primaries[j] = tree->path_to(tm[j].dst);
            }
        } else {
            thread_local SsspWorkspace ws;
            dijkstra_metric_into(sg, groups.sources[gi], opt.metric, ws);
            for (const std::size_t j : groups.demand_indices[gi]) {
                if (tm[j].gbps <= 0.0) continue;
                if (ws.reachable(tm[j].dst)) ws.append_path_to(tm[j].dst, primaries[j]);
            }
        }
    }
    return primaries;
}

}  // namespace poc::net
