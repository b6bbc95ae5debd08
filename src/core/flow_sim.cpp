#include "core/flow_sim.hpp"

#include <algorithm>
#include <limits>

#include "net/sssp.hpp"
#include "obs/trace.hpp"

namespace poc::core {

FlowReport simulate_flows_primary(const net::Subgraph& backbone,
                                  const net::TrafficMatrixSoA& tm_soa,
                                  double total_offered_gbps,
                                  const std::vector<bool>& is_virtual,
                                  const FlowSimOptions& opt, net::ShardWorkspace& ws) {
    const net::Graph& g = backbone.graph();
    POC_EXPECTS(is_virtual.empty() || is_virtual.size() == g.link_count());

    POC_OBS_SPAN("core.simulate_flows");
    POC_OBS_INC("core.flows.runs");

    net::ShardOptions shard_opt;
    shard_opt.metric = net::SsspMetric::kLength;
    shard_opt.shards = opt.flow_shards;
    shard_opt.threads = opt.flow_threads;
    shard_opt.cache = opt.path_cache;
    shard_opt.is_virtual = is_virtual.empty() ? nullptr : &is_virtual;

    net::ShardFlowResult flows;
    net::sharded_primary_flow(backbone, tm_soa, shard_opt, ws, flows);

    FlowReport report;
    report.total_offered_gbps = total_offered_gbps;
    report.total_routed_gbps = flows.routed_gbps;
    // Under primary-path routing a demand either rides its shortest
    // path whole or (disconnected) not at all, so "fully routed" is
    // the integer condition that nothing was left unrouted.
    report.fully_routed = flows.unrouted == 0;
    report.link_load_gbps = std::move(flows.link_load_gbps);

    POC_OBS_COUNT("core.flows.demands_offered", tm_soa.size());
    POC_OBS_COUNT("core.flows.demands_admitted", flows.admitted);
    if (report.fully_routed) POC_OBS_INC("core.flows.fully_routed");
    POC_OBS_HISTOGRAM("core.flows.routed_gbps", 0.0, 10000.0, 50, report.total_routed_gbps);

    const net::LinkSoa soa = g.link_soa();
    double util_sum = 0.0;
    std::size_t loaded = 0;
    for (const net::LinkId l : backbone.active_links()) {
        const double load = report.link_load_gbps[l.index()];
        if (load <= 0.0) continue;
        const double u = load / soa.capacity_gbps[l.index()];
        report.max_utilization = std::max(report.max_utilization, u);
        util_sum += u;
        ++loaded;
    }
    report.mean_utilization = loaded > 0 ? util_sum / static_cast<double>(loaded) : 0.0;

    if (report.total_routed_gbps > 0.0) {
        // The routed path *is* the shortest path, and the per-path km
        // fold is bit-for-bit the Dijkstra distance fold, so the
        // weighted routed and weighted shortest sums are the same
        // doubles: stretch is exactly 1.0 by construction.
        report.mean_path_km = flows.weighted_km / report.total_routed_gbps;
        report.mean_shortest_km = report.mean_path_km;
        report.stretch = 1.0;
    }
    report.virtual_share =
        flows.total_gbps_km > 0.0 ? flows.virtual_gbps_km / flows.total_gbps_km : 0.0;
    return report;
}

FlowReport simulate_flows(const net::Subgraph& backbone, const net::TrafficMatrix& tm,
                          const std::vector<bool>& is_virtual, const FlowSimOptions& opt) {
    const net::Graph& g = backbone.graph();
    POC_EXPECTS(is_virtual.empty() || is_virtual.size() == g.link_count());

    if (opt.routing == FlowRouting::kPrimary) {
        const net::TrafficMatrixSoA tm_soa(tm);
        net::ShardWorkspace ws;
        return simulate_flows_primary(backbone, tm_soa, net::total_demand(tm), is_virtual, opt,
                                      ws);
    }

    POC_OBS_SPAN("core.simulate_flows");
    POC_OBS_INC("core.flows.runs");
    FlowReport report;
    report.total_offered_gbps = net::total_demand(tm);
    report.link_load_gbps.assign(g.link_count(), 0.0);

    auto routing = net::greedy_path_routing(backbone, tm);
    if (!routing) {
        // Fall back to the concurrent-flow routing. Its routes carry
        // lambda_j * d_j per demand; cap each demand at its offered
        // volume so the report never counts over-routing.
        auto cf = net::max_concurrent_flow(backbone, tm, 0.1);
        for (std::size_t j = 0; j < tm.size(); ++j) {
            double carried = 0.0;
            for (const auto& [path, rate] : cf.routing.routes[j]) carried += rate;
            if (carried > tm[j].gbps && carried > 0.0) {
                const double f = tm[j].gbps / carried;
                for (auto& [path, rate] : cf.routing.routes[j]) rate *= f;
            }
        }
        report.fully_routed = cf.lambda >= 1.0;
        routing = std::move(cf.routing);
    } else {
        report.fully_routed = true;
    }

    // Shortest-possible distance per demand for the stretch metric:
    // one SSSP per distinct source (optionally cached) instead of one
    // per demand. The accumulation below stays in j order, so the sum
    // is bit-identical to per-demand shortest_path calls.
    net::SsspBatchOptions batch_opt;
    batch_opt.metric = net::SsspMetric::kLength;
    batch_opt.cache = opt.path_cache;
    const std::vector<double> shortest_km = net::batched_demand_distances(backbone, tm, batch_opt);

    double weighted_km = 0.0;
    double weighted_shortest_km = 0.0;
    double virtual_gbps_km = 0.0;
    double total_gbps_km = 0.0;

    std::size_t admitted = 0;  // demands with any routed volume
    for (std::size_t j = 0; j < tm.size(); ++j) {
        double routed_j = 0.0;
        for (const auto& [path, rate] : routing->routes[j]) {
            double km = 0.0;
            for (const net::LinkId l : path) {
                report.link_load_gbps[l.index()] += rate;
                km += g.link(l).length_km;
                const double gkm = rate * g.link(l).length_km;
                total_gbps_km += gkm;
                if (!is_virtual.empty() && is_virtual[l.index()]) virtual_gbps_km += gkm;
            }
            weighted_km += rate * km;
            routed_j += rate;
        }
        report.total_routed_gbps += routed_j;
        if (routed_j > 0.0) {
            ++admitted;
            if (shortest_km[j] < std::numeric_limits<double>::infinity()) {
                weighted_shortest_km += routed_j * shortest_km[j];
            }
        }
    }
    // Flow-admission telemetry: how many demands got any capacity, and
    // whether the whole matrix was carried.
    POC_OBS_COUNT("core.flows.demands_offered", tm.size());
    POC_OBS_COUNT("core.flows.demands_admitted", admitted);
    if (report.fully_routed) POC_OBS_INC("core.flows.fully_routed");
    POC_OBS_HISTOGRAM("core.flows.routed_gbps", 0.0, 10000.0, 50, report.total_routed_gbps);

    double util_sum = 0.0;
    std::size_t loaded = 0;
    for (const net::LinkId l : backbone.active_links()) {
        const double load = report.link_load_gbps[l.index()];
        if (load <= 0.0) continue;
        const double u = load / g.link(l).capacity_gbps;
        report.max_utilization = std::max(report.max_utilization, u);
        util_sum += u;
        ++loaded;
    }
    report.mean_utilization = loaded > 0 ? util_sum / static_cast<double>(loaded) : 0.0;

    if (report.total_routed_gbps > 0.0) {
        report.mean_path_km = weighted_km / report.total_routed_gbps;
        report.mean_shortest_km = weighted_shortest_km / report.total_routed_gbps;
        report.stretch = report.mean_shortest_km > 0.0
                             ? report.mean_path_km / report.mean_shortest_km
                             : 1.0;
    }
    report.virtual_share = total_gbps_km > 0.0 ? virtual_gbps_km / total_gbps_km : 0.0;
    return report;
}

}  // namespace poc::core
