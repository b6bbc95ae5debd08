#include "topo/poc_topology.hpp"

#include <algorithm>
#include <limits>

#include "net/shortest_path.hpp"

namespace poc::topo {

std::vector<net::LinkId> PocTopology::links_of(std::uint32_t bp) const {
    std::vector<net::LinkId> out;
    for (std::size_t i = 0; i < link_owner.size(); ++i) {
        if (link_owner[i] == bp) out.emplace_back(i);
    }
    return out;
}

double PocTopology::share_of(std::uint32_t bp) const {
    POC_EXPECTS(!link_owner.empty());
    const auto owned = static_cast<double>(std::count(link_owner.begin(), link_owner.end(), bp));
    return owned / static_cast<double>(link_owner.size());
}

PocTopology build_poc_topology(const std::vector<BpNetwork>& bps, const PocTopologyOptions& opt) {
    POC_EXPECTS(!bps.empty());
    POC_EXPECTS(opt.min_colocated_bps >= 1);
    POC_EXPECTS(opt.max_circuitousness >= 1.0);
    const auto& cities = world_cities();

    // 1. Router placement: cities where >= min_colocated_bps BPs meet.
    const auto presence = bp_presence_by_city(bps, cities.size());
    PocTopology topo;
    topo.bp_count = bps.size();
    net::GraphBuilder graph;
    std::vector<std::size_t> city_to_router(cities.size(), std::numeric_limits<std::size_t>::max());
    for (std::size_t ci = 0; ci < cities.size(); ++ci) {
        if (presence[ci] >= opt.min_colocated_bps) {
            city_to_router[ci] = graph.add_node(cities[ci].name).index();
            topo.router_city.push_back(ci);
        }
    }
    POC_ENSURES(topo.router_city.size() >= 2);

    // 2. Logical links: for each BP, every pair of its POC-router cities
    //    whose internal path is commercially sensible becomes an offer.
    for (std::size_t b = 0; b < bps.size(); ++b) {
        const BpNetwork& bp = bps[b];
        // This BP's PoPs that are POC router sites.
        std::vector<std::size_t> pop_nodes;  // node ids in bp.physical
        for (std::size_t n = 0; n < bp.cities.size(); ++n) {
            if (city_to_router[bp.cities[n]] != std::numeric_limits<std::size_t>::max()) {
                pop_nodes.push_back(n);
            }
        }
        if (pop_nodes.size() < 2) continue;

        const net::Subgraph all(bp.physical);
        const net::LinkWeight by_len = net::weight_by_length(bp.physical);

        for (std::size_t i = 0; i < pop_nodes.size(); ++i) {
            // One Dijkstra per source PoP covers all destinations.
            const auto tree = net::dijkstra(all, net::NodeId{pop_nodes[i]}, by_len);
            for (std::size_t j = i + 1; j < pop_nodes.size(); ++j) {
                const net::NodeId dst{pop_nodes[j]};
                if (!tree.reachable(dst)) continue;
                const double path_km = tree.dist[dst.index()];
                if (path_km > opt.max_circuit_km) continue;
                const double direct_km =
                    haversine_km(cities[bp.cities[pop_nodes[i]]].location,
                                 cities[bp.cities[pop_nodes[j]]].location);
                if (path_km > opt.max_circuitousness * std::max(direct_km, 1.0)) continue;

                // Bottleneck capacity along the realizing path.
                double cap = std::numeric_limits<double>::infinity();
                for (const net::LinkId pl : tree.path_to(dst)) {
                    cap = std::min(cap, bp.physical.link(pl).capacity_gbps);
                }
                POC_ASSERT(cap < std::numeric_limits<double>::infinity());

                const net::NodeId ra{city_to_router[bp.cities[pop_nodes[i]]]};
                const net::NodeId rb{city_to_router[bp.cities[pop_nodes[j]]]};
                graph.add_link(ra, rb, cap, path_km);
                topo.link_owner.push_back(static_cast<std::uint32_t>(b));
            }
        }
    }
    topo.graph = std::move(graph).build();
    POC_ENSURES(topo.link_owner.size() == topo.graph.link_count());
    return topo;
}

}  // namespace poc::topo
