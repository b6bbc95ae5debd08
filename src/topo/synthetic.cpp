#include "topo/synthetic.hpp"

#include <algorithm>
#include <cmath>

namespace poc::topo {

namespace {

double euclid_km(const SyntheticTopology& t, net::NodeId a, net::NodeId b) {
    const double dx = t.x_km[a.index()] - t.x_km[b.index()];
    const double dy = t.y_km[a.index()] - t.y_km[b.index()];
    return std::sqrt(dx * dx + dy * dy);
}

}  // namespace

std::pair<net::NodeId, net::NodeId> SyntheticTopology::region_range(std::size_t r) const {
    POC_EXPECTS(r < region_count);
    // region_of is nondecreasing, so the range is a binary search away.
    const auto lo = std::lower_bound(region_of.begin(), region_of.end(), r);
    const auto hi = std::upper_bound(region_of.begin(), region_of.end(), r);
    return {net::NodeId{static_cast<std::size_t>(lo - region_of.begin())},
            net::NodeId{static_cast<std::size_t>(hi - region_of.begin())}};
}

SyntheticTopology build_synthetic_topology(const SyntheticTopologyOptions& opt) {
    POC_EXPECTS(opt.nodes >= 2);
    POC_EXPECTS(opt.regions >= 1);
    POC_EXPECTS(opt.avg_degree >= 0.0);
    POC_EXPECTS(opt.region_span_km > 0.0);
    POC_EXPECTS(0.0 < opt.min_capacity_gbps && opt.min_capacity_gbps <= opt.max_capacity_gbps);

    const std::size_t regions = std::min(opt.regions, opt.nodes);
    const auto cols = static_cast<std::size_t>(
        std::ceil(std::sqrt(static_cast<double>(regions))));

    SyntheticTopology out;
    out.region_count = regions;
    out.region_of.reserve(opt.nodes);
    out.x_km.reserve(opt.nodes);
    out.y_km.reserve(opt.nodes);

    util::Rng rng(opt.seed);

    // Region-major node placement: region r gets the contiguous id
    // range [r*N/R, (r+1)*N/R), each node uniform inside r's grid cell.
    std::vector<std::uint32_t> region_first(regions + 1, 0);
    for (std::size_t r = 0; r <= regions; ++r) {
        region_first[r] = static_cast<std::uint32_t>(opt.nodes * r / regions);
    }
    for (std::size_t r = 0; r < regions; ++r) {
        const double cell_x = static_cast<double>(r % cols) * opt.region_span_km;
        const double cell_y = static_cast<double>(r / cols) * opt.region_span_km;
        for (std::uint32_t i = region_first[r]; i < region_first[r + 1]; ++i) {
            out.region_of.push_back(static_cast<std::uint32_t>(r));
            out.x_km.push_back(cell_x + rng.uniform(0.0, opt.region_span_km));
            out.y_km.push_back(cell_y + rng.uniform(0.0, opt.region_span_km));
        }
    }

    const auto target_links = static_cast<std::size_t>(
        static_cast<double>(opt.nodes) * opt.avg_degree / 2.0);
    net::GraphBuilder graph;
    graph.reserve(opt.nodes, target_links + 4 * regions * opt.trunks_per_adjacency);
    graph.add_nodes(opt.nodes);

    const auto add = [&](net::NodeId a, net::NodeId b) {
        graph.add_link(a, b, rng.uniform(opt.min_capacity_gbps, opt.max_capacity_gbps),
                       euclid_km(out, a, b));
    };

    // Connectivity skeleton 1: an id-order chain through every region.
    for (std::size_t r = 0; r < regions; ++r) {
        for (std::uint32_t i = region_first[r] + 1; i < region_first[r + 1]; ++i) {
            add(net::NodeId{i - 1}, net::NodeId{i});
        }
    }

    // Connectivity skeleton 2: trunks between grid-adjacent regions
    // (right and down neighbors — each adjacency visited once), between
    // uniformly drawn endpoints of the two regions.
    const auto pick_in = [&](std::size_t r) {
        const std::uint32_t lo = region_first[r];
        const std::uint32_t n = region_first[r + 1] - lo;
        return net::NodeId{lo + static_cast<std::uint32_t>(rng.uniform_int(n))};
    };
    for (std::size_t r = 0; r < regions; ++r) {
        const std::size_t col = r % cols;
        const std::size_t right = r + 1;
        const std::size_t down = r + cols;
        if (col + 1 < cols && right < regions) {
            for (std::size_t t = 0; t < opt.trunks_per_adjacency; ++t) {
                add(pick_in(r), pick_in(right));
            }
        }
        if (down < regions) {
            for (std::size_t t = 0; t < opt.trunks_per_adjacency; ++t) {
                add(pick_in(r), pick_in(down));
            }
        }
    }

    // Random intra-region chords up to the degree budget, spread round
    // robin across regions so the budget lands proportionally without a
    // per-region quota computation. Regions of one node cannot host a
    // chord and are skipped.
    std::size_t remaining = target_links > graph.link_count()
                                ? target_links - graph.link_count()
                                : 0;
    while (remaining > 0) {
        bool placed_any = false;
        for (std::size_t r = 0; r < regions && remaining > 0; ++r) {
            if (region_first[r + 1] - region_first[r] < 2) continue;
            const net::NodeId a = pick_in(r);
            net::NodeId b = pick_in(r);
            if (a == b) continue;  // rejected; the rng stream still advanced
            add(a, b);
            --remaining;
            placed_any = true;
        }
        if (!placed_any) break;  // every region is a singleton
    }

    out.graph = std::move(graph).build();
    return out;
}

net::TrafficMatrix continental_traffic(const SyntheticTopology& topo,
                                       const ContinentalTrafficOptions& opt) {
    const std::size_t n = topo.graph.node_count();
    POC_EXPECTS(n >= 2);
    POC_EXPECTS(opt.demands >= 1);
    POC_EXPECTS(opt.total_gbps > 0.0);

    const std::size_t sources =
        opt.max_sources == 0 ? n : std::min(opt.max_sources, n);

    util::Rng rng(opt.seed);
    net::TrafficMatrix tm;
    tm.reserve(opt.demands);
    double sum = 0.0;
    for (std::size_t j = 0; j < opt.demands; ++j) {
        // Evenly spaced source ids cover every region; uniform
        // destinations; Pareto volumes for a heavy tail.
        const std::size_t si = rng.uniform_int(sources);
        const net::NodeId src{si * n / sources};
        net::NodeId dst{rng.uniform_int(n)};
        if (dst == src) dst = net::NodeId{(dst.index() + 1) % n};
        const double v = rng.pareto(1.0, 1.5);
        tm.push_back(net::Demand{src, dst, v});
        sum += v;
    }
    const double scale = opt.total_gbps / sum;
    for (net::Demand& d : tm) d.gbps *= scale;
    return tm;
}

}  // namespace poc::topo
