// Bit-identity of the routing fast path against reference
// implementations that rebuild all state per demand, the way the code
// worked before the workspace/incremental-mask optimization:
//
//  * greedy_path_routing: reference rebuilds the residual-capacity
//    Subgraph from scratch for every demand; production maintains it
//    incrementally with an exclusion undo list.
//  * max_concurrent_flow: reference screens reachability with one full
//    Dijkstra per demand; production dedups consecutive same-source
//    screens through one workspace.
//
// Both use the library shortest_path/yen underneath, whose own
// bit-identity to the seed priority_queue Dijkstra is proven in
// test_sssp_workspace.cpp — chaining the two gives end-to-end identity
// with the pre-optimization code.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>
#include <vector>

#include "helpers/graphs.hpp"
#include "net/ksp.hpp"
#include "net/mcf.hpp"
#include "util/rng.hpp"

using namespace poc;
using net::LinkId;
using net::NodeId;

namespace {

constexpr double kEps = 1e-12;

// What the reference saw while placing, so a sweep can show that it
// reached the branches under test.
struct ReferenceStats {
    int split_demands = 0;            // demands placed on 2..k paths
    int zero_bottleneck_skips = 0;    // candidates skipped: an earlier path exhausted them
    std::size_t most_paths = 0;       // largest split seen
};

std::optional<net::CommodityRouting> reference_greedy(const net::Subgraph& sg,
                                                      const net::TrafficMatrix& tm,
                                                      const net::GreedyRoutingOptions& opt,
                                                      ReferenceStats* stats = nullptr) {
    const net::Graph& g = sg.graph();

    std::vector<std::size_t> order(tm.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return tm[a].gbps > tm[b].gbps; });

    std::vector<double> residual(g.link_count(), 0.0);
    for (const LinkId lid : sg.active_links()) {
        residual[lid.index()] = g.link(lid).capacity_gbps * opt.utilization_cap;
    }

    net::CommodityRouting routing;
    routing.routes.resize(tm.size());

    for (const std::size_t di : order) {
        const net::Demand& d = tm[di];
        if (d.gbps <= kEps) continue;

        const net::LinkWeight congestion_weight = [&](LinkId lid) {
            const double cap = g.link(lid).capacity_gbps * opt.utilization_cap;
            const double used = cap - residual[lid.index()];
            const double frac = cap > 0.0 ? used / cap : 1.0;
            return (g.link(lid).length_km + 1.0) * (1.0 + 4.0 * frac * frac);
        };

        // Per-demand from-scratch rebuild of the usable view.
        net::Subgraph usable = sg;
        for (const LinkId lid : sg.active_links()) {
            if (residual[lid.index()] <= kEps) usable.set_active(lid, false);
        }
        if (opt.exclusions != nullptr) {
            for (const LinkId lid : (*opt.exclusions)[di]) usable.set_active(lid, false);
        }

        const auto candidates =
            net::yen_k_shortest(usable, d.src, d.dst, congestion_weight, opt.k_paths);
        double remaining = d.gbps;
        for (const net::WeightedPath& wp : candidates) {
            if (remaining <= kEps) break;
            double bottleneck = remaining;
            for (const LinkId l : wp.links) {
                bottleneck = std::min(bottleneck, residual[l.index()]);
            }
            if (bottleneck <= kEps) {
                if (stats != nullptr) ++stats->zero_bottleneck_skips;
                continue;
            }
            for (const LinkId l : wp.links) residual[l.index()] -= bottleneck;
            routing.routes[di].emplace_back(wp.links, bottleneck);
            remaining -= bottleneck;
        }
        if (stats != nullptr) {
            if (routing.routes[di].size() >= 2) ++stats->split_demands;
            stats->most_paths = std::max(stats->most_paths, routing.routes[di].size());
        }
        if (remaining > 1e-9 * std::max(1.0, d.gbps)) return std::nullopt;
    }
    return routing;
}

net::ConcurrentFlowResult reference_cf(const net::Subgraph& sg, const net::TrafficMatrix& tm,
                                       double eps,
                                       const net::CommodityExclusions* exclusions) {
    const net::Graph& g = sg.graph();
    const std::size_t m = std::max<std::size_t>(sg.active_count(), 2);

    net::ConcurrentFlowResult out;
    out.routing.routes.resize(tm.size());
    if (tm.empty()) {
        out.lambda = std::numeric_limits<double>::infinity();
        return out;
    }

    const double delta = std::pow(static_cast<double>(m) / (1.0 - eps), -1.0 / eps) / 1.0;
    std::vector<double> length(g.link_count(), 0.0);
    const auto active = sg.active_links();
    for (const LinkId lid : active) {
        length[lid.index()] = delta / g.link(lid).capacity_gbps;
    }
    auto dual = [&]() {
        double s = 0.0;
        for (const LinkId lid : active) s += length[lid.index()] * g.link(lid).capacity_gbps;
        return s;
    };
    const net::LinkWeight len_weight = [&](LinkId lid) { return length[lid.index()]; };

    std::vector<double> routed(tm.size(), 0.0);

    std::vector<net::Subgraph> views;
    if (exclusions != nullptr) {
        views.reserve(tm.size());
        for (std::size_t j = 0; j < tm.size(); ++j) {
            net::Subgraph v = sg;
            for (const LinkId lid : (*exclusions)[j]) v.set_active(lid, false);
            views.push_back(std::move(v));
        }
    }
    auto view_of = [&](std::size_t j) -> const net::Subgraph& {
        return exclusions != nullptr ? views[j] : sg;
    };

    // One full tree-returning Dijkstra per demand, no dedup.
    for (std::size_t j = 0; j < tm.size(); ++j) {
        const net::Demand& d = tm[j];
        if (d.gbps <= kEps) continue;
        const auto tree = net::dijkstra(view_of(j), d.src, net::weight_unit());
        if (!tree.reachable(d.dst)) {
            out.lambda = 0.0;
            return out;
        }
    }

    double current_dual = dual();
    while (current_dual < 1.0) {
        for (std::size_t j = 0; j < tm.size(); ++j) {
            const net::Demand& d = tm[j];
            if (d.gbps <= kEps) continue;
            double to_route = d.gbps;
            while (to_route > kEps && current_dual < 1.0) {
                auto sp = net::shortest_path(view_of(j), d.src, d.dst, len_weight);
                POC_ASSERT(sp.has_value());
                double bottleneck = to_route;
                for (const LinkId l : sp->links) {
                    bottleneck = std::min(bottleneck, g.link(l).capacity_gbps);
                }
                for (const LinkId l : sp->links) {
                    const double cap = g.link(l).capacity_gbps;
                    const double old_len = length[l.index()];
                    length[l.index()] = old_len * (1.0 + eps * bottleneck / cap);
                    current_dual += eps * bottleneck * old_len;
                }
                routed[j] += bottleneck;
                to_route -= bottleneck;
                out.routing.routes[j].emplace_back(std::move(sp->links), bottleneck);
            }
        }
    }

    const double scale = std::log((1.0 + eps) / delta) / std::log(1.0 + eps);
    double min_fraction = std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < tm.size(); ++j) {
        if (tm[j].gbps <= kEps) continue;
        min_fraction = std::min(min_fraction, routed[j] / tm[j].gbps);
    }
    if (min_fraction == std::numeric_limits<double>::infinity()) min_fraction = 0.0;
    out.lambda = min_fraction / scale;
    for (auto& demand_routes : out.routing.routes) {
        for (auto& [path, rate] : demand_routes) rate /= scale;
    }
    return out;
}

void expect_routing_identical(const net::CommodityRouting& a, const net::CommodityRouting& b) {
    ASSERT_EQ(a.routes.size(), b.routes.size());
    for (std::size_t j = 0; j < a.routes.size(); ++j) {
        ASSERT_EQ(a.routes[j].size(), b.routes[j].size()) << "demand " << j;
        for (std::size_t p = 0; p < a.routes[j].size(); ++p) {
            EXPECT_EQ(a.routes[j][p].first, b.routes[j][p].first) << "demand " << j;
            // Exact: the fast path must place identical rates.
            EXPECT_EQ(a.routes[j][p].second, b.routes[j][p].second) << "demand " << j;
        }
    }
}

// The Subgraph view points into the Graph, so the instance is filled
// in place (never moved) — hence the out-parameter and optional<>.
struct Instance {
    net::Graph g;
    std::optional<net::Subgraph> sg;
    net::TrafficMatrix tm;
    net::CommodityExclusions exclusions;
};

/// Mask ~10% of inst.g's links off and draw the demands and their
/// exclusions.
void fill_instance(util::Rng& rng, std::size_t n, std::size_t demands, double demand_scale,
                   Instance& inst) {
    inst.sg.emplace(inst.g);
    for (const LinkId l : inst.g.all_links()) {
        if (rng.uniform(0.0, 1.0) < 0.1) inst.sg->set_active(l, false);
    }
    for (std::size_t i = 0; i < demands; ++i) {
        const auto s = static_cast<std::size_t>(rng.uniform_int(std::uint64_t{n}));
        auto t = static_cast<std::size_t>(rng.uniform_int(std::uint64_t{n}));
        if (t == s) t = (t + 1) % n;
        inst.tm.push_back({NodeId{s}, NodeId{t}, rng.uniform(0.1, demand_scale)});
    }
    inst.exclusions.resize(inst.tm.size());
    const auto links = inst.g.all_links();
    for (auto& ex : inst.exclusions) {
        while (rng.uniform(0.0, 1.0) < 0.4) {
            ex.push_back(links[static_cast<std::size_t>(
                rng.uniform_int(std::uint64_t{links.size()}))]);
        }
    }
}

void make_random_instance(util::Rng& rng, std::size_t n, std::size_t demands,
                          double demand_scale, Instance& inst) {
    inst.g = test::random_connected(rng, n, n / 2 + 1);
    fill_instance(rng, n, demands, demand_scale, inst);
}

// A dense multigraph shaped like the Fig. 2 offer pool: every linked
// router pair carries 2-4 parallel links (3 on average), often of equal
// length, so Yen's later paths swap one parallel link for another and
// share the rest — which is what makes a demand split over several
// paths and hit candidates an earlier path already exhausted.
void make_dense_instance(util::Rng& rng, std::size_t n, std::size_t demands,
                         double demand_scale, Instance& inst) {
    net::GraphBuilder gb;
    gb.add_nodes(n);
    auto add_bundle = [&](std::size_t a, std::size_t b) {
        const double len = rng.uniform(1.0, 10.0);
        const auto count = 2 + rng.uniform_int(3);
        for (std::uint64_t p = 0; p < count; ++p) {
            const double l = rng.uniform(0.0, 1.0) < 0.5 ? len : rng.uniform(1.0, 10.0);
            gb.add_link(NodeId{a}, NodeId{b}, rng.uniform(1.0, 10.0), l);
        }
    };
    for (std::size_t i = 0; i + 1 < n; ++i) add_bundle(i, i + 1);
    for (std::size_t e = 0; e < n; ++e) {
        const auto a = static_cast<std::size_t>(rng.uniform_int(std::uint64_t{n}));
        const auto b =
            (a + 1 + static_cast<std::size_t>(rng.uniform_int(std::uint64_t{n - 1}))) % n;
        add_bundle(a, b);
    }
    inst.g = std::move(gb).build();
    fill_instance(rng, n, demands, demand_scale, inst);
}

TEST(FastPathIdentity, GreedyMatchesPerDemandRebuild) {
    util::Rng rng(67);
    int feasible = 0;
    int infeasible = 0;
    for (int round = 0; round < 12; ++round) {
        // Low scale rounds should fit; high scale rounds should fail,
        // exercising both return paths.
        const double scale = round % 2 == 0 ? 2.0 : 40.0;
        Instance inst;
        make_random_instance(rng, 8 + static_cast<std::size_t>(round), 25, scale, inst);
        const net::CommodityExclusions* variants[] = {nullptr, &inst.exclusions};
        for (const net::CommodityExclusions* ex : variants) {
            net::GreedyRoutingOptions opt;
            opt.exclusions = ex;
            opt.utilization_cap = round % 3 == 0 ? 0.9 : 1.0;
            const auto expected = reference_greedy(*inst.sg, inst.tm, opt);
            const auto got = net::greedy_path_routing(*inst.sg, inst.tm, opt);
            ASSERT_EQ(expected.has_value(), got.has_value());
            if (expected) {
                expect_routing_identical(*expected, *got);
                ++feasible;
            } else {
                ++infeasible;
            }
        }
    }
    // The sweep must actually exercise both outcomes.
    EXPECT_GT(feasible, 0);
    EXPECT_GT(infeasible, 0);

    // Dense multigraphs: demands a single path's bottleneck cannot
    // carry, so most demands split and later candidates hit links an
    // earlier path of the same demand exhausted.
    ReferenceStats stats;
    int dense_feasible = 0;
    int dense_infeasible = 0;
    for (int round = 0; round < 12; ++round) {
        const double scale = round % 2 == 0 ? 2.5 : 15.0;
        Instance inst;
        make_dense_instance(rng, 6 + static_cast<std::size_t>(round) / 2, 20, scale, inst);
        const net::CommodityExclusions* variants[] = {nullptr, &inst.exclusions};
        for (const net::CommodityExclusions* ex : variants) {
            net::GreedyRoutingOptions opt;
            opt.exclusions = ex;
            opt.utilization_cap = round % 3 == 0 ? 0.8 : 1.0;
            const auto expected = reference_greedy(*inst.sg, inst.tm, opt, &stats);
            const auto got = net::greedy_path_routing(*inst.sg, inst.tm, opt);
            ASSERT_EQ(expected.has_value(), got.has_value());
            if (expected) {
                expect_routing_identical(*expected, *got);
                ++dense_feasible;
            } else {
                ++dense_infeasible;
            }
        }
    }
    EXPECT_GT(dense_feasible, 0);
    EXPECT_GT(dense_infeasible, 0);
    EXPECT_GT(stats.split_demands, 0);
    EXPECT_GT(stats.zero_bottleneck_skips, 0);
    EXPECT_EQ(stats.most_paths, 4u);
}

TEST(FastPathIdentity, ConcurrentFlowMatchesPerDemandScreening) {
    util::Rng rng(71);
    for (int round = 0; round < 6; ++round) {
        Instance inst;
        make_random_instance(rng, 7 + static_cast<std::size_t>(round), 12, 3.0, inst);
        inst.tm[3].gbps = 0.0;  // zero-demand commodities are skipped
        const net::CommodityExclusions* variants[] = {nullptr, &inst.exclusions};
        for (const net::CommodityExclusions* ex : variants) {
            const auto expected = reference_cf(*inst.sg, inst.tm, 0.1, ex);
            const auto got = net::max_concurrent_flow(*inst.sg, inst.tm, 0.1, ex);
            EXPECT_EQ(expected.lambda, got.lambda);
            expect_routing_identical(expected.routing, got.routing);
        }
    }
}

TEST(FastPathIdentity, ConcurrentFlowUnreachableDemandStillZero) {
    // Two components: demand across them must yield lambda == 0 in both
    // implementations (screening dedup must not skip the decisive run).
    net::GraphBuilder gb;
    const NodeId a = gb.add_node("a");
    const NodeId b = gb.add_node("b");
    const NodeId c = gb.add_node("c");
    const NodeId d = gb.add_node("d");
    gb.add_link(a, b, 10.0, 1.0);
    gb.add_link(c, d, 10.0, 1.0);
    const net::Graph g = std::move(gb).build();
    const net::Subgraph sg(g);
    // Same source twice: first demand reachable, second not — the dedup
    // path answers the second from the first's tree.
    const net::TrafficMatrix tm{{a, b, 1.0}, {a, c, 1.0}};
    const auto expected = reference_cf(sg, tm, 0.1, nullptr);
    const auto got = net::max_concurrent_flow(sg, tm, 0.1);
    EXPECT_EQ(expected.lambda, 0.0);
    EXPECT_EQ(got.lambda, 0.0);
}

}  // namespace
