#include "net/mcf.hpp"

#include <gtest/gtest.h>
#include <cmath>

#include "helpers/graphs.hpp"
#include "net/maxflow.hpp"

namespace poc::net {
namespace {

TEST(GreedyRouting, RoutesFittingDemands) {
    Graph g = test::triangle();
    Subgraph sg(g);
    TrafficMatrix tm{{NodeId{0u}, NodeId{2u}, 8.0}};
    const auto r = greedy_path_routing(sg, tm);
    ASSERT_TRUE(r.has_value());
    double carried = 0.0;
    for (const auto& [path, rate] : r->routes[0]) carried += rate;
    EXPECT_NEAR(carried, 8.0, 1e-9);
}

TEST(GreedyRouting, SplitsAcrossPathsWhenNeeded) {
    Graph g = test::triangle();
    Subgraph sg(g);
    TrafficMatrix tm{{NodeId{0u}, NodeId{2u}, 13.0}};  // > any single path
    const auto r = greedy_path_routing(sg, tm);
    ASSERT_TRUE(r.has_value());
    EXPECT_GE(r->routes[0].size(), 2u);
}

TEST(GreedyRouting, FailsWhenDemandExceedsCut) {
    Graph g = test::triangle();
    Subgraph sg(g);
    TrafficMatrix tm{{NodeId{0u}, NodeId{2u}, 16.0}};  // cut is 15
    EXPECT_FALSE(greedy_path_routing(sg, tm).has_value());
}

TEST(GreedyRouting, LinkLoadsRespectCapacity) {
    Graph g = test::ring(6, 5.0);
    Subgraph sg(g);
    TrafficMatrix tm{{NodeId{0u}, NodeId{3u}, 4.0}, {NodeId{1u}, NodeId{4u}, 2.0}};
    const auto r = greedy_path_routing(sg, tm);
    ASSERT_TRUE(r.has_value());
    const auto load = r->link_load(g);
    for (const LinkId l : g.all_links()) {
        EXPECT_LE(load[l.index()], g.link(l).capacity_gbps + 1e-9);
    }
}

TEST(GreedyRouting, UtilizationCapTightensCapacity) {
    Graph g = test::chain(2, 10.0);
    Subgraph sg(g);
    TrafficMatrix tm{{NodeId{0u}, NodeId{1u}, 6.0}};
    GreedyRoutingOptions opt;
    opt.utilization_cap = 0.5;  // only 5 usable
    EXPECT_FALSE(greedy_path_routing(sg, tm, opt).has_value());
    opt.utilization_cap = 0.7;
    EXPECT_TRUE(greedy_path_routing(sg, tm, opt).has_value());
}

TEST(GreedyRouting, ExclusionsForbidLinks) {
    Graph g = test::triangle();
    Subgraph sg(g);
    TrafficMatrix tm{{NodeId{0u}, NodeId{2u}, 4.0}};
    CommodityExclusions excl{{LinkId{0u}}};  // cannot use 0-1
    GreedyRoutingOptions opt;
    opt.exclusions = &excl;
    const auto r = greedy_path_routing(sg, tm, opt);
    ASSERT_TRUE(r.has_value());
    for (const auto& [path, rate] : r->routes[0]) {
        for (const LinkId l : path) EXPECT_NE(l, LinkId{0u});
    }
}

TEST(GreedyRouting, EmptyMatrixTriviallyRoutable) {
    Graph g = test::triangle();
    Subgraph sg(g);
    EXPECT_TRUE(greedy_path_routing(sg, {}).has_value());
}

TEST(ConcurrentFlow, SingleCommodityApproachesMaxFlow) {
    Graph g = test::maxflow_classic();
    Subgraph sg(g);
    const double mf = max_flow(sg, NodeId{0u}, NodeId{5u}).value;
    TrafficMatrix tm{{NodeId{0u}, NodeId{5u}, mf}};
    const auto r = max_concurrent_flow(sg, tm, 0.05);
    // lambda* = 1 exactly; FPTAS guarantees >= (1-O(eps)).
    EXPECT_GE(r.lambda, 0.85);
    EXPECT_LE(r.lambda, 1.0 + 0.05);
}

TEST(ConcurrentFlow, ScaledRoutingIsCapacityFeasible) {
    Graph g = test::maxflow_classic();
    Subgraph sg(g);
    TrafficMatrix tm{{NodeId{0u}, NodeId{5u}, 10.0}, {NodeId{1u}, NodeId{4u}, 5.0}};
    const auto r = max_concurrent_flow(sg, tm, 0.1);
    const auto load = r.routing.link_load(g);
    for (const LinkId l : g.all_links()) {
        EXPECT_LE(load[l.index()], g.link(l).capacity_gbps * (1.0 + 1e-6));
    }
}

TEST(ConcurrentFlow, UnreachableDemandGivesZeroLambda) {
    GraphBuilder gb;
    gb.add_nodes(3);
    gb.add_link(NodeId{0u}, NodeId{1u}, 5.0, 1.0);
    const Graph g = std::move(gb).build();
    Subgraph sg(g);
    TrafficMatrix tm{{NodeId{0u}, NodeId{2u}, 1.0}};
    EXPECT_DOUBLE_EQ(max_concurrent_flow(sg, tm, 0.1).lambda, 0.0);
}

TEST(ConcurrentFlow, EmptyMatrixIsInfinitelyFeasible) {
    Graph g = test::triangle();
    Subgraph sg(g);
    EXPECT_TRUE(std::isinf(max_concurrent_flow(sg, {}, 0.1).lambda));
}

TEST(ConcurrentFlow, LambdaScalesInverselyWithDemand) {
    Graph g = test::chain(2, 10.0);
    Subgraph sg(g);
    const auto r1 = max_concurrent_flow(sg, {{NodeId{0u}, NodeId{1u}, 5.0}}, 0.05);
    const auto r2 = max_concurrent_flow(sg, {{NodeId{0u}, NodeId{1u}, 10.0}}, 0.05);
    EXPECT_NEAR(r1.lambda / r2.lambda, 2.0, 0.2);
}

TEST(ConcurrentFlow, ExclusionsRespected) {
    Graph g = test::triangle();
    Subgraph sg(g);
    TrafficMatrix tm{{NodeId{0u}, NodeId{2u}, 2.0}};
    CommodityExclusions excl{{LinkId{0u}, LinkId{1u}}};  // only direct allowed
    const auto r = max_concurrent_flow(sg, tm, 0.1, &excl);
    EXPECT_GT(r.lambda, 0.0);
    for (const auto& [path, rate] : r.routing.routes[0]) {
        ASSERT_EQ(path.size(), 1u);
        EXPECT_EQ(path[0], LinkId{2u});
    }
}

TEST(IsRoutable, AgreesWithObviousCases) {
    Graph g = test::triangle();
    Subgraph sg(g);
    EXPECT_TRUE(is_routable(sg, {{NodeId{0u}, NodeId{2u}, 8.0}}));
    EXPECT_FALSE(is_routable(sg, {{NodeId{0u}, NodeId{2u}, 50.0}}));
}

TEST(IsRoutable, FptasFallbackCatchesGreedyMisses) {
    // Two commodities that fit fractionally but can defeat a greedy
    // order: cross traffic on a ring near capacity.
    Graph g = test::ring(4, 10.0);
    Subgraph sg(g);
    TrafficMatrix tm{{NodeId{0u}, NodeId{2u}, 19.0}};
    // Max flow 0->2 is 20 (two 2-hop paths of cap 10): feasible.
    EXPECT_TRUE(is_routable(sg, tm, 0.05));
}

}  // namespace
}  // namespace poc::net
