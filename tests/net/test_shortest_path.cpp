#include "net/shortest_path.hpp"

#include <gtest/gtest.h>

#include "helpers/graphs.hpp"
#include "util/contracts.hpp"

namespace poc::net {
namespace {

TEST(Dijkstra, TriangleShortestByLength) {
    Graph g = test::triangle();
    Subgraph sg(g);
    const auto tree = dijkstra(sg, NodeId{0u}, weight_by_length(g));
    // 0->2 direct costs 3; via 1 costs 2.
    EXPECT_DOUBLE_EQ(tree.dist[2], 2.0);
    const auto path = tree.path_to(NodeId{2u});
    ASSERT_EQ(path.size(), 2u);
    EXPECT_EQ(path[0], LinkId{0u});
    EXPECT_EQ(path[1], LinkId{1u});
}

TEST(Dijkstra, UnitWeightPrefersFewerHops) {
    Graph g = test::triangle();
    Subgraph sg(g);
    const auto tree = dijkstra(sg, NodeId{0u}, weight_unit());
    EXPECT_DOUBLE_EQ(tree.dist[2], 1.0);  // direct link, one hop
}

TEST(Dijkstra, UnreachableReportsInfinity) {
    GraphBuilder gb;
    gb.add_nodes(3);
    gb.add_link(NodeId{0u}, NodeId{1u}, 1.0, 1.0);
    const Graph g = std::move(gb).build();
    Subgraph sg(g);
    const auto tree = dijkstra(sg, NodeId{0u}, weight_unit());
    EXPECT_FALSE(tree.reachable(NodeId{2u}));
    EXPECT_THROW(tree.path_to(NodeId{2u}), util::ContractViolation);
}

TEST(Dijkstra, RespectsInactiveLinks) {
    Graph g = test::triangle();
    Subgraph sg(g);
    sg.set_active(LinkId{0u}, false);  // cut 0-1
    const auto tree = dijkstra(sg, NodeId{0u}, weight_by_length(g));
    EXPECT_DOUBLE_EQ(tree.dist[2], 3.0);  // forced direct
    EXPECT_DOUBLE_EQ(tree.dist[1], 4.0);  // 0-2-1
}

TEST(Dijkstra, SourceDistanceZero) {
    Graph g = test::triangle();
    Subgraph sg(g);
    const auto tree = dijkstra(sg, NodeId{1u}, weight_unit());
    EXPECT_DOUBLE_EQ(tree.dist[1], 0.0);
    EXPECT_TRUE(tree.path_to(NodeId{1u}).empty());
}

TEST(Dijkstra, RejectsNegativeWeights) {
    Graph g = test::triangle();
    Subgraph sg(g);
    EXPECT_THROW(dijkstra(sg, NodeId{0u}, [](LinkId) { return -1.0; }),
                 util::ContractViolation);
}

TEST(BellmanFord, MatchesKnownDistances) {
    Graph g = test::triangle();
    Subgraph sg(g);
    const auto tree = bellman_ford(sg, NodeId{0u}, weight_by_length(g));
    ASSERT_TRUE(tree.has_value());
    EXPECT_DOUBLE_EQ(tree->dist[2], 2.0);
}

TEST(BellmanFord, DetectsNegativeCycle) {
    Graph g = test::triangle();
    Subgraph sg(g);
    const auto tree = bellman_ford(sg, NodeId{0u}, [](LinkId) { return -1.0; });
    EXPECT_FALSE(tree.has_value());
}

TEST(BellmanFord, HandlesNegativeWeightsWithoutCycle) {
    // Chain where one link has negative weight; undirected graphs with a
    // negative link always have a negative cycle (traverse back and
    // forth), so Bellman-Ford must reject it.
    Graph g = test::chain(3);
    Subgraph sg(g);
    const auto tree = bellman_ford(sg, NodeId{0u},
                                   [](LinkId l) { return l.index() == 0 ? -2.0 : 1.0; });
    EXPECT_FALSE(tree.has_value());
}

class SpEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SpEquivalence, DijkstraEqualsBellmanFordOnRandomGraphs) {
    util::Rng rng(GetParam());
    Graph g = test::random_connected(rng, 12, 10);
    Subgraph sg(g);
    const auto w = weight_by_length(g);
    for (std::size_t src = 0; src < 3; ++src) {
        const auto d = dijkstra(sg, NodeId{src}, w);
        const auto bf = bellman_ford(sg, NodeId{src}, w);
        ASSERT_TRUE(bf.has_value());
        for (std::size_t v = 0; v < g.node_count(); ++v) {
            EXPECT_NEAR(d.dist[v], bf->dist[v], 1e-9) << "node " << v;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpEquivalence, ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(ShortestPath, ReturnsWeightedPath) {
    Graph g = test::triangle();
    Subgraph sg(g);
    const auto wp = shortest_path(sg, NodeId{0u}, NodeId{2u}, weight_by_length(g));
    ASSERT_TRUE(wp.has_value());
    EXPECT_DOUBLE_EQ(wp->weight, 2.0);
    EXPECT_EQ(wp->links.size(), 2u);
}

TEST(ShortestPath, NulloptWhenDisconnected) {
    GraphBuilder gb;
    gb.add_nodes(2);
    const Graph g = std::move(gb).build();
    Subgraph sg(g);
    EXPECT_FALSE(shortest_path(sg, NodeId{0u}, NodeId{1u}, weight_unit()).has_value());
}

TEST(PathNodes, WalksLinkSequence) {
    Graph g = test::triangle();
    const std::vector<LinkId> path{LinkId{0u}, LinkId{1u}};
    const auto nodes = path_nodes(g, NodeId{0u}, path);
    ASSERT_EQ(nodes.size(), 3u);
    EXPECT_EQ(nodes[0], NodeId{0u});
    EXPECT_EQ(nodes[1], NodeId{1u});
    EXPECT_EQ(nodes[2], NodeId{2u});
}

TEST(PathNodes, ThrowsOnBrokenWalk) {
    Graph g = test::triangle();
    // Link 1 (1-2) does not touch node 0.
    EXPECT_THROW(path_nodes(g, NodeId{0u}, {LinkId{1u}, LinkId{1u}}),
                 util::ContractViolation);
}

TEST(Dijkstra, PathReconstructionConsistentWithDistance) {
    util::Rng rng(99);
    Graph g = test::random_connected(rng, 15, 12);
    Subgraph sg(g);
    const auto w = weight_by_length(g);
    const auto tree = dijkstra(sg, NodeId{0u}, w);
    for (std::size_t v = 1; v < g.node_count(); ++v) {
        ASSERT_TRUE(tree.reachable(NodeId{v}));
        double sum = 0.0;
        for (const LinkId l : tree.path_to(NodeId{v})) sum += w(l);
        EXPECT_NEAR(sum, tree.dist[v], 1e-9);
    }
}

}  // namespace
}  // namespace poc::net
