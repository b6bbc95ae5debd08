#include "net/connectivity.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "helpers/graphs.hpp"

namespace poc::net {
namespace {

TEST(Components, SingleComponentOnRing) {
    Graph g = test::ring(5);
    Subgraph sg(g);
    const auto comp = connected_components(sg);
    EXPECT_EQ(comp.count, 1u);
    EXPECT_TRUE(comp.same(NodeId{0u}, NodeId{4u}));
}

TEST(Components, SplitsWhenLinkDeactivated) {
    Graph g = test::chain(4);
    Subgraph sg(g);
    sg.set_active(LinkId{1u}, false);  // cut 1-2
    const auto comp = connected_components(sg);
    EXPECT_EQ(comp.count, 2u);
    EXPECT_TRUE(comp.same(NodeId{0u}, NodeId{1u}));
    EXPECT_FALSE(comp.same(NodeId{1u}, NodeId{2u}));
}

TEST(Components, IsolatedNodesAreOwnComponents) {
    GraphBuilder gb;
    gb.add_nodes(3);
    gb.add_link(NodeId{0u}, NodeId{1u}, 1.0, 1.0);
    const Graph g = std::move(gb).build();
    Subgraph sg(g);
    EXPECT_EQ(connected_components(sg).count, 2u);
}

TEST(AllPairsConnected, TracksDemandEndpoints) {
    Graph g = test::chain(4);
    Subgraph sg(g);
    TrafficMatrix tm{{NodeId{0u}, NodeId{3u}, 1.0}};
    EXPECT_TRUE(all_pairs_connected(sg, tm));
    sg.set_active(LinkId{2u}, false);
    EXPECT_FALSE(all_pairs_connected(sg, tm));
}

TEST(AllPairsConnected, IgnoresZeroDemands) {
    GraphBuilder gb;
    gb.add_nodes(3);
    gb.add_link(NodeId{0u}, NodeId{1u}, 1.0, 1.0);
    const Graph g = std::move(gb).build();
    Subgraph sg(g);
    TrafficMatrix tm{{NodeId{0u}, NodeId{2u}, 0.0}};
    EXPECT_TRUE(all_pairs_connected(sg, tm));
}

TEST(SpanningConnected, IgnoresIsolatedNodes) {
    GraphBuilder gb;
    gb.add_nodes(4);
    gb.add_link(NodeId{0u}, NodeId{1u}, 1.0, 1.0);
    gb.add_link(NodeId{1u}, NodeId{2u}, 1.0, 1.0);
    // Node 3 has no links at all: not a partition.
    const Graph g = std::move(gb).build();
    Subgraph sg(g);
    EXPECT_TRUE(spanning_connected(sg));
}

TEST(SpanningConnected, DetectsPartition) {
    GraphBuilder gb;
    gb.add_nodes(4);
    gb.add_link(NodeId{0u}, NodeId{1u}, 1.0, 1.0);
    gb.add_link(NodeId{2u}, NodeId{3u}, 1.0, 1.0);
    const Graph g = std::move(gb).build();
    Subgraph sg(g);
    EXPECT_FALSE(spanning_connected(sg));
}

TEST(Bridges, ChainIsAllBridges) {
    Graph g = test::chain(4);
    Subgraph sg(g);
    EXPECT_EQ(find_bridges(sg).size(), 3u);
}

TEST(Bridges, RingHasNone) {
    Graph g = test::ring(5);
    Subgraph sg(g);
    EXPECT_TRUE(find_bridges(sg).empty());
}

TEST(Bridges, ParallelLinksAreNotBridges) {
    GraphBuilder gb;
    gb.add_nodes(3);
    gb.add_link(NodeId{0u}, NodeId{1u}, 1.0, 1.0);
    gb.add_link(NodeId{0u}, NodeId{1u}, 1.0, 1.0);  // parallel
    gb.add_link(NodeId{1u}, NodeId{2u}, 1.0, 1.0);  // bridge
    const Graph g = std::move(gb).build();
    Subgraph sg(g);
    const auto bridges = find_bridges(sg);
    ASSERT_EQ(bridges.size(), 1u);
    EXPECT_EQ(bridges[0], LinkId{2u});
}

TEST(Bridges, BarbellMiddleLink) {
    // Two triangles joined by one link: only the joiner is a bridge.
    GraphBuilder gb;
    gb.add_nodes(6);
    gb.add_link(NodeId{0u}, NodeId{1u}, 1.0, 1.0);
    gb.add_link(NodeId{1u}, NodeId{2u}, 1.0, 1.0);
    gb.add_link(NodeId{2u}, NodeId{0u}, 1.0, 1.0);
    gb.add_link(NodeId{3u}, NodeId{4u}, 1.0, 1.0);
    gb.add_link(NodeId{4u}, NodeId{5u}, 1.0, 1.0);
    gb.add_link(NodeId{5u}, NodeId{3u}, 1.0, 1.0);
    const LinkId joiner = gb.add_link(NodeId{2u}, NodeId{3u}, 1.0, 1.0);
    const Graph g = std::move(gb).build();
    Subgraph sg(g);
    const auto bridges = find_bridges(sg);
    ASSERT_EQ(bridges.size(), 1u);
    EXPECT_EQ(bridges[0], joiner);
}

TEST(Bridges, RespectsInactiveLinks) {
    Graph g = test::ring(4);
    Subgraph sg(g);
    sg.set_active(LinkId{0u}, false);  // ring becomes a chain
    EXPECT_EQ(find_bridges(sg).size(), 3u);
}

TEST(Bridges, DeepChainDoesNotOverflow) {
    Graph g = test::chain(20'000);
    Subgraph sg(g);
    EXPECT_EQ(find_bridges(sg).size(), 19'999u);  // iterative, no recursion
}

}  // namespace
}  // namespace poc::net
