#include "net/ksp.hpp"

#include <gtest/gtest.h>

#include <set>

#include "helpers/graphs.hpp"
#include "net/shortest_path.hpp"

namespace poc::net {
namespace {

/// Diamond: 0-1-3 (cost 2), 0-2-3 (cost 3), plus direct 0-3 (cost 4).
Graph diamond() {
    GraphBuilder gb;
    gb.add_nodes(4);
    gb.add_link(NodeId{0u}, NodeId{1u}, 10.0, 1.0);  // link 0
    gb.add_link(NodeId{1u}, NodeId{3u}, 10.0, 1.0);  // link 1
    gb.add_link(NodeId{0u}, NodeId{2u}, 10.0, 1.0);  // link 2
    gb.add_link(NodeId{2u}, NodeId{3u}, 10.0, 2.0);  // link 3
    gb.add_link(NodeId{0u}, NodeId{3u}, 10.0, 4.0);  // link 4
    return std::move(gb).build();
}

TEST(Yen, FindsPathsInWeightOrder) {
    Graph g = diamond();
    Subgraph sg(g);
    const auto paths = yen_k_shortest(sg, NodeId{0u}, NodeId{3u}, weight_by_length(g), 3);
    ASSERT_EQ(paths.size(), 3u);
    EXPECT_DOUBLE_EQ(paths[0].weight, 2.0);
    EXPECT_DOUBLE_EQ(paths[1].weight, 3.0);
    EXPECT_DOUBLE_EQ(paths[2].weight, 4.0);
    EXPECT_EQ(paths[0].links, (std::vector<LinkId>{LinkId{0u}, LinkId{1u}}));
    EXPECT_EQ(paths[2].links, (std::vector<LinkId>{LinkId{4u}}));
}

TEST(Yen, ReturnsFewerWhenPathSpaceExhausted) {
    Graph g = diamond();
    Subgraph sg(g);
    const auto paths = yen_k_shortest(sg, NodeId{0u}, NodeId{3u}, weight_by_length(g), 10);
    EXPECT_EQ(paths.size(), 3u);  // only 3 loopless paths exist
}

TEST(Yen, SinglePathGraph) {
    Graph g = test::chain(4);
    Subgraph sg(g);
    const auto paths = yen_k_shortest(sg, NodeId{0u}, NodeId{3u}, weight_unit(), 5);
    ASSERT_EQ(paths.size(), 1u);
    EXPECT_EQ(paths[0].links.size(), 3u);
}

TEST(Yen, DisconnectedYieldsEmpty) {
    GraphBuilder gb;
    gb.add_nodes(2);
    const Graph g = std::move(gb).build();
    Subgraph sg(g);
    EXPECT_TRUE(yen_k_shortest(sg, NodeId{0u}, NodeId{1u}, weight_unit(), 3).empty());
}

TEST(Yen, PathsAreLoopless) {
    util::Rng rng(5);
    Graph g = test::random_connected(rng, 10, 12);
    Subgraph sg(g);
    const auto paths = yen_k_shortest(sg, NodeId{0u}, NodeId{9u}, weight_by_length(g), 6);
    ASSERT_FALSE(paths.empty());
    for (const auto& wp : paths) {
        const auto nodes = path_nodes(g, NodeId{0u}, wp.links);
        std::set<NodeId> unique(nodes.begin(), nodes.end());
        EXPECT_EQ(unique.size(), nodes.size()) << "loop detected";
        EXPECT_EQ(nodes.back(), NodeId{9u});
    }
}

TEST(Yen, PathsAreDistinctAndSorted) {
    util::Rng rng(6);
    Graph g = test::random_connected(rng, 10, 14);
    Subgraph sg(g);
    const auto paths = yen_k_shortest(sg, NodeId{0u}, NodeId{7u}, weight_by_length(g), 8);
    for (std::size_t i = 0; i + 1 < paths.size(); ++i) {
        EXPECT_LE(paths[i].weight, paths[i + 1].weight + 1e-12);
        EXPECT_NE(paths[i].links, paths[i + 1].links);
    }
}

TEST(Yen, FirstPathMatchesDijkstra) {
    util::Rng rng(7);
    Graph g = test::random_connected(rng, 12, 10);
    Subgraph sg(g);
    const auto w = weight_by_length(g);
    const auto paths = yen_k_shortest(sg, NodeId{1u}, NodeId{8u}, w, 1);
    const auto sp = shortest_path(sg, NodeId{1u}, NodeId{8u}, w);
    ASSERT_EQ(paths.size(), 1u);
    ASSERT_TRUE(sp.has_value());
    EXPECT_NEAR(paths[0].weight, sp->weight, 1e-12);
}

TEST(Yen, ParallelLinksCountAsDistinctPaths) {
    GraphBuilder gb;
    gb.add_nodes(2);
    gb.add_link(NodeId{0u}, NodeId{1u}, 1.0, 1.0);
    gb.add_link(NodeId{0u}, NodeId{1u}, 1.0, 2.0);
    const Graph g = std::move(gb).build();
    Subgraph sg(g);
    const auto paths = yen_k_shortest(sg, NodeId{0u}, NodeId{1u}, weight_by_length(g), 3);
    ASSERT_EQ(paths.size(), 2u);
    EXPECT_DOUBLE_EQ(paths[0].weight, 1.0);
    EXPECT_DOUBLE_EQ(paths[1].weight, 2.0);
}

TEST(Yen, RejectsBadArguments) {
    Graph g = test::chain(2);
    Subgraph sg(g);
    EXPECT_THROW(yen_k_shortest(sg, NodeId{0u}, NodeId{0u}, weight_unit(), 2),
                 util::ContractViolation);
    EXPECT_THROW(yen_k_shortest(sg, NodeId{0u}, NodeId{1u}, weight_unit(), 0),
                 util::ContractViolation);
}

}  // namespace
}  // namespace poc::net
