#include "net/ksp.hpp"

#include <gtest/gtest.h>

#include <algorithm>
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

/// Weights of every loopless src->dst path over the active links, by
/// depth-first search, ascending.
std::vector<double> all_loopless_weights(const Subgraph& sg, const LinkWeight& w, NodeId src,
                                         NodeId dst) {
    const Graph& g = sg.graph();
    std::vector<double> out;
    std::vector<char> on_path(g.node_count(), 0);
    const auto dfs = [&](const auto& self, NodeId u, double weight) -> void {
        if (u == dst) {
            out.push_back(weight);
            return;
        }
        on_path[u.index()] = 1;
        for (const LinkId l : g.incident(u)) {
            const NodeId v = g.link(l).other(u);
            if (sg.is_active(l) && on_path[v.index()] == 0) self(self, v, weight + w(l));
        }
        on_path[u.index()] = 0;
    };
    dfs(dfs, src, 0.0);
    std::sort(out.begin(), out.end());
    return out;
}

/// Draw up to k paths from a YenEnumerator over `sg` with weight `w`,
/// checking after each draw that the paths so far equal
/// yen_k_shortest(..., i), and that their weights are the smallest of
/// all loopless paths (integer lengths, so sums are exact). Returns how
/// many paths were drawn.
std::size_t expect_enumerator_prefixes(const Subgraph& sg, YenEnumerator& yen,
                                       const LinkWeight& w, NodeId src, NodeId dst,
                                       std::size_t k) {
    yen.start(src, dst);
    std::vector<WeightedPath> drawn;
    for (std::size_t i = 1; i <= k; ++i) {
        const WeightedPath* p = yen.next();
        if (p != nullptr) drawn.push_back(*p);
        const auto expected = yen_k_shortest(sg, src, dst, w, i);
        EXPECT_EQ(expected.size(), drawn.size()) << "i=" << i;
        for (std::size_t j = 0; j < std::min(expected.size(), drawn.size()); ++j) {
            EXPECT_EQ(expected[j].links, drawn[j].links) << "i=" << i << " path " << j;
            EXPECT_EQ(expected[j].weight, drawn[j].weight) << "i=" << i << " path " << j;
        }
    }
    if (drawn.size() < k) {
        EXPECT_EQ(yen.next(), nullptr);  // an exhausted sequence stays exhausted
    }
    const std::vector<double> brute = all_loopless_weights(sg, w, src, dst);
    EXPECT_EQ(std::min(brute.size(), k), drawn.size());
    for (std::size_t j = 0; j < std::min(brute.size(), drawn.size()); ++j) {
        EXPECT_EQ(brute[j], drawn[j].weight) << "path " << j;
    }
    return drawn.size();
}

TEST(YenEnumerator, PrefixesMatchYenKShortest) {
    // A multigraph with equal-length parallel links (ties broken on
    // link id) and a partly masked view, enumerated pair after pair by
    // one enumerator; the view must come back unchanged.
    util::Rng rng(31);
    GraphBuilder gb;
    gb.add_nodes(9);
    for (std::size_t e = 0; e < 18; ++e) {
        const auto a = static_cast<std::size_t>(rng.uniform_int(9));
        const auto b = (a + 1 + static_cast<std::size_t>(rng.uniform_int(8))) % 9;
        const double len = static_cast<double>(1 + rng.uniform_int(3));
        gb.add_link(NodeId{a}, NodeId{b}, 10.0, len);
        if (rng.uniform(0.0, 1.0) < 0.6) gb.add_link(NodeId{a}, NodeId{b}, 10.0, len);
    }
    const Graph g = std::move(gb).build();
    Subgraph sg(g);
    for (const LinkId l : g.all_links()) {
        if (rng.uniform(0.0, 1.0) < 0.15) sg.set_active(l, false);
    }
    const LinkWeight w = weight_by_length(g);
    std::vector<double> flat(g.link_count(), 0.0);
    for (const LinkId l : sg.active_links()) flat[l.index()] = w(l);
    Subgraph view = sg;
    const ActiveAdjacency adj(sg);
    SsspWorkspace ws;
    YenEnumerator yen(view, adj, flat, ws);
    std::size_t full = 0;
    for (std::size_t s = 0; s < 3; ++s) {
        for (std::size_t t = s + 1; t < g.node_count(); ++t) {
            if (expect_enumerator_prefixes(sg, yen, w, NodeId{s}, NodeId{t}, 6) == 6) ++full;
            EXPECT_EQ(view.fingerprint(), sg.fingerprint());
            EXPECT_EQ(view.active_count(), sg.active_count());
        }
    }
    EXPECT_GT(full, 0u);
}

TEST(YenEnumerator, StopsWhenFewerThanKPathsExist) {
    Graph g = diamond();
    Subgraph sg(g);
    const LinkWeight w = weight_by_length(g);
    std::vector<double> flat(g.link_count());
    for (std::size_t l = 0; l < flat.size(); ++l) flat[l] = w(LinkId{l});
    Subgraph view = sg;
    const ActiveAdjacency adj(sg);
    SsspWorkspace ws;
    YenEnumerator yen(view, adj, flat, ws);
    // Only 3 loopless 0->3 paths exist; later draws stay exhausted.
    EXPECT_EQ(expect_enumerator_prefixes(sg, yen, w, NodeId{0u}, NodeId{3u}, 6), 3u);
    EXPECT_EQ(yen.next(), nullptr);
    // A restart forgets the exhausted sequence.
    EXPECT_EQ(expect_enumerator_prefixes(sg, yen, w, NodeId{3u}, NodeId{0u}, 2), 2u);
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
