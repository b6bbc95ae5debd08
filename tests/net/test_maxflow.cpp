#include "net/maxflow.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "helpers/graphs.hpp"
#include "net/connectivity.hpp"

namespace poc::net {
namespace {

TEST(MaxFlow, ClassicInstance) {
    // The CLRS example gives 23 in its directed form; our links are
    // undirected, which can only increase the value. Verify against the
    // min cut instead: this undirected version's s-side cut {0} caps at
    // 16+13 = 29; compute and cross-check with min-cut reachability.
    Graph g = test::maxflow_classic();
    Subgraph sg(g);
    const auto r = max_flow(sg, NodeId{0u}, NodeId{5u});
    EXPECT_GT(r.value, 0.0);
    EXPECT_LE(r.value, 29.0 + 1e-9);
    // Sink-side neighbors cut: links into 5 are 20 + 4 = 24.
    EXPECT_LE(r.value, 24.0 + 1e-9);
}

TEST(MaxFlow, ChainBottleneck) {
    GraphBuilder gb;
    gb.add_nodes(3);
    gb.add_link(NodeId{0u}, NodeId{1u}, 7.0, 1.0);
    gb.add_link(NodeId{1u}, NodeId{2u}, 3.0, 1.0);
    const Graph g = std::move(gb).build();
    Subgraph sg(g);
    EXPECT_NEAR(max_flow(sg, NodeId{0u}, NodeId{2u}).value, 3.0, 1e-9);
}

TEST(MaxFlow, ParallelLinksAdd) {
    GraphBuilder gb;
    gb.add_nodes(2);
    gb.add_link(NodeId{0u}, NodeId{1u}, 2.0, 1.0);
    gb.add_link(NodeId{0u}, NodeId{1u}, 5.0, 1.0);
    const Graph g = std::move(gb).build();
    Subgraph sg(g);
    EXPECT_NEAR(max_flow(sg, NodeId{0u}, NodeId{1u}).value, 7.0, 1e-9);
}

TEST(MaxFlow, DisconnectedIsZero) {
    GraphBuilder gb;
    gb.add_nodes(2);
    const Graph g = std::move(gb).build();
    Subgraph sg(g);
    EXPECT_DOUBLE_EQ(max_flow(sg, NodeId{0u}, NodeId{1u}).value, 0.0);
}

TEST(MaxFlow, RingHasTwoPaths) {
    Graph g = test::ring(6, 4.0);
    Subgraph sg(g);
    // Both directions around the ring: 2 * 4.
    EXPECT_NEAR(max_flow(sg, NodeId{0u}, NodeId{3u}).value, 8.0, 1e-9);
}

TEST(MaxFlow, SourceSideIsValidCut) {
    Graph g = test::maxflow_classic();
    Subgraph sg(g);
    const auto r = max_flow(sg, NodeId{0u}, NodeId{5u});
    // Source side contains source, not sink.
    bool has_src = false;
    bool has_dst = false;
    for (const NodeId n : r.source_side) {
        has_src |= n == NodeId{0u};
        has_dst |= n == NodeId{5u};
    }
    EXPECT_TRUE(has_src);
    EXPECT_FALSE(has_dst);
}

TEST(MaxFlow, MinCutEqualsMaxFlowOnRandomGraphs) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        util::Rng rng(seed);
        Graph g = test::random_connected(rng, 10, 12);
        Subgraph sg(g);
        const auto r = max_flow(sg, NodeId{0u}, NodeId{9u});
        // Capacity of the cut induced by source_side must equal value.
        std::vector<bool> in_s(g.node_count(), false);
        for (const NodeId n : r.source_side) in_s[n.index()] = true;
        double cut_cap = 0.0;
        for (const LinkId lid : g.all_links()) {
            const Link& l = g.link(lid);
            if (in_s[l.a.index()] != in_s[l.b.index()]) cut_cap += l.capacity_gbps;
        }
        EXPECT_NEAR(r.value, cut_cap, 1e-6) << "seed " << seed;
    }
}

TEST(MaxFlow, FlowConservationAtInteriorNodes) {
    util::Rng rng(17);
    Graph g = test::random_connected(rng, 8, 10);
    Subgraph sg(g);
    const auto r = max_flow(sg, NodeId{0u}, NodeId{7u});
    std::vector<double> net_out(g.node_count(), 0.0);
    for (const LinkFlow& f : r.flows) {
        const Link& l = g.link(f.link);
        net_out[l.a.index()] += f.flow;
        net_out[l.b.index()] -= f.flow;
    }
    for (std::size_t v = 0; v < g.node_count(); ++v) {
        if (v == 0) {
            EXPECT_NEAR(net_out[v], r.value, 1e-6);
        } else if (v == 7) {
            EXPECT_NEAR(net_out[v], -r.value, 1e-6);
        } else {
            EXPECT_NEAR(net_out[v], 0.0, 1e-6);
        }
    }
}

TEST(MaxFlow, FlowsRespectCapacities) {
    util::Rng rng(23);
    Graph g = test::random_connected(rng, 8, 12);
    Subgraph sg(g);
    const auto r = max_flow(sg, NodeId{0u}, NodeId{5u});
    for (const LinkFlow& f : r.flows) {
        EXPECT_LE(std::abs(f.flow), g.link(f.link).capacity_gbps + 1e-9);
    }
}

TEST(LinkDisjointPaths, CountsMengerStyle) {
    Graph g = test::ring(5);
    Subgraph sg(g);
    EXPECT_EQ(link_disjoint_path_count(sg, NodeId{0u}, NodeId{2u}), 2u);
    Graph c = test::chain(4);
    Subgraph sc(c);
    EXPECT_EQ(link_disjoint_path_count(sc, NodeId{0u}, NodeId{3u}), 1u);
}

TEST(LinkDisjointPaths, InactiveLinksReduceCount) {
    Graph g = test::ring(5);
    Subgraph sg(g);
    sg.set_active(LinkId{0u}, false);
    EXPECT_EQ(link_disjoint_path_count(sg, NodeId{0u}, NodeId{2u}), 1u);
}

TEST(MinCut, MatchesMaxFlowValue) {
    Graph g = test::maxflow_classic();
    Subgraph sg(g);
    EXPECT_NEAR(min_cut_capacity(sg, NodeId{0u}, NodeId{5u}),
                max_flow(sg, NodeId{0u}, NodeId{5u}).value, 1e-9);
}

TEST(MaxFlow, RejectsEqualEndpoints) {
    Graph g = test::chain(2);
    Subgraph sg(g);
    EXPECT_THROW(max_flow(sg, NodeId{0u}, NodeId{0u}), util::ContractViolation);
}

}  // namespace
}  // namespace poc::net
