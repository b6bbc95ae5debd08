#include "net/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <latch>
#include <thread>
#include <utility>
#include <vector>

#include "helpers/graphs.hpp"
#include "net/shortest_path.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace poc::net {
namespace {

TEST(Graph, AddNodesAndLabels) {
    GraphBuilder b;
    const NodeId a = b.add_node("alpha");
    const NodeId c = b.add_node();
    const Graph g = std::move(b).build();
    EXPECT_EQ(g.node_count(), 2u);
    EXPECT_EQ(g.node_label(a), "alpha");
    EXPECT_EQ(g.node_label(c), "");
}

TEST(Graph, AddNodesBulkReturnsFirstId) {
    GraphBuilder b;
    b.add_node("first");
    const NodeId start = b.add_nodes(5);
    EXPECT_EQ(start.index(), 1u);
    EXPECT_EQ(b.node_count(), 6u);
    EXPECT_EQ(std::move(b).build().node_count(), 6u);
}

TEST(Graph, AddLinkStoresAttributes) {
    const Graph g = test::triangle();
    const Link& l = g.link(LinkId{2u});
    EXPECT_EQ(l.a, NodeId{0u});
    EXPECT_EQ(l.b, NodeId{2u});
    EXPECT_DOUBLE_EQ(l.capacity_gbps, 5.0);
    EXPECT_DOUBLE_EQ(l.length_km, 3.0);
}

TEST(Graph, LinkOtherEndpoint) {
    const Graph g = test::triangle();
    const Link& l = g.link(LinkId{0u});
    EXPECT_EQ(l.other(NodeId{0u}), NodeId{1u});
    EXPECT_EQ(l.other(NodeId{1u}), NodeId{0u});
    EXPECT_THROW(l.other(NodeId{2u}), util::ContractViolation);
}

TEST(Graph, RejectsSelfLoopAndBadCapacity) {
    GraphBuilder g;
    const NodeId a = g.add_node();
    const NodeId b = g.add_node();
    EXPECT_THROW(g.add_link(a, a, 1.0, 1.0), util::ContractViolation);
    EXPECT_THROW(g.add_link(a, b, 0.0, 1.0), util::ContractViolation);
    EXPECT_THROW(g.add_link(a, b, 1.0, -1.0), util::ContractViolation);
}

TEST(Graph, RejectsUnknownEndpoints) {
    GraphBuilder g;
    const NodeId a = g.add_node();
    EXPECT_THROW(g.add_link(a, NodeId{5u}, 1.0, 1.0), util::ContractViolation);
}

TEST(Graph, ParallelLinksAllowed) {
    GraphBuilder b;
    const NodeId a = b.add_node();
    const NodeId c = b.add_node();
    b.add_link(a, c, 1.0, 1.0);
    b.add_link(a, c, 2.0, 2.0);
    const Graph g = std::move(b).build();
    EXPECT_EQ(g.link_count(), 2u);
    EXPECT_EQ(g.incident(a).size(), 2u);
}

TEST(Graph, IncidentListsAllTouchingLinks) {
    const Graph g = test::triangle();
    const auto inc1 = g.incident(NodeId{1u});
    EXPECT_EQ(inc1.size(), 2u);
    // Links 0 (0-1) and 1 (1-2).
    std::vector<LinkId> ids(inc1.begin(), inc1.end());
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(ids[0], LinkId{0u});
    EXPECT_EQ(ids[1], LinkId{1u});
}

TEST(Graph, EmptyBuildHasNoNodesOrLinks) {
    const Graph g = GraphBuilder{}.build();
    EXPECT_EQ(g.node_count(), 0u);
    EXPECT_EQ(g.link_count(), 0u);
    EXPECT_TRUE(g.all_links().empty());
    EXPECT_TRUE(g.link_soa().a.empty());
}

TEST(Graph, AllLinksInInsertionOrder) {
    Graph g = test::triangle();
    const auto links = g.all_links();
    ASSERT_EQ(links.size(), 3u);
    EXPECT_EQ(links[0], LinkId{0u});
    EXPECT_EQ(links[2], LinkId{2u});
}

TEST(Subgraph, FullViewActivatesEverything) {
    Graph g = test::triangle();
    Subgraph sg(g);
    EXPECT_EQ(sg.active_count(), 3u);
    EXPECT_TRUE(sg.is_active(LinkId{0u}));
}

TEST(Subgraph, RestrictedViewActivatesSubset) {
    Graph g = test::triangle();
    Subgraph sg(g, {LinkId{1u}});
    EXPECT_EQ(sg.active_count(), 1u);
    EXPECT_FALSE(sg.is_active(LinkId{0u}));
    EXPECT_TRUE(sg.is_active(LinkId{1u}));
}

TEST(Subgraph, ToggleMaintainsCount) {
    Graph g = test::triangle();
    Subgraph sg(g);
    sg.set_active(LinkId{0u}, false);
    EXPECT_EQ(sg.active_count(), 2u);
    sg.set_active(LinkId{0u}, false);  // idempotent
    EXPECT_EQ(sg.active_count(), 2u);
    sg.set_active(LinkId{0u}, true);
    EXPECT_EQ(sg.active_count(), 3u);
}

TEST(Subgraph, ActiveLinksSortedById) {
    Graph g = test::triangle();
    Subgraph sg(g, {LinkId{2u}, LinkId{0u}});
    const auto links = sg.active_links();
    ASSERT_EQ(links.size(), 2u);
    EXPECT_EQ(links[0], LinkId{0u});
    EXPECT_EQ(links[1], LinkId{2u});
}

TEST(SubgraphFingerprint, OrderIndependent) {
    util::Rng rng(101);
    Graph g = test::random_connected(rng, 20, 15);
    const auto links = g.all_links();

    // Build the same active set three ways: constructor list, forward
    // toggling, and shuffled toggling. All must agree.
    std::vector<LinkId> keep;
    for (const LinkId l : links) {
        if (rng.uniform(0.0, 1.0) < 0.6) keep.push_back(l);
    }
    const Subgraph direct(g, keep);

    Subgraph forward(g);
    for (const LinkId l : links) {
        forward.set_active(l, false);
    }
    for (const LinkId l : keep) forward.set_active(l, true);

    std::vector<LinkId> shuffled_off = links;
    rng.shuffle(shuffled_off);
    Subgraph shuffled(g);
    for (const LinkId l : shuffled_off) shuffled.set_active(l, false);
    std::vector<LinkId> keep_shuffled = keep;
    rng.shuffle(keep_shuffled);
    for (const LinkId l : keep_shuffled) shuffled.set_active(l, true);

    EXPECT_EQ(direct.fingerprint(), forward.fingerprint());
    EXPECT_EQ(direct.fingerprint(), shuffled.fingerprint());
}

TEST(SubgraphFingerprint, SingleToggleChangesAndRestores) {
    Graph g = test::triangle();
    Subgraph sg(g);
    const std::uint64_t full = sg.fingerprint();
    for (const LinkId l : g.all_links()) {
        sg.set_active(l, false);
        EXPECT_NE(sg.fingerprint(), full) << "toggling link " << l.index();
        EXPECT_EQ(sg.fingerprint(), full ^ Subgraph::link_fingerprint(l.index()));
        sg.set_active(l, false);  // idempotent: no double-XOR
        EXPECT_EQ(sg.fingerprint(), full ^ Subgraph::link_fingerprint(l.index()));
        sg.set_active(l, true);
        EXPECT_EQ(sg.fingerprint(), full);
    }
}

TEST(SubgraphFingerprint, EmptyViewIsZeroAndFullIsXorOfLinks) {
    Graph g = test::triangle();
    const Subgraph empty(g, {});
    EXPECT_EQ(empty.fingerprint(), 0u);
    std::uint64_t expected = 0;
    for (const LinkId l : g.all_links()) {
        expected ^= Subgraph::link_fingerprint(l.index());
    }
    EXPECT_EQ(Subgraph(g).fingerprint(), expected);
}

TEST(SubgraphFingerprint, RandomMaskCollisionSanity) {
    // 64-bit XOR fingerprints over distinct random masks: any collision
    // among a few thousand draws would signal a broken per-link mix.
    util::Rng rng(103);
    Graph g = test::random_connected(rng, 40, 40);
    const auto links = g.all_links();

    std::vector<std::uint64_t> seen;
    std::vector<std::vector<char>> masks;
    for (int i = 0; i < 2000; ++i) {
        std::vector<char> mask(links.size());
        std::vector<LinkId> active;
        for (std::size_t j = 0; j < links.size(); ++j) {
            mask[j] = rng.bernoulli(0.5) ? 1 : 0;
            if (mask[j] != 0) active.push_back(links[j]);
        }
        const Subgraph sg(g, active);
        for (std::size_t k = 0; k < seen.size(); ++k) {
            if (seen[k] == sg.fingerprint()) {
                EXPECT_EQ(masks[k], mask) << "distinct masks collided";
            }
        }
        seen.push_back(sg.fingerprint());
        masks.push_back(std::move(mask));
    }
}

TEST(TrafficMatrix, TotalDemandSums) {
    TrafficMatrix tm{{NodeId{0u}, NodeId{1u}, 2.5}, {NodeId{1u}, NodeId{0u}, 1.5}};
    EXPECT_DOUBLE_EQ(total_demand(tm), 4.0);
    EXPECT_DOUBLE_EQ(total_demand({}), 0.0);
}

TEST(Graph, ReservePreservesContentsAndSupportsGrowth) {
    GraphBuilder b;
    b.reserve(100, 300);
    b.add_nodes(100);
    util::Rng rng(17);
    for (std::size_t e = 0; e < 300; ++e) {
        const auto x = static_cast<std::size_t>(rng.uniform_int(std::uint64_t{100}));
        auto y = static_cast<std::size_t>(rng.uniform_int(std::uint64_t{100}));
        if (x == y) y = (y + 1) % 100;
        b.add_link(NodeId{x}, NodeId{y}, 10.0, 1.0);
    }
    EXPECT_EQ(b.node_count(), 100u);
    EXPECT_EQ(b.link_count(), 300u);
    // Growing past the reservation stays valid.
    const NodeId extra = b.add_node("extra");
    b.add_link(NodeId{0u}, extra, 5.0, 2.0);
    const Graph g = std::move(b).build();
    EXPECT_EQ(g.node_count(), 101u);
    EXPECT_EQ(g.link_count(), 301u);
    EXPECT_EQ(g.incident(extra).size(), 1u);
}

/// Every link appears in exactly its two endpoints' incidence lists,
/// and each list is in ascending link id (the order every Dijkstra
/// plateau tie-break depends on, DESIGN.md §7.1).
void expect_csr_matches_links(const Graph& g) {
    std::vector<std::size_t> seen(g.link_count(), 0);
    for (std::size_t v = 0; v < g.node_count(); ++v) {
        const auto inc = g.incident(NodeId{v});
        EXPECT_TRUE(std::is_sorted(inc.begin(), inc.end())) << "node " << v;
        for (const LinkId l : inc) {
            const Link& link = g.link(l);
            EXPECT_TRUE(link.a == NodeId{v} || link.b == NodeId{v});
            ++seen[l.index()];
        }
    }
    for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], 2u) << "link " << i;
}

void expect_soa_mirrors_links(const Graph& g) {
    const LinkSoa soa = g.link_soa();
    ASSERT_EQ(soa.a.size(), g.link_count());
    ASSERT_EQ(soa.b.size(), g.link_count());
    ASSERT_EQ(soa.capacity_gbps.size(), g.link_count());
    ASSERT_EQ(soa.length_km.size(), g.link_count());
    for (const LinkId l : g.all_links()) {
        const Link& link = g.link(l);
        EXPECT_EQ(soa.a[l.index()], link.a.value());
        EXPECT_EQ(soa.b[l.index()], link.b.value());
        EXPECT_EQ(soa.capacity_gbps[l.index()], link.capacity_gbps);
        EXPECT_EQ(soa.length_km[l.index()], link.length_km);
        // other() agrees with the AoS helper from both endpoints.
        EXPECT_EQ(soa.other(l.index(), link.a.value()), link.b.value());
        EXPECT_EQ(soa.other(l.index(), link.b.value()), link.a.value());
    }
}

TEST(GraphBuilder, BuildProducesCsrAndSoaMirroringTheLinkTable) {
    util::Rng rng(19);
    const Graph g = test::random_connected(rng, 30, 20);
    expect_csr_matches_links(g);
    expect_soa_mirrors_links(g);
}

TEST(GraphBuilder, SeededBuilderKeepsIdsAndAppends) {
    // Seeding a builder from a graph and appending (market/pricing.cpp's
    // virtual links) keeps every existing id; the rebuilt CSR and SoA
    // cover old and new links alike.
    util::Rng rng(29);
    const Graph base = test::random_connected(rng, 30, 20);
    GraphBuilder b(base);
    EXPECT_EQ(b.node_count(), base.node_count());
    EXPECT_EQ(b.link_count(), base.link_count());
    const LinkId l1 = b.add_link(NodeId{3u}, NodeId{7u}, 42.0, 9.5);
    const LinkId l2 = b.add_link(NodeId{1u}, NodeId{2u}, 17.0, 0.25);
    EXPECT_EQ(l1.index(), base.link_count());
    EXPECT_EQ(l2.index(), base.link_count() + 1);
    const Graph g = std::move(b).build();
    ASSERT_EQ(g.link_count(), base.link_count() + 2);
    for (const LinkId l : base.all_links()) {
        EXPECT_EQ(g.link(l).a, base.link(l).a);
        EXPECT_EQ(g.link(l).b, base.link(l).b);
        EXPECT_EQ(g.link(l).capacity_gbps, base.link(l).capacity_gbps);
        EXPECT_EQ(g.link(l).length_km, base.link(l).length_km);
    }
    EXPECT_EQ(g.link(l1).capacity_gbps, 42.0);
    EXPECT_EQ(g.link(l2).length_km, 0.25);
    expect_csr_matches_links(g);
    expect_soa_mirrors_links(g);
}

TEST(Graph, ConcurrentFirstReadsNeedNoWarmUp) {
    // A just-built graph is read by several threads released together,
    // each making its own first incident()/link_soa()/Dijkstra call with
    // no warm-up beforehand. The graph is frozen at build time, so these
    // reads are race-free (the tsan preset runs this test) and agree.
    util::Rng rng(23);
    const Graph g = test::random_connected(rng, 300, 600);
    constexpr std::size_t kThreads = 8;
    std::latch start(kThreads);
    std::vector<std::size_t> degree_sums(kThreads, 0);
    std::vector<double> capacity_sums(kThreads, 0.0);
    std::vector<std::vector<double>> dists(kThreads);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            start.arrive_and_wait();
            const auto read_incident = [&] {
                for (std::size_t v = 0; v < g.node_count(); ++v) {
                    degree_sums[t] += g.incident(NodeId{v}).size();
                }
            };
            const auto read_soa = [&] {
                const LinkSoa soa = g.link_soa();
                for (const double c : soa.capacity_gbps) capacity_sums[t] += c;
            };
            const auto run_dijkstra = [&] {
                SsspWorkspace ws;
                dijkstra_metric_into(Subgraph(g), NodeId{0u}, SsspMetric::kLength, ws);
                for (std::size_t v = 0; v < g.node_count(); ++v) {
                    dists[t].push_back(ws.dist(NodeId{v}));
                }
            };
            // Vary which reader goes first so every entry point gets to
            // be some thread's first touch of the graph.
            switch (t % 3) {
                case 0: read_incident(); read_soa(); run_dijkstra(); break;
                case 1: read_soa(); run_dijkstra(); read_incident(); break;
                default: run_dijkstra(); read_incident(); read_soa(); break;
            }
        });
    }
    for (std::thread& th : threads) th.join();
    EXPECT_EQ(degree_sums[0], 2 * g.link_count());
    for (std::size_t t = 1; t < kThreads; ++t) {
        EXPECT_EQ(degree_sums[t], degree_sums[0]);
        EXPECT_EQ(capacity_sums[t], capacity_sums[0]);
        EXPECT_EQ(dists[t], dists[0]);
    }
}

}  // namespace
}  // namespace poc::net
