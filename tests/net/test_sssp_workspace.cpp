// SsspWorkspace / batched-SSSP fast path: bit-identity against a
// reference implementation of the original tree-returning Dijkstra
// (std::priority_queue, fresh vectors per call), plus the
// zero-allocation steady-state contract (DESIGN.md §6).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <limits>
#include <new>
#include <queue>
#include <vector>

#include "helpers/graphs.hpp"
#include "net/shortest_path.hpp"
#include "net/sssp.hpp"
#include "util/rng.hpp"

using namespace poc;
using net::LinkId;
using net::NodeId;

namespace {

// Thread-local allocation counter fed by the global operator new
// replacement below: lets tests assert a code region performs zero
// heap allocations on this thread.
thread_local std::uint64_t g_thread_allocs = 0;

}  // namespace

void* operator new(std::size_t size) {
    ++g_thread_allocs;
    if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
    throw std::bad_alloc{};
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

// The seed Dijkstra, verbatim: binary std::priority_queue over
// (dist, raw node id) pairs, per-call vector allocation. The fast
// path's contract is bit-identity against exactly this.
net::ShortestPathTree reference_dijkstra(const net::Subgraph& sg, NodeId source,
                                         const net::LinkWeight& weight) {
    const net::Graph& g = sg.graph();
    constexpr double kInf = std::numeric_limits<double>::infinity();
    net::ShortestPathTree tree;
    tree.source = source;
    tree.dist.assign(g.node_count(), kInf);
    tree.parent_link.assign(g.node_count(), LinkId{});
    tree.pred_node_.assign(g.node_count(), NodeId{});
    tree.dist[source.index()] = 0.0;

    using Item = std::pair<double, NodeId::underlying_type>;
    std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
    heap.emplace(0.0, source.value());
    while (!heap.empty()) {
        const auto [d, u_raw] = heap.top();
        heap.pop();
        const NodeId u{u_raw};
        if (d > tree.dist[u.index()]) continue;
        for (const LinkId lid : g.incident(u)) {
            if (!sg.is_active(lid)) continue;
            const double w = weight(lid);
            const NodeId v = g.link(lid).other(u);
            const double nd = d + w;
            if (nd < tree.dist[v.index()]) {
                tree.dist[v.index()] = nd;
                tree.parent_link[v.index()] = lid;
                tree.pred_node_[v.index()] = u;
                heap.emplace(nd, v.value());
            }
        }
    }
    return tree;
}

void expect_trees_identical(const net::ShortestPathTree& a, const net::ShortestPathTree& b) {
    ASSERT_EQ(a.dist.size(), b.dist.size());
    EXPECT_EQ(a.source, b.source);
    for (std::size_t i = 0; i < a.dist.size(); ++i) {
        // Exact double equality on purpose: the contract is bit-identity.
        EXPECT_EQ(a.dist[i], b.dist[i]) << "node " << i;
        EXPECT_EQ(a.parent_link[i], b.parent_link[i]) << "node " << i;
        EXPECT_EQ(a.pred_node_[i], b.pred_node_[i]) << "node " << i;
    }
}

net::TrafficMatrix random_demands(util::Rng& rng, std::size_t nodes, std::size_t count) {
    net::TrafficMatrix tm;
    for (std::size_t i = 0; i < count; ++i) {
        const auto s = static_cast<std::size_t>(rng.uniform_int(std::uint64_t{nodes}));
        auto t = static_cast<std::size_t>(rng.uniform_int(std::uint64_t{nodes}));
        if (t == s) t = (t + 1) % nodes;
        tm.push_back({NodeId{s}, NodeId{t}, rng.uniform(0.5, 5.0)});
    }
    return tm;
}

TEST(SsspWorkspace, MatchesReferenceOnRandomGraphs) {
    util::Rng rng(7);
    for (int round = 0; round < 30; ++round) {
        const std::size_t n = 4 + static_cast<std::size_t>(rng.uniform_int(40));
        const net::Graph g = test::random_connected(rng, n, n / 2 + 2);
        net::Subgraph sg(g);
        // Knock out a few random links so some nodes may be unreachable.
        for (const LinkId l : g.all_links()) {
            if (rng.uniform(0.0, 1.0) < 0.2) sg.set_active(l, false);
        }
        const net::LinkWeight w = net::weight_by_length(g);
        net::SsspWorkspace ws;  // reused across sources: exercises the stamp reset
        for (std::size_t s = 0; s < n; ++s) {
            const auto ref = reference_dijkstra(sg, NodeId{s}, w);
            expect_trees_identical(ref, net::dijkstra(sg, NodeId{s}, w));
            net::dijkstra_into(sg, NodeId{s}, w, ws);
            expect_trees_identical(ref, ws.to_tree());
            net::dijkstra_metric_into(sg, NodeId{s}, net::SsspMetric::kLength, ws);
            expect_trees_identical(ref, ws.to_tree());
        }
    }
}

TEST(SsspWorkspace, UnitMetricMatchesGenericUnitWeight) {
    util::Rng rng(11);
    const net::Graph g = test::random_connected(rng, 25, 15);
    const net::Subgraph sg(g);
    net::SsspWorkspace ws;
    for (std::size_t s = 0; s < g.node_count(); ++s) {
        const auto ref = reference_dijkstra(sg, NodeId{s}, net::weight_unit());
        net::dijkstra_metric_into(sg, NodeId{s}, net::SsspMetric::kUnit, ws);
        expect_trees_identical(ref, ws.to_tree());
    }
}

TEST(SsspWorkspace, PathReconstructionMatchesTree) {
    util::Rng rng(13);
    const net::Graph g = test::random_connected(rng, 20, 10);
    const net::Subgraph sg(g);
    const net::LinkWeight w = net::weight_by_length(g);
    net::SsspWorkspace ws;
    net::dijkstra_into(sg, NodeId{0u}, w, ws);
    const auto tree = reference_dijkstra(sg, NodeId{0u}, w);
    for (std::size_t v = 1; v < g.node_count(); ++v) {
        ASSERT_TRUE(ws.reachable(NodeId{v}));
        EXPECT_EQ(ws.path_to(NodeId{v}), tree.path_to(NodeId{v}));
    }
}

TEST(SsspWorkspace, WorkspaceShortestPathMatchesConvenienceOverload) {
    util::Rng rng(17);
    const net::Graph g = test::random_connected(rng, 30, 20);
    net::Subgraph sg(g);
    sg.set_active(LinkId{0u}, false);
    const net::LinkWeight w = net::weight_by_length(g);
    net::SsspWorkspace ws;
    for (std::size_t s = 0; s < 8; ++s) {
        for (std::size_t t = 0; t < g.node_count(); ++t) {
            if (s == t) continue;
            const auto a = net::shortest_path(sg, NodeId{s}, NodeId{t}, w);
            const auto b = net::shortest_path(sg, NodeId{s}, NodeId{t}, w, ws);
            ASSERT_EQ(a.has_value(), b.has_value());
            if (a) {
                EXPECT_EQ(a->links, b->links);
                EXPECT_EQ(a->weight, b->weight);
            }
        }
    }
}

TEST(SsspWorkspace, SteadyStateRunsAreAllocationFree) {
    util::Rng rng(19);
    const net::Graph g = test::random_connected(rng, 60, 40);
    const net::Subgraph sg(g);
    const net::LinkWeight w = net::weight_by_length(g);
    net::SsspWorkspace ws;
    std::vector<LinkId> path;
    // Warm-up: size the scratch arrays, the heap's capacity, the path
    // buffer, and the obs macros' function-local registry lookups.
    for (std::size_t s = 0; s < g.node_count(); ++s) {
        net::dijkstra_into(sg, NodeId{s}, w, ws);
        net::dijkstra_metric_into(sg, NodeId{s}, net::SsspMetric::kLength, ws);
        if (ws.reachable(NodeId{0u}) && NodeId{s} != NodeId{0u}) {
            ws.append_path_to(NodeId{0u}, path);
        }
    }
    const std::uint64_t before = g_thread_allocs;
    for (int round = 0; round < 5; ++round) {
        for (std::size_t s = 0; s < g.node_count(); ++s) {
            net::dijkstra_metric_into(sg, NodeId{s}, net::SsspMetric::kLength, ws);
            if (NodeId{s} != NodeId{0u} && ws.reachable(NodeId{0u})) {
                ws.append_path_to(NodeId{0u}, path);
            }
        }
    }
    EXPECT_EQ(g_thread_allocs - before, 0u)
        << "SSSP inner loop allocated in the steady state";
}

TEST(BatchedSssp, DistinctSourcesFirstAppearanceOrder) {
    net::TrafficMatrix tm{{NodeId{3u}, NodeId{1u}, 1.0},
                          {NodeId{0u}, NodeId{2u}, 1.0},
                          {NodeId{3u}, NodeId{2u}, 1.0},
                          {NodeId{1u}, NodeId{0u}, 1.0},
                          {NodeId{0u}, NodeId{3u}, 1.0}};
    const auto sources = net::distinct_sources(tm);
    ASSERT_EQ(sources.size(), 3u);
    EXPECT_EQ(sources[0], NodeId{3u});
    EXPECT_EQ(sources[1], NodeId{0u});
    EXPECT_EQ(sources[2], NodeId{1u});
}

TEST(BatchedSssp, DistancesMatchPerDemandShortestPathInAllModes) {
    util::Rng rng(23);
    for (int round = 0; round < 8; ++round) {
        const std::size_t n = 6 + static_cast<std::size_t>(rng.uniform_int(30));
        const net::Graph g = test::random_connected(rng, n, n / 2);
        net::Subgraph sg(g);
        for (const LinkId l : g.all_links()) {
            if (rng.uniform(0.0, 1.0) < 0.25) sg.set_active(l, false);
        }
        const net::TrafficMatrix tm = random_demands(rng, n, 80);

        // Reference: one shortest_path call per demand, seed-style.
        std::vector<double> expected(tm.size(),
                                     std::numeric_limits<double>::infinity());
        const net::LinkWeight w = net::weight_by_length(g);
        for (std::size_t j = 0; j < tm.size(); ++j) {
            const auto tree = reference_dijkstra(sg, tm[j].src, w);
            expected[j] = tree.dist[tm[j].dst.index()];
        }

        net::PathCache cache;
        for (net::PathCache* c : {static_cast<net::PathCache*>(nullptr), &cache}) {
            net::SsspBatchOptions opt;
            opt.cache = c;
            const auto got = net::batched_demand_distances(sg, tm, opt);
            ASSERT_EQ(got.size(), expected.size());
            for (std::size_t j = 0; j < got.size(); ++j) {
                EXPECT_EQ(got[j], expected[j]) << "demand " << j << " cache=" << (c != nullptr);
            }
        }
    }
}

TEST(BatchedSssp, PrimaryPathsMatchPerDemandReference) {
    util::Rng rng(29);
    const std::size_t n = 24;
    const net::Graph g = test::random_connected(rng, n, 14);
    net::Subgraph sg(g);
    sg.set_active(LinkId{2u}, false);
    net::TrafficMatrix tm = random_demands(rng, n, 60);
    tm[5].gbps = 0.0;  // must yield an empty primary

    const net::LinkWeight w = net::weight_by_length(g);
    std::vector<std::vector<LinkId>> expected(tm.size());
    for (std::size_t j = 0; j < tm.size(); ++j) {
        if (tm[j].gbps <= 0.0) continue;
        const auto tree = reference_dijkstra(sg, tm[j].src, w);
        if (tree.reachable(tm[j].dst)) expected[j] = tree.path_to(tm[j].dst);
    }

    net::PathCache cache;
    for (net::PathCache* c : {static_cast<net::PathCache*>(nullptr), &cache}) {
        net::SsspBatchOptions opt;
        opt.cache = c;
        EXPECT_EQ(net::batched_primary_paths(sg, tm, opt), expected);
    }
}

}  // namespace
