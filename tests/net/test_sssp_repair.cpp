// Exhaustive single-edge dynamic-SSSP repair matrix (DESIGN.md §7):
// for every topology in a small-graph zoo (<= 32 nodes), every source,
// every metric, and every single-edge cut / restore / weight change,
// the repaired tree must equal a fresh Dijkstra bit for bit — same
// dist doubles, same parent links, same predecessor nodes, including
// every tie-break. Plus chained-repair composition along random flip
// walks.
#include "net/sssp_repair.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "helpers/graphs.hpp"
#include "net/shortest_path.hpp"
#include "util/rng.hpp"

namespace poc::net {
namespace {

using test::chain;
using test::maxflow_classic;
using test::random_connected;
using test::ring;
using test::triangle;

/// Bit-exact tree equality: EXPECT_EQ on doubles is operator==, which
/// distinguishes every pair of distinct finite values and treats the
/// two inf sentinels equal — exactly the contract repairs promise.
void expect_trees_identical(const ShortestPathTree& got, const ShortestPathTree& want,
                            const std::string& context) {
    ASSERT_EQ(got.dist.size(), want.dist.size()) << context;
    EXPECT_EQ(got.source, want.source) << context;
    for (std::size_t i = 0; i < want.dist.size(); ++i) {
        EXPECT_EQ(got.dist[i], want.dist[i]) << context << " dist of node " << i;
        EXPECT_EQ(got.parent_link[i].value(), want.parent_link[i].value())
            << context << " parent of node " << i;
        EXPECT_EQ(got.pred_node_[i].value(), want.pred_node_[i].value())
            << context << " pred of node " << i;
    }
}

ShortestPathTree cold_tree(const Subgraph& sg, NodeId source, SsspMetric metric) {
    SsspWorkspace ws;
    dijkstra_metric_into(sg, source, metric, ws);
    return ws.to_tree();
}

/// Tie-break stress graph: zero-length links, parallel links (some
/// zero-length, some not), and equal-length alternatives, so repaired
/// parent derivation must reproduce Dijkstra's (dist, node id, link
/// id) tie-break exactly rather than just "a" shortest tree.
Graph tie_break_zoo() {
    GraphBuilder gb;
    gb.add_nodes(6);
    gb.add_link(NodeId{0u}, NodeId{1u}, 10.0, 0.0);
    gb.add_link(NodeId{1u}, NodeId{2u}, 10.0, 0.0);
    gb.add_link(NodeId{0u}, NodeId{2u}, 10.0, 0.0);
    gb.add_link(NodeId{2u}, NodeId{3u}, 10.0, 1.0);
    gb.add_link(NodeId{3u}, NodeId{4u}, 10.0, 0.0);
    gb.add_link(NodeId{3u}, NodeId{4u}, 10.0, 0.0);  // zero-length parallel pair
    gb.add_link(NodeId{4u}, NodeId{5u}, 10.0, 2.0);
    gb.add_link(NodeId{0u}, NodeId{1u}, 10.0, 1.0);  // parallel with distinct length
    gb.add_link(NodeId{1u}, NodeId{3u}, 10.0, 1.0);  // equal-length alternative to 2-3
    return std::move(gb).build();
}

/// Two disconnected chains; restores across the gap flip reachability.
Graph split_graph() {
    GraphBuilder gb;
    gb.add_nodes(8);
    for (std::size_t i = 0; i + 1 < 4; ++i) {
        gb.add_link(NodeId{i}, NodeId{i + 1}, 10.0, 1.0 + static_cast<double>(i));
    }
    for (std::size_t i = 4; i + 1 < 8; ++i) {
        gb.add_link(NodeId{i}, NodeId{i + 1}, 10.0, 2.0);
    }
    gb.add_link(NodeId{1u}, NodeId{6u}, 10.0, 5.0);  // the only bridge
    return std::move(gb).build();
}

std::vector<Graph> graph_zoo() {
    std::vector<Graph> zoo;
    zoo.push_back(triangle());
    zoo.push_back(chain(6));
    zoo.push_back(ring(8));
    zoo.push_back(maxflow_classic());
    zoo.push_back(tie_break_zoo());
    zoo.push_back(split_graph());
    util::Rng rng(20260809);
    zoo.push_back(random_connected(rng, 16, 12));
    zoo.push_back(random_connected(rng, 32, 20));
    return zoo;
}

constexpr SsspMetric kMetrics[] = {SsspMetric::kLength, SsspMetric::kUnit};

/// A deterministic family of base masks per graph: the full mask plus
/// a few random partial masks (so repairs start from degraded
/// subgraphs, not only from the pristine one).
std::vector<Subgraph> base_masks(const Graph& g, util::Rng& rng) {
    std::vector<Subgraph> masks;
    masks.emplace_back(g);
    for (int m = 0; m < 2; ++m) {
        Subgraph sg(g);
        for (std::size_t i = 0; i < g.link_count(); ++i) {
            if (rng.uniform(0.0, 1.0) < 0.25) sg.set_active(LinkId{i}, false);
        }
        masks.push_back(sg);
    }
    return masks;
}

/// Rebuild `g` with one link's length replaced.
Graph with_length(const Graph& g, LinkId target, double new_len) {
    GraphBuilder builder;
    builder.add_nodes(g.node_count());
    for (std::size_t i = 0; i < g.link_count(); ++i) {
        const Link& l = g.link(LinkId{i});
        builder.add_link(l.a, l.b, l.capacity_gbps, i == target.index() ? new_len : l.length_km);
    }
    return std::move(builder).build();
}

TEST(SsspRepairMatrix, EverySingleEdgeCutMatchesColdDijkstra) {
    util::Rng rng(1);
    for (const Graph& g : graph_zoo()) {
        for (Subgraph& base : base_masks(g, rng)) {
            for (const SsspMetric metric : kMetrics) {
                for (std::size_t s = 0; s < g.node_count(); ++s) {
                    const NodeId src{s};
                    const ShortestPathTree before = cold_tree(base, src, metric);
                    for (std::size_t li = 0; li < g.link_count(); ++li) {
                        const LinkId lid{li};
                        if (!base.is_active(lid)) continue;
                        Subgraph cut = base;
                        cut.set_active(lid, false);
                        ShortestPathTree repaired = before;
                        SsspRepairWorkspace ws;
                        repair_link_cut(repaired, cut, lid, metric, ws);
                        expect_trees_identical(
                            repaired, cold_tree(cut, src, metric),
                            "cut link " + std::to_string(li) + " source " + std::to_string(s));
                    }
                }
            }
        }
    }
}

TEST(SsspRepairMatrix, EverySingleEdgeRestoreMatchesColdDijkstra) {
    util::Rng rng(2);
    for (const Graph& g : graph_zoo()) {
        for (Subgraph& base : base_masks(g, rng)) {
            for (const SsspMetric metric : kMetrics) {
                for (std::size_t s = 0; s < g.node_count(); ++s) {
                    const NodeId src{s};
                    for (std::size_t li = 0; li < g.link_count(); ++li) {
                        const LinkId lid{li};
                        // Restore every link, including ones active in
                        // the base: deactivate first, tree that mask,
                        // then repair back up to the base mask.
                        Subgraph without = base;
                        without.set_active(lid, false);
                        Subgraph with = without;
                        with.set_active(lid, true);
                        ShortestPathTree repaired = cold_tree(without, src, metric);
                        SsspRepairWorkspace ws;
                        repair_link_restore(repaired, with, lid, metric, ws);
                        expect_trees_identical(repaired, cold_tree(with, src, metric),
                                               "restore link " + std::to_string(li) +
                                                   " source " + std::to_string(s));
                    }
                }
            }
        }
    }
}

TEST(SsspRepairMatrix, EverySingleEdgeWeightChangeMatchesColdDijkstra) {
    const double kFactors[] = {0.0, 0.5, 1.0, 2.0};
    util::Rng rng(3);
    for (const Graph& g : graph_zoo()) {
        for (Subgraph& base : base_masks(g, rng)) {
            for (const SsspMetric metric : kMetrics) {
                for (std::size_t li = 0; li < g.link_count(); ++li) {
                    const LinkId lid{li};
                    if (!base.is_active(lid)) continue;
                    const double old_len = g.link(lid).length_km;
                    for (const double f : kFactors) {
                        const Graph g2 = with_length(g, lid, old_len * f + (f == 2.0 ? 0.7 : 0.0));
                        Subgraph sg2(g2, base.active_links());
                        for (std::size_t s = 0; s < g.node_count(); ++s) {
                            const NodeId src{s};
                            ShortestPathTree repaired = cold_tree(base, src, metric);
                            SsspRepairWorkspace ws;
                            repair_weight_change(repaired, sg2, lid, old_len, metric, ws);
                            expect_trees_identical(repaired, cold_tree(sg2, src, metric),
                                                   "reweight link " + std::to_string(li) +
                                                       " x" + std::to_string(f) + " source " +
                                                       std::to_string(s));
                        }
                    }
                }
            }
        }
    }
}

TEST(SsspRepair, ChainedRepairsComposeAlongRandomFlipWalks) {
    util::Rng rng(77);
    for (const Graph& g : graph_zoo()) {
        for (const SsspMetric metric : kMetrics) {
            Subgraph sg(g);
            const NodeId src{rng.uniform_int(std::uint64_t{g.node_count()})};
            ShortestPathTree tree = cold_tree(sg, src, metric);
            SsspRepairWorkspace ws;
            for (int step = 0; step < 60; ++step) {
                const LinkId lid{rng.uniform_int(std::uint64_t{g.link_count()})};
                const bool now_active = !sg.is_active(lid);
                sg.set_active(lid, now_active);
                if (now_active) {
                    repair_link_restore(tree, sg, lid, metric, ws);
                } else {
                    repair_link_cut(tree, sg, lid, metric, ws);
                }
                expect_trees_identical(tree, cold_tree(sg, src, metric),
                                       "walk step " + std::to_string(step));
            }
            EXPECT_GT(ws.stats().cuts + ws.stats().restores, 0u);
        }
    }
}

TEST(SsspRepair, NoopCasesAreDetectedWithoutTouchingTheTree) {
    const Graph g = tie_break_zoo();
    Subgraph sg(g);
    const NodeId src{0u};
    SsspRepairWorkspace ws;

    // Cutting a non-tree edge: the duplicate zero-length parallel link
    // 3-4 (id 5) loses the (dist, node, link-id) tie to id 4, so it is
    // never a tree edge and cutting it is a no-op.
    ShortestPathTree tree = cold_tree(sg, src, SsspMetric::kLength);
    ASSERT_NE(tree.parent_link[4].value(), 5u);
    Subgraph cut = sg;
    cut.set_active(LinkId{5u}, false);
    ShortestPathTree repaired = tree;
    repair_link_cut(repaired, cut, LinkId{5u}, SsspMetric::kLength, ws);
    EXPECT_EQ(ws.stats().noops, 1u);
    expect_trees_identical(repaired, cold_tree(cut, src, SsspMetric::kLength), "noop cut");

    // Unit metric ignores lengths entirely, so a length change under
    // kUnit is a no-op before any tree inspection.
    const Graph g2 = with_length(g, LinkId{3u}, 42.0);
    Subgraph sg2(g2);
    ShortestPathTree unit_tree = cold_tree(sg, src, SsspMetric::kUnit);
    ShortestPathTree unit_repaired = unit_tree;
    repair_weight_change(unit_repaired, sg2, LinkId{3u}, g.link(LinkId{3u}).length_km,
                         SsspMetric::kUnit, ws);
    EXPECT_EQ(ws.stats().noops, 2u);
    expect_trees_identical(unit_repaired, cold_tree(sg2, src, SsspMetric::kUnit), "unit noop");
}

}  // namespace
}  // namespace poc::net
