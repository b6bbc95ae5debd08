#include "net/failure.hpp"

#include <gtest/gtest.h>

#include "helpers/graphs.hpp"

namespace poc::net {
namespace {

TEST(SatisfiesLoad, BasicFeasibility) {
    Graph g = test::triangle();
    Subgraph sg(g);
    EXPECT_TRUE(satisfies_load(sg, {{NodeId{0u}, NodeId{2u}, 10.0}}));
    EXPECT_FALSE(satisfies_load(sg, {{NodeId{0u}, NodeId{2u}, 20.0}}));
}

TEST(SatisfiesLoad, DisconnectedFailsFast) {
    GraphBuilder gb;
    gb.add_nodes(3);
    gb.add_link(NodeId{0u}, NodeId{1u}, 5.0, 1.0);
    const Graph g = std::move(gb).build();
    Subgraph sg(g);
    EXPECT_FALSE(satisfies_load(sg, {{NodeId{0u}, NodeId{2u}, 1.0}}));
}

TEST(SingleFailure, RingSurvivesAnyLink) {
    Graph g = test::ring(5, 10.0);
    Subgraph sg(g);
    TrafficMatrix tm{{NodeId{0u}, NodeId{2u}, 4.0}};
    EXPECT_TRUE(satisfies_single_failure(sg, tm));
}

TEST(SingleFailure, ChainCannotSurvive) {
    Graph g = test::chain(3, 10.0);
    Subgraph sg(g);
    TrafficMatrix tm{{NodeId{0u}, NodeId{2u}, 1.0}};
    EXPECT_FALSE(satisfies_single_failure(sg, tm));
}

TEST(SingleFailure, RingWithTightCapacityFails) {
    // Demand 8 on a ring of capacity 10: nominal fits, but failing a
    // loaded link forces everything the long way - still capacity 10,
    // fits. Demand 12 needs both directions (8+4), and a failure of
    // the heavy side cannot be absorbed (12 > 10).
    Graph g = test::ring(4, 10.0);
    Subgraph sg(g);
    EXPECT_TRUE(satisfies_single_failure(sg, {{NodeId{0u}, NodeId{1u}, 8.0}}));
    EXPECT_FALSE(satisfies_single_failure(sg, {{NodeId{0u}, NodeId{1u}, 12.0}}));
}

TEST(SingleFailure, UnloadedLinksNeedNoRecheck) {
    // A triangle with a dangling extra link; routing never touches it,
    // and the oracle should still pass quickly (behavioral check only).
    GraphBuilder gb(test::triangle());
    const NodeId d = gb.add_node();
    gb.add_link(NodeId{0u}, d, 1.0, 1.0);
    const Graph g = std::move(gb).build();
    Subgraph sg(g);
    TrafficMatrix tm{{NodeId{0u}, NodeId{1u}, 2.0}};
    // 0-1 demand has backup via 2; dangling link irrelevant.
    EXPECT_TRUE(satisfies_single_failure(sg, tm));
}

TEST(PrimaryPaths, ShortestByLength) {
    Graph g = test::triangle();
    Subgraph sg(g);
    TrafficMatrix tm{{NodeId{0u}, NodeId{2u}, 1.0}};
    const auto primaries = primary_paths(sg, tm);
    ASSERT_EQ(primaries.size(), 1u);
    EXPECT_EQ(primaries[0], (std::vector<LinkId>{LinkId{0u}, LinkId{1u}}));
}

TEST(PrimaryPaths, EmptyForZeroOrDisconnected) {
    GraphBuilder gb;
    gb.add_nodes(3);
    gb.add_link(NodeId{0u}, NodeId{1u}, 5.0, 1.0);
    const Graph g = std::move(gb).build();
    Subgraph sg(g);
    TrafficMatrix tm{{NodeId{0u}, NodeId{2u}, 1.0}, {NodeId{0u}, NodeId{1u}, 0.0}};
    const auto primaries = primary_paths(sg, tm);
    EXPECT_TRUE(primaries[0].empty());
    EXPECT_TRUE(primaries[1].empty());
}

TEST(PrimaryPaths, DisconnectedByDeactivatedLinkYieldsEmptySet) {
    // Endpoints connected in the underlying graph but separated in the
    // subgraph view: the primary-path set must come back empty, not
    // throw or fall back to inactive links.
    Graph g = test::chain(3, 10.0);
    Subgraph sg(g);
    sg.set_active(LinkId{1u}, false);  // cut 1-2
    TrafficMatrix tm{{NodeId{0u}, NodeId{2u}, 1.0}, {NodeId{0u}, NodeId{1u}, 1.0}};
    const auto primaries = primary_paths(sg, tm);
    ASSERT_EQ(primaries.size(), 2u);
    EXPECT_TRUE(primaries[0].empty());
    EXPECT_EQ(primaries[1], (std::vector<LinkId>{LinkId{0u}}));
}

TEST(SingleFailure, ThresholdHeuristicAgreesWithExhaustiveOnSmallTopologies) {
    // Regression for the recheck_load_threshold doc/behavior mismatch:
    // the default 0.0 is exhaustive (only zero-flow links skipped); a
    // positive threshold is a heuristic. On these small instances the
    // two must agree - accept and reject cases alike - so a future
    // change that silently skips loaded links gets caught here.
    ResilienceOptions exact;        // 0.0 default
    ResilienceOptions heuristic;
    heuristic.recheck_load_threshold = 0.25;

    Graph ring5 = test::ring(5, 10.0);
    Subgraph sr5(ring5);
    const TrafficMatrix light{{NodeId{0u}, NodeId{2u}, 4.0}};
    EXPECT_TRUE(satisfies_single_failure(sr5, light, exact));
    EXPECT_EQ(satisfies_single_failure(sr5, light, exact),
              satisfies_single_failure(sr5, light, heuristic));

    Graph ring4 = test::ring(4, 10.0);
    Subgraph sr4(ring4);
    const TrafficMatrix heavy{{NodeId{0u}, NodeId{1u}, 12.0}};
    EXPECT_FALSE(satisfies_single_failure(sr4, heavy, exact));
    EXPECT_EQ(satisfies_single_failure(sr4, heavy, exact),
              satisfies_single_failure(sr4, heavy, heuristic));

    // Chain with links loaded above the threshold: the skipped-recheck
    // heuristic still examines them, so both settings reject.
    Graph chain3 = test::chain(3, 10.0);
    Subgraph sc3(chain3);
    const TrafficMatrix mid{{NodeId{0u}, NodeId{2u}, 4.0}};
    EXPECT_FALSE(satisfies_single_failure(sc3, mid, exact));
    EXPECT_EQ(satisfies_single_failure(sc3, mid, exact),
              satisfies_single_failure(sc3, mid, heuristic));
}

TEST(SingleFailure, ThresholdHeuristicCanAcceptWhatExhaustiveRejects) {
    // The divergence the header documents: a chain link carrying 10% of
    // its capacity falls under a 0.25 threshold, is never re-checked,
    // and the heuristic accepts a set with no backup path at all. This
    // is WHY 0.0 is the only safe default for final validation; if this
    // test starts failing the heuristic's semantics changed and the
    // ResilienceOptions doc must be revisited.
    Graph chain3 = test::chain(3, 10.0);
    Subgraph sg(chain3);
    const TrafficMatrix light{{NodeId{0u}, NodeId{2u}, 1.0}};
    ResilienceOptions heuristic;
    heuristic.recheck_load_threshold = 0.25;
    EXPECT_FALSE(satisfies_single_failure(sg, light));  // exact default
    EXPECT_TRUE(satisfies_single_failure(sg, light, heuristic));
}

TEST(PerPairFailure, TriangleReroutesOntoBackup) {
    Graph g = test::triangle();
    Subgraph sg(g);
    // Primary 0->2 is 0-1-2 (len 2); backup is the direct link (cap 5).
    EXPECT_TRUE(satisfies_per_pair_failure(sg, {{NodeId{0u}, NodeId{2u}, 4.0}}));
    // Backup capacity is 5: demand 6 fails the per-pair constraint.
    EXPECT_FALSE(satisfies_per_pair_failure(sg, {{NodeId{0u}, NodeId{2u}, 6.0}}));
}

TEST(PerPairFailure, ChainHasNoBackup) {
    Graph g = test::chain(3);
    Subgraph sg(g);
    EXPECT_FALSE(satisfies_per_pair_failure(sg, {{NodeId{0u}, NodeId{2u}, 1.0}}));
}

TEST(PerPairFailure, AllDemandsRerouteSimultaneously) {
    // Ring of 4, capacity 10: demands 0->1 and 2->3 have single-link
    // primaries; each backup is the 3-hop complement, and the two
    // backups *share* two links (1-2 and 3-0), so simultaneous
    // rerouting loads shared links with both demands: feasible at 4.5
    // each (9 < 10 on shared links), infeasible at 6 each (12 > 10).
    Graph g = test::ring(4, 10.0);
    Subgraph sg(g);
    TrafficMatrix light{{NodeId{0u}, NodeId{1u}, 4.5}, {NodeId{2u}, NodeId{3u}, 4.5}};
    EXPECT_TRUE(satisfies_per_pair_failure(sg, light));
    TrafficMatrix heavy{{NodeId{0u}, NodeId{1u}, 6.0}, {NodeId{2u}, NodeId{3u}, 6.0}};
    EXPECT_FALSE(satisfies_per_pair_failure(sg, heavy));
}

TEST(ConstraintNesting, StricterConstraintsImplyWeaker) {
    // Any set passing single-failure also passes plain load.
    Graph g = test::ring(5, 10.0);
    Subgraph sg(g);
    TrafficMatrix tm{{NodeId{0u}, NodeId{2u}, 4.0}, {NodeId{1u}, NodeId{3u}, 3.0}};
    if (satisfies_single_failure(sg, tm)) {
        EXPECT_TRUE(satisfies_load(sg, tm));
    }
    if (satisfies_per_pair_failure(sg, tm)) {
        EXPECT_TRUE(satisfies_load(sg, tm));
    }
}

}  // namespace
}  // namespace poc::net
