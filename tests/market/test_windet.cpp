#include "market/windet.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "helpers/market.hpp"

namespace poc::market {
namespace {

using util::operator""_usd;

TEST(SelectLinks, PicksCheapestSufficientParallelLink) {
    test::ParallelLinksFixture fx;
    const OfferPool pool = fx.pool();
    const AcceptabilityOracle oracle(fx.graph, fx.demand(8.0), ConstraintKind::kLoad);
    const auto sel = select_links(pool, oracle, pool.offered_links());
    ASSERT_TRUE(sel.has_value());
    ASSERT_EQ(sel->links.size(), 1u);
    EXPECT_EQ(sel->links[0], net::LinkId{0u});  // the $100 one
    EXPECT_EQ(sel->cost, 100_usd);
}

TEST(SelectLinks, TwoLinksWhenDemandExceedsOne) {
    test::ParallelLinksFixture fx;
    const OfferPool pool = fx.pool();
    const AcceptabilityOracle oracle(fx.graph, fx.demand(15.0), ConstraintKind::kLoad);
    const auto sel = select_links(pool, oracle, pool.offered_links());
    ASSERT_TRUE(sel.has_value());
    EXPECT_EQ(sel->links.size(), 2u);
    EXPECT_EQ(sel->cost, 250_usd);  // $100 + $150
}

TEST(SelectLinks, InfeasibleReturnsNullopt) {
    test::ParallelLinksFixture fx;
    const OfferPool pool = fx.pool();
    const AcceptabilityOracle oracle(fx.graph, fx.demand(100.0), ConstraintKind::kLoad);
    EXPECT_FALSE(select_links(pool, oracle, pool.offered_links()).has_value());
}

TEST(SelectLinks, RespectsAvailableSubset) {
    test::ParallelLinksFixture fx;
    const OfferPool pool = fx.pool();
    const AcceptabilityOracle oracle(fx.graph, fx.demand(8.0), ConstraintKind::kLoad);
    // Without BP A's link, the $150 one wins.
    const auto sel = select_links(pool, oracle, {net::LinkId{1u}, net::LinkId{2u}});
    ASSERT_TRUE(sel.has_value());
    EXPECT_EQ(sel->links, (std::vector<net::LinkId>{net::LinkId{1u}}));
}

TEST(SelectLinks, ResultAlwaysAcceptable) {
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        test::RandomSmallInstance inst(seed);
        const OfferPool pool = inst.pool();
        const AcceptabilityOracle oracle(inst.graph, inst.tm, ConstraintKind::kLoad);
        const auto sel = select_links(pool, oracle, pool.offered_links());
        if (!sel) continue;
        EXPECT_TRUE(oracle.accepts(net::Subgraph(inst.graph, sel->links)));
        const auto cost = pool.total_cost(sel->links);
        ASSERT_TRUE(cost.has_value());
        EXPECT_EQ(*cost, sel->cost);
    }
}

TEST(SelectLinksExact, MatchesBruteForceOnTinyInstances) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        test::RandomSmallInstance inst(seed);
        const OfferPool pool = inst.pool();
        const AcceptabilityOracle oracle(inst.graph, inst.tm, ConstraintKind::kLoad);

        const auto exact = select_links_exact(pool, oracle, pool.offered_links());

        // Brute force all subsets.
        const auto& links = pool.offered_links();
        const std::size_t n = links.size();
        ASSERT_LE(n, 12u);
        std::optional<util::Money> best;
        for (std::size_t mask = 0; mask < (std::size_t{1} << n); ++mask) {
            std::vector<net::LinkId> subset;
            for (std::size_t i = 0; i < n; ++i) {
                if (mask & (std::size_t{1} << i)) subset.push_back(links[i]);
            }
            if (!oracle.accepts(net::Subgraph(inst.graph, subset))) continue;
            const auto cost = pool.total_cost(subset);
            if (cost && (!best || *cost < *best)) best = *cost;
        }

        ASSERT_EQ(exact.has_value(), best.has_value()) << "seed " << seed;
        if (exact) {
            EXPECT_EQ(exact->cost, *best) << "seed " << seed;
        }
    }
}

TEST(SelectLinksExact, NeverWorseThanHeuristic) {
    for (std::uint64_t seed = 20; seed <= 26; ++seed) {
        test::RandomSmallInstance inst(seed);
        const OfferPool pool = inst.pool();
        const AcceptabilityOracle oracle(inst.graph, inst.tm, ConstraintKind::kLoad);
        const auto exact = select_links_exact(pool, oracle, pool.offered_links());
        const auto heur = select_links(pool, oracle, pool.offered_links());
        ASSERT_EQ(exact.has_value(), heur.has_value());
        if (exact) {
            EXPECT_LE(exact->cost, heur->cost);
        }
    }
}

TEST(SelectLinksExact, RejectsBundleOverrides) {
    test::ParallelLinksFixture fx;
    auto bids = fx.bids;
    bids[0].override_bundle({net::LinkId{0u}}, 90_usd);
    const OfferPool pool(bids, fx.contract, fx.graph);
    const AcceptabilityOracle oracle(fx.graph, fx.demand(5.0), ConstraintKind::kLoad);
    EXPECT_THROW(select_links_exact(pool, oracle, pool.offered_links()),
                 util::ContractViolation);
}

TEST(SelectLinks, DiscountKeepsBundleWhenCheaper) {
    // One BP offers two links at $100 each with a 40% two-link discount
    // ($120 total); a rival's single link costs $130. Demand fits on
    // one link, but the discounted pair is cheaper than rival+nothing?
    // Keeping one of the pair alone costs $100 - the cheapest option.
    // Deletion must not stop at the $120 bundle out of fear of losing
    // the discount.
    net::GraphBuilder gb;
    const auto a = gb.add_node();
    const auto b = gb.add_node();
    const auto l0 = gb.add_link(a, b, 10.0, 1.0);
    const auto l1 = gb.add_link(a, b, 10.0, 1.0);
    const auto l2 = gb.add_link(a, b, 10.0, 1.0);
    BpBid bid1(BpId{0u}, "pair");
    bid1.offer(l0, 100_usd);
    bid1.offer(l1, 100_usd);
    bid1.add_discount(DiscountTier{2, 0.4});
    BpBid bid2(BpId{1u}, "rival");
    bid2.offer(l2, 130_usd);
    const net::Graph g = std::move(gb).build();
    const OfferPool pool({bid1, bid2}, {}, g);
    const AcceptabilityOracle oracle(g, {{a, b, 5.0}}, ConstraintKind::kLoad);
    const auto sel = select_links_exact(pool, oracle, pool.offered_links());
    ASSERT_TRUE(sel.has_value());
    EXPECT_EQ(sel->cost, 100_usd);
}

TEST(SelectLinks, BatchSizeOneStillWorks) {
    test::ParallelLinksFixture fx;
    const OfferPool pool = fx.pool();
    const AcceptabilityOracle oracle(fx.graph, fx.demand(8.0), ConstraintKind::kLoad);
    WinnerDeterminationOptions opt;
    opt.batch_size = 1;
    const auto sel = select_links(pool, oracle, pool.offered_links(), opt);
    ASSERT_TRUE(sel.has_value());
    EXPECT_EQ(sel->cost, 100_usd);
}

}  // namespace
}  // namespace poc::market
