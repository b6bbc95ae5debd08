#include "market/vcg.hpp"

#include <gtest/gtest.h>

#include "helpers/market.hpp"

namespace poc::market {
namespace {

using util::Money;
using util::operator""_usd;

AuctionOptions exact_options() {
    AuctionOptions opt;
    opt.exact = true;
    return opt;
}

TEST(Vcg, SecondPriceOnParallelLinks) {
    // Demand 8 fits one link. Winner: A ($100). Without A the optimum
    // is B ($150), so A's Clarke payment is 100 + (150 - 100) = 150:
    // the classic second-price outcome.
    test::ParallelLinksFixture fx;
    const OfferPool pool = fx.pool();
    const AcceptabilityOracle oracle(fx.graph, fx.demand(8.0), ConstraintKind::kLoad);
    const auto result = run_auction(pool, oracle, exact_options());
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->selection.cost, 100_usd);

    const BpOutcome& a = result->outcome(BpId{0u});
    EXPECT_EQ(a.bid_cost, 100_usd);
    EXPECT_EQ(a.payment, 150_usd);
    EXPECT_NEAR(a.pob, 0.5, 1e-9);
}

TEST(Vcg, LosersGetNothing) {
    test::ParallelLinksFixture fx;
    const OfferPool pool = fx.pool();
    const AcceptabilityOracle oracle(fx.graph, fx.demand(8.0), ConstraintKind::kLoad);
    const auto result = run_auction(pool, oracle, exact_options());
    ASSERT_TRUE(result.has_value());
    for (const BpId loser : {BpId{1u}, BpId{2u}}) {
        const BpOutcome& out = result->outcome(loser);
        EXPECT_TRUE(out.selected_links.empty());
        EXPECT_EQ(out.payment, Money{});
        EXPECT_EQ(out.bid_cost, Money{});
        EXPECT_DOUBLE_EQ(out.pob, 0.0);
    }
}

TEST(Vcg, TwoWinnersEachPaidTheirExternality) {
    // Demand 15 needs two links: A+B win ($250). Without A: B+C = $400
    // -> P_A = 100 + (400-250) = 250. Without B: A+C = $350 ->
    // P_B = 150 + (350-250) = 250. (Symmetric marginal contribution.)
    test::ParallelLinksFixture fx;
    const OfferPool pool = fx.pool();
    const AcceptabilityOracle oracle(fx.graph, fx.demand(15.0), ConstraintKind::kLoad);
    const auto result = run_auction(pool, oracle, exact_options());
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->selection.cost, 250_usd);
    EXPECT_EQ(result->outcome(BpId{0u}).payment, 250_usd);
    EXPECT_EQ(result->outcome(BpId{1u}).payment, 250_usd);
    EXPECT_EQ(result->outcome(BpId{2u}).payment, Money{});
    EXPECT_EQ(result->total_outlay, 500_usd);
}

TEST(Vcg, IndividualRationality) {
    test::ParallelLinksFixture fx;
    const OfferPool pool = fx.pool();
    const AcceptabilityOracle oracle(fx.graph, fx.demand(15.0), ConstraintKind::kLoad);
    const auto result = run_auction(pool, oracle, exact_options());
    ASSERT_TRUE(result.has_value());
    for (const BpOutcome& out : result->outcomes) {
        EXPECT_GE(out.payment, out.bid_cost);
        EXPECT_GE(out.pob, 0.0);
    }
}

TEST(Vcg, PivotUndefinedWhenBpIsEssential) {
    // Demand 25 needs all three links: removing any BP is infeasible.
    test::ParallelLinksFixture fx;
    const OfferPool pool = fx.pool();
    const AcceptabilityOracle oracle(fx.graph, fx.demand(25.0), ConstraintKind::kLoad);
    const auto result = run_auction(pool, oracle, exact_options());
    ASSERT_TRUE(result.has_value());
    for (const BpOutcome& out : result->outcomes) {
        EXPECT_FALSE(out.pivot_defined);
        EXPECT_EQ(out.payment, out.bid_cost);  // falls back to declared cost
    }
}

TEST(Vcg, InfeasibleAuctionReturnsNullopt) {
    test::ParallelLinksFixture fx;
    const OfferPool pool = fx.pool();
    const AcceptabilityOracle oracle(fx.graph, fx.demand(100.0), ConstraintKind::kLoad);
    EXPECT_FALSE(run_auction(pool, oracle, exact_options()).has_value());
}

TEST(Vcg, VirtualLinksBoundPayments) {
    // Same parallel-links setup plus a $400 virtual link. A's payment is
    // bounded by the virtual alternative: without A, optimum = B ($150),
    // unchanged; but with only A and the virtual link offered, removing
    // A reprices to $400.
    net::GraphBuilder gb;
    const auto a = gb.add_node();
    const auto b = gb.add_node();
    const auto l0 = gb.add_link(a, b, 10.0, 1.0);
    const auto lv = gb.add_link(a, b, 10.0, 1.0);
    BpBid bid(BpId{0u}, "A");
    bid.offer(l0, 100_usd);
    VirtualLinkContract contract;
    contract.add(lv, 400_usd);
    const net::Graph g = std::move(gb).build();
    const OfferPool pool({bid}, contract, g);
    const AcceptabilityOracle oracle(g, {{a, b, 8.0}}, ConstraintKind::kLoad);
    const auto result = run_auction(pool, oracle, exact_options());
    ASSERT_TRUE(result.has_value());
    const BpOutcome& out = result->outcome(BpId{0u});
    EXPECT_TRUE(out.pivot_defined);
    EXPECT_EQ(out.payment, 400_usd);  // capped by the fallback contract
    EXPECT_EQ(result->virtual_cost, Money{});  // virtual link not selected
}

TEST(Vcg, SelectedVirtualLinksCostedSeparately) {
    net::GraphBuilder gb;
    const auto a = gb.add_node();
    const auto b = gb.add_node();
    const auto l0 = gb.add_link(a, b, 10.0, 1.0);
    const auto lv = gb.add_link(a, b, 10.0, 1.0);
    BpBid bid(BpId{0u}, "A");
    bid.offer(l0, 100_usd);
    VirtualLinkContract contract;
    contract.add(lv, 400_usd);
    const net::Graph g = std::move(gb).build();
    const OfferPool pool({bid}, contract, g);
    // Demand 15 needs both links.
    const AcceptabilityOracle oracle(g, {{a, b, 15.0}}, ConstraintKind::kLoad);
    const auto result = run_auction(pool, oracle, exact_options());
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->virtual_cost, 400_usd);
    // A is essential (pivot undefined): paid its bid; outlay = 100+400.
    EXPECT_EQ(result->total_outlay, 500_usd);
}

TEST(Vcg, HeuristicAgreesWithExactOnEasyInstance) {
    test::ParallelLinksFixture fx;
    const OfferPool pool = fx.pool();
    const AcceptabilityOracle oracle(fx.graph, fx.demand(8.0), ConstraintKind::kLoad);
    const auto exact = run_auction(pool, oracle, exact_options());
    const auto heur = run_auction(pool, oracle, {});
    ASSERT_TRUE(exact && heur);
    EXPECT_EQ(exact->selection.cost, heur->selection.cost);
    EXPECT_EQ(exact->outcome(BpId{0u}).payment, heur->outcome(BpId{0u}).payment);
}

TEST(Vcg, OutcomeLookupRejectsUnknown) {
    test::ParallelLinksFixture fx;
    const OfferPool pool = fx.pool();
    const AcceptabilityOracle oracle(fx.graph, fx.demand(8.0), ConstraintKind::kLoad);
    const auto result = run_auction(pool, oracle, exact_options());
    ASSERT_TRUE(result.has_value());
    EXPECT_THROW(result->outcome(BpId{9u}), util::ContractViolation);
}

TEST(Vcg, OutcomeLookupFindsEveryBp) {
    // Regression for the indexed outcome(): every bidder — winner or
    // loser — resolves to its own outcome, and the index agrees with
    // the bid-order `outcomes` vector.
    test::ParallelLinksFixture fx;
    const OfferPool pool = fx.pool();
    const AcceptabilityOracle oracle(fx.graph, fx.demand(15.0), ConstraintKind::kLoad);
    const auto result = run_auction(pool, oracle, exact_options());
    ASSERT_TRUE(result.has_value());
    ASSERT_EQ(result->outcomes.size(), pool.bids().size());
    ASSERT_EQ(result->outcome_index.size(), pool.bids().size());
    for (std::size_t i = 0; i < pool.bids().size(); ++i) {
        const BpBid& bid = pool.bids()[i];
        const BpOutcome& out = result->outcome(bid.bp());
        EXPECT_EQ(out.bp, bid.bp());
        EXPECT_EQ(out.name, bid.name());
        EXPECT_EQ(&out, &result->outcomes[i]);  // same object, not a copy
    }
}

TEST(Vcg, PivotUndefinedWhenRemovalEmptiesOfferPoolHeuristic) {
    // A(OL - L_alpha) literally empty: one BP offers the only link, no
    // virtual fallback. The heuristic path must surface the undefined
    // pivot and fall back to the declared cost.
    net::GraphBuilder gb;
    const auto a = gb.add_node();
    const auto b = gb.add_node();
    const auto l0 = gb.add_link(a, b, 10.0, 1.0);
    BpBid bid(BpId{0u}, "Essential");
    bid.offer(l0, 100_usd);
    const net::Graph g = std::move(gb).build();
    const OfferPool pool({bid}, {}, g);
    const AcceptabilityOracle oracle(g, {{a, b, 5.0}}, ConstraintKind::kLoad);
    const auto result = run_auction(pool, oracle, {});  // heuristic solver
    ASSERT_TRUE(result.has_value());
    const BpOutcome& out = result->outcome(BpId{0u});
    EXPECT_FALSE(out.pivot_defined);
    EXPECT_EQ(out.payment, 100_usd);
    EXPECT_EQ(out.cost_without, Money{});  // never computed
    EXPECT_DOUBLE_EQ(out.pob, 0.0);
    EXPECT_EQ(result->total_outlay, 100_usd);
}

/// Scripted acceptability: S is acceptable iff it contains link `solo`
/// or both of `pair_a`, `pair_b`. Engineered so the heuristic's
/// price-ordered reverse deletion lands on the *pair* for the main
/// solve, while the pivot without the pair's owner finds the strictly
/// cheaper `solo` — a negative raw externality the engine must clamp.
class EitherBundleOracle final : public Oracle {
public:
    EitherBundleOracle(net::LinkId solo, net::LinkId pair_a, net::LinkId pair_b)
        : solo_(solo), pair_a_(pair_a), pair_b_(pair_b) {}

private:
    bool accepts_impl(const net::Subgraph& sg) const override {
        return sg.is_active(solo_) || (sg.is_active(pair_a_) && sg.is_active(pair_b_));
    }

    net::LinkId solo_, pair_a_, pair_b_;
};

TEST(Vcg, HeuristicNegativeExternalityClampsToZero) {
    // Links: solo $10 (BP0), pair $5 + $6 (BP1). Removal order is price
    // descending (equal capacity): solo, then the pair. The heuristic
    // main solve deletes solo and keeps the pair at $11; BP1's pivot
    // re-solve over {solo} alone finds $10 < $11. Raw externality is
    // negative; the payment must clamp to the declared cost so the VCG
    // lower bound P >= C holds.
    net::GraphBuilder gb;
    const auto a = gb.add_node();
    const auto b = gb.add_node();
    const auto solo = gb.add_link(a, b, 10.0, 1.0);
    const auto pair_a = gb.add_link(a, b, 10.0, 1.0);
    const auto pair_b = gb.add_link(a, b, 10.0, 1.0);
    BpBid bid0(BpId{0u}, "Solo");
    bid0.offer(solo, 10_usd);
    BpBid bid1(BpId{1u}, "Pair");
    bid1.offer(pair_a, 5_usd);
    bid1.offer(pair_b, 6_usd);
    const net::Graph g = std::move(gb).build();
    const OfferPool pool({bid0, bid1}, {}, g);
    const EitherBundleOracle oracle(solo, pair_a, pair_b);

    const auto result = run_auction(pool, oracle, {});  // heuristic solver
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->selection.cost, 11_usd);
    EXPECT_EQ(result->selection.links, (std::vector<net::LinkId>{pair_a, pair_b}));

    const BpOutcome& winner = result->outcome(BpId{1u});
    EXPECT_TRUE(winner.pivot_defined);
    EXPECT_EQ(winner.cost_without, 10_usd);          // cheaper without the winner!
    EXPECT_LT(winner.cost_without, result->selection.cost);
    EXPECT_EQ(winner.payment, winner.bid_cost);      // clamped, not negative
    EXPECT_EQ(winner.payment, 11_usd);
    EXPECT_DOUBLE_EQ(winner.pob, 0.0);

    const BpOutcome& loser = result->outcome(BpId{0u});
    EXPECT_TRUE(loser.selected_links.empty());
    EXPECT_EQ(loser.payment, Money{});

    // The clamp must survive the parallel/cached engine unchanged.
    AuctionOptions par;
    par.threads = 8;
    par.cache = true;
    const auto parallel = run_auction(pool, oracle, par);
    ASSERT_TRUE(parallel.has_value());
    EXPECT_EQ(parallel->outcome(BpId{1u}).payment, 11_usd);
    EXPECT_EQ(parallel->outcome(BpId{1u}).cost_without, 10_usd);
}

}  // namespace
}  // namespace poc::market
