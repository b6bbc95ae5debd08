#include "market/manipulation.hpp"

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

TEST(WithScaledBid, ScalesOnlyTargetBp) {
    test::ParallelLinksFixture fx;
    const OfferPool pool = fx.pool();
    const OfferPool scaled = with_scaled_bid(pool, BpId{0u}, 2.0);
    EXPECT_EQ(scaled.bid(BpId{0u}).base_price(net::LinkId{0u}), 200_usd);
    EXPECT_EQ(scaled.bid(BpId{1u}).base_price(net::LinkId{1u}), 150_usd);
}

TEST(WithWithheldLinks, RemovesFromOffer) {
    test::ParallelLinksFixture fx;
    const OfferPool pool = fx.pool();
    const OfferPool reduced = with_withheld_links(pool, BpId{0u}, {net::LinkId{0u}});
    EXPECT_EQ(reduced.offered_links().size(), 2u);
    EXPECT_FALSE(reduced.is_offered(net::LinkId{0u}));
    EXPECT_TRUE(reduced.bid(BpId{0u}).offered_links().empty());
}

TEST(JointWithholding, InflatesRivalPaymentsNotOwn) {
    // Demand 8: A wins, B is runner-up. If everyone withholds their
    // non-selected links, A's payment jumps to C's price level... but B
    // and C withheld everything, so without A the auction is infeasible
    // -> pivot undefined, A paid bid only. This exercises the paper's
    // observation that withholding requires knowing SL and can change
    // *others'* payoffs; here it backfires by destroying the fallback.
    test::ParallelLinksFixture fx;
    const OfferPool pool = fx.pool();
    const AcceptabilityOracle oracle(fx.graph, fx.demand(8.0), ConstraintKind::kLoad);
    const auto analysis = analyze_joint_withholding(pool, oracle, exact_options());
    ASSERT_TRUE(analysis.has_value());
    EXPECT_EQ(analysis->baseline.outcome(BpId{0u}).payment, 150_usd);
    // After withholding, only A's link remains: pivot undefined.
    EXPECT_FALSE(analysis->withheld.outcome(BpId{0u}).pivot_defined);
    EXPECT_EQ(analysis->withheld.outcome(BpId{0u}).payment, 100_usd);
    EXPECT_EQ(analysis->payment_delta.size(), 3u);
}

TEST(JointWithholding, VirtualLinksBoundInflation) {
    // Add a $400 virtual link: with rivals withholding, A's payment is
    // capped at the virtual alternative instead of being undefined --
    // exactly the bound the paper attributes to the external ISPs.
    test::ParallelLinksFixture fx;
    auto contract = fx.contract;
    net::GraphBuilder builder(fx.graph);
    const net::LinkId lv = builder.add_link(net::NodeId{0u}, net::NodeId{1u}, 10.0, 1.0);
    const net::Graph graph = std::move(builder).build();
    contract.add(lv, 400_usd);
    const OfferPool pool(fx.bids, contract, graph);
    const AcceptabilityOracle oracle(graph, fx.demand(8.0), ConstraintKind::kLoad);
    const auto analysis = analyze_joint_withholding(pool, oracle, exact_options());
    ASSERT_TRUE(analysis.has_value());
    const BpOutcome& withheld_a = analysis->withheld.outcome(BpId{0u});
    EXPECT_TRUE(withheld_a.pivot_defined);
    EXPECT_EQ(withheld_a.payment, 400_usd);  // bounded by the contract
    // Outlay delta = 400 - 150.
    EXPECT_EQ(analysis->outlay_delta, 250_usd);
}

TEST(JointWithholding, SelectionUnchangedByDefinition) {
    test::ParallelLinksFixture fx;
    const OfferPool pool = fx.pool();
    const AcceptabilityOracle oracle(fx.graph, fx.demand(15.0), ConstraintKind::kLoad);
    const auto analysis = analyze_joint_withholding(pool, oracle, exact_options());
    ASSERT_TRUE(analysis.has_value());
    EXPECT_EQ(analysis->baseline.selection.cost, analysis->withheld.selection.cost);
}

TEST(BpUtility, PaymentMinusTrueCost) {
    test::ParallelLinksFixture fx;
    const OfferPool pool = fx.pool();
    const AcceptabilityOracle oracle(fx.graph, fx.demand(8.0), ConstraintKind::kLoad);
    const auto result = run_auction(pool, oracle, exact_options());
    ASSERT_TRUE(result.has_value());
    const Money u = bp_utility(*result, BpId{0u}, [](const std::vector<net::LinkId>& links) {
        return util::Money::from_dollars(static_cast<double>(links.size()) * 100.0);
    });
    EXPECT_EQ(u, 50_usd);  // paid 150, true cost 100
}

TEST(WithScaledBid, RejectsNonPositiveFactor) {
    test::ParallelLinksFixture fx;
    const OfferPool pool = fx.pool();
    EXPECT_THROW(with_scaled_bid(pool, BpId{0u}, 0.0), util::ContractViolation);
}

}  // namespace
}  // namespace poc::market
