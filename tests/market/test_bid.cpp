#include "market/bid.hpp"

#include <gtest/gtest.h>

#include "helpers/market.hpp"
#include "util/contracts.hpp"

namespace poc::market {
namespace {

using util::Money;
using util::operator""_usd;

TEST(BpBid, AdditiveCost) {
    net::Graph g = test::triangle();
    BpBid bid(BpId{0u}, "A");
    bid.offer(net::LinkId{0u}, 100_usd);
    bid.offer(net::LinkId{1u}, 50_usd);
    EXPECT_EQ(bid.cost({net::LinkId{0u}}), 100_usd);
    EXPECT_EQ(bid.cost({net::LinkId{0u}, net::LinkId{1u}}), 150_usd);
}

TEST(BpBid, EmptySubsetIsFree) {
    BpBid bid(BpId{0u}, "A");
    EXPECT_EQ(bid.cost({}), Money{});
}

TEST(BpBid, UnofferedLinkIsInfinite) {
    BpBid bid(BpId{0u}, "A");
    bid.offer(net::LinkId{0u}, 100_usd);
    EXPECT_FALSE(bid.cost({net::LinkId{1u}}).has_value());
    EXPECT_FALSE(bid.cost({net::LinkId{0u}, net::LinkId{1u}}).has_value());
}

TEST(BpBid, VolumeDiscountAppliesAtThreshold) {
    BpBid bid(BpId{0u}, "A");
    bid.offer(net::LinkId{0u}, 100_usd);
    bid.offer(net::LinkId{1u}, 100_usd);
    bid.offer(net::LinkId{2u}, 100_usd);
    bid.add_discount(DiscountTier{3, 0.10});
    EXPECT_EQ(bid.cost({net::LinkId{0u}, net::LinkId{1u}}), 200_usd);  // below threshold
    EXPECT_EQ(bid.cost({net::LinkId{0u}, net::LinkId{1u}, net::LinkId{2u}}), 270_usd);
}

TEST(BpBid, LargestTierWins) {
    BpBid bid(BpId{0u}, "A");
    for (std::uint32_t i = 0; i < 4; ++i) bid.offer(net::LinkId{i}, 100_usd);
    bid.add_discount(DiscountTier{2, 0.05});
    bid.add_discount(DiscountTier{4, 0.20});
    EXPECT_EQ(bid.cost({net::LinkId{0u}, net::LinkId{1u}, net::LinkId{2u}, net::LinkId{3u}}),
              320_usd);
    EXPECT_DOUBLE_EQ(bid.max_discount_fraction(), 0.20);
}

TEST(BpBid, BundleOverrideTakesPrecedence) {
    BpBid bid(BpId{0u}, "A");
    bid.offer(net::LinkId{0u}, 100_usd);
    bid.offer(net::LinkId{1u}, 100_usd);
    bid.override_bundle({net::LinkId{1u}, net::LinkId{0u}}, 120_usd);  // unsorted input ok
    EXPECT_EQ(bid.cost({net::LinkId{0u}, net::LinkId{1u}}), 120_usd);
    EXPECT_EQ(bid.cost({net::LinkId{0u}}), 100_usd);  // singleton unaffected
    EXPECT_TRUE(bid.has_bundle_overrides());
}

TEST(BpBid, RejectsDuplicateOfferAndBadInputs) {
    BpBid bid(BpId{0u}, "A");
    bid.offer(net::LinkId{0u}, 100_usd);
    EXPECT_THROW(bid.offer(net::LinkId{0u}, 50_usd), util::ContractViolation);
    EXPECT_THROW(bid.offer(net::LinkId{1u}, Money{}), util::ContractViolation);
    EXPECT_THROW(bid.add_discount(DiscountTier{1, 0.5}), util::ContractViolation);
    EXPECT_THROW(bid.add_discount(DiscountTier{2, 1.0}), util::ContractViolation);
    EXPECT_THROW(bid.override_bundle({net::LinkId{9u}}, 10_usd), util::ContractViolation);
}

TEST(VirtualLinks, AdditiveContractCost) {
    VirtualLinkContract c;
    c.add(net::LinkId{0u}, 300_usd);
    c.add(net::LinkId{1u}, 200_usd);
    EXPECT_EQ(c.cost({net::LinkId{0u}, net::LinkId{1u}}), 500_usd);
    EXPECT_EQ(c.cost({}), Money{});
    EXPECT_EQ(c.price(net::LinkId{1u}), 200_usd);
    EXPECT_THROW(c.price(net::LinkId{9u}), util::ContractViolation);
}

TEST(OfferPool, OwnerLookup) {
    test::ParallelLinksFixture fx;
    const OfferPool pool = fx.pool();
    EXPECT_EQ(pool.owner(net::LinkId{0u}), BpId{0u});
    EXPECT_EQ(pool.owner(net::LinkId{2u}), BpId{2u});
    EXPECT_FALSE(pool.is_virtual(net::LinkId{0u}));
    EXPECT_EQ(pool.offered_links().size(), 3u);
}

TEST(OfferPool, TotalCostSumsAcrossOwners) {
    test::ParallelLinksFixture fx;
    const OfferPool pool = fx.pool();
    const auto cost = pool.total_cost({net::LinkId{0u}, net::LinkId{1u}, net::LinkId{2u}});
    ASSERT_TRUE(cost.has_value());
    EXPECT_EQ(*cost, 500_usd);
}

TEST(OfferPool, OwnedSubsetFilters) {
    test::ParallelLinksFixture fx;
    const OfferPool pool = fx.pool();
    const auto links = pool.owned_subset(
        {net::LinkId{0u}, net::LinkId{1u}, net::LinkId{2u}}, BpId{1u});
    ASSERT_EQ(links.size(), 1u);
    EXPECT_EQ(links[0], net::LinkId{1u});
}

TEST(OfferPool, VirtualLinkOwnership) {
    net::GraphBuilder gb;
    const auto a = gb.add_node();
    const auto b = gb.add_node();
    const auto l0 = gb.add_link(a, b, 5.0, 1.0);
    const auto l1 = gb.add_link(a, b, 5.0, 1.0);
    BpBid bid(BpId{0u}, "A");
    bid.offer(l0, 100_usd);
    VirtualLinkContract c;
    c.add(l1, 400_usd);
    const net::Graph g = std::move(gb).build();
    const OfferPool pool({bid}, c, g);
    EXPECT_TRUE(pool.is_virtual(l1));
    EXPECT_FALSE(pool.owner(l1).valid());
    const auto cost = pool.total_cost({l0, l1});
    ASSERT_TRUE(cost.has_value());
    EXPECT_EQ(*cost, 500_usd);
}

TEST(OfferPool, UnofferedGraphLinksAreAbsent) {
    net::GraphBuilder gb;
    const auto a = gb.add_node();
    const auto b = gb.add_node();
    const auto l0 = gb.add_link(a, b, 5.0, 1.0);
    gb.add_link(a, b, 5.0, 1.0);  // nobody offers this one
    BpBid bid(BpId{0u}, "A");
    bid.offer(l0, 100_usd);
    const net::Graph g = std::move(gb).build();
    const OfferPool pool({bid}, {}, g);
    EXPECT_EQ(pool.offered_links().size(), 1u);
    EXPECT_FALSE(pool.is_offered(net::LinkId{1u}));
    EXPECT_THROW(pool.owner(net::LinkId{1u}), util::ContractViolation);
}

TEST(OfferPool, RejectsDoubleOwnership) {
    net::GraphBuilder gb;
    const auto a = gb.add_node();
    const auto b = gb.add_node();
    const auto l0 = gb.add_link(a, b, 5.0, 1.0);
    BpBid bid1(BpId{0u}, "A");
    bid1.offer(l0, 100_usd);
    BpBid bid2(BpId{1u}, "B");
    bid2.offer(l0, 150_usd);
    const net::Graph g = std::move(gb).build();
    EXPECT_THROW(OfferPool({bid1, bid2}, {}, g), util::ContractViolation);
}

TEST(OfferPool, BidLookupByIdAndUnknownRejected) {
    test::ParallelLinksFixture fx;
    const OfferPool pool = fx.pool();
    EXPECT_EQ(pool.bid(BpId{1u}).name(), "B");
    EXPECT_THROW(pool.bid(BpId{9u}), util::ContractViolation);
}

}  // namespace
}  // namespace poc::market
