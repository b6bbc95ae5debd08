#include "core/federation.hpp"

#include <cmath>
#include <gtest/gtest.h>

#include "util/contracts.hpp"

namespace poc::core {
namespace {

using util::Money;
using util::operator""_usd;

/// Two regions of two routers each; rich intra-region links plus
/// plenty of capacity. Demands both intra- and cross-region.
struct FederationFixture {
    net::Graph graph;
    std::vector<market::BpBid> bids;
    std::vector<std::uint32_t> region_of;
    net::TrafficMatrix tm;

    FederationFixture() {
        // Region 0: nodes 0,1. Region 1: nodes 2,3.
        net::GraphBuilder builder;
        builder.add_nodes(4);
        region_of = {0, 0, 1, 1};
        auto offer = [&](std::size_t bp, net::NodeId a, net::NodeId b, double price) {
            const net::LinkId l = builder.add_link(a, b, 50.0, 1000.0);
            bids[bp].offer(l, Money::from_dollars(price));
            return l;
        };
        for (std::size_t b = 0; b < 3; ++b) {
            bids.emplace_back(market::BpId{b}, "BP" + std::to_string(b + 1));
        }
        // Intra-region links (two parallel per region, different BPs).
        offer(0, net::NodeId{0u}, net::NodeId{1u}, 100.0);
        offer(1, net::NodeId{0u}, net::NodeId{1u}, 150.0);
        offer(0, net::NodeId{2u}, net::NodeId{3u}, 120.0);
        offer(2, net::NodeId{2u}, net::NodeId{3u}, 160.0);
        // Cross-region links (usable by the single POC only).
        offer(1, net::NodeId{1u}, net::NodeId{2u}, 200.0);
        offer(2, net::NodeId{0u}, net::NodeId{3u}, 260.0);
        graph = std::move(builder).build();

        tm = {
            {net::NodeId{0u}, net::NodeId{1u}, 10.0},  // intra region 0
            {net::NodeId{2u}, net::NodeId{3u}, 8.0},   // intra region 1
            {net::NodeId{0u}, net::NodeId{3u}, 5.0},   // cross
        };
    }

    market::OfferPool pool() const { return market::OfferPool(bids, {}, graph); }

    FederationOptions options() const {
        FederationOptions opt;
        opt.auction.exact = true;
        return opt;
    }
};

TEST(Federation, SplitsDemandsByRegion) {
    FederationFixture fx;
    const auto result =
        compare_federation(fx.pool(), fx.tm, fx.region_of, 2, fx.options());
    ASSERT_EQ(result.regions.size(), 2u);
    EXPECT_NEAR(result.cross_region_gbps, 5.0, 1e-9);
    // Region 0's cross demand originates at its own gateway (node 0 is
    // the highest-degree router), so no source-side haul is added:
    // internal stays 10. Region 1 hauls the 5 Gbps from its gateway
    // (node 2) to the destination: 8 + 5.
    EXPECT_NEAR(result.regions[0].internal_gbps, 10.0, 1e-9);
    EXPECT_NEAR(result.regions[1].internal_gbps, 13.0, 1e-9);
}

TEST(Federation, GatewayHaulsMayVanishAtGatewayItself) {
    // A cross demand originating at the gateway router needs no
    // intra-region haul on the source side.
    FederationFixture fx;
    // Gateways are the highest-degree routers: nodes 0 and... compute
    // via result.
    const auto result =
        compare_federation(fx.pool(), fx.tm, fx.region_of, 2, fx.options());
    for (const RegionalOutcome& r : result.regions) {
        EXPECT_TRUE(r.gateway.valid());
        EXPECT_EQ(fx.region_of[r.gateway.index()], r.region);
    }
}

TEST(Federation, RegionalPoolsContainOnlyInternalLinks) {
    FederationFixture fx;
    const auto result =
        compare_federation(fx.pool(), fx.tm, fx.region_of, 2, fx.options());
    EXPECT_EQ(result.regions[0].offered_links, 2u);
    EXPECT_EQ(result.regions[1].offered_links, 2u);
}

TEST(Federation, BothProvisionedAndCosted) {
    FederationFixture fx;
    const auto result =
        compare_federation(fx.pool(), fx.tm, fx.region_of, 2, fx.options());
    EXPECT_TRUE(result.all_provisioned);
    ASSERT_TRUE(result.single_poc_outlay.has_value());
    EXPECT_GT(result.federated_outlay, Money{});
    EXPECT_GT(result.interconnect_cost, Money{});
}

TEST(Federation, InterconnectPricedPerBlockAndDistance) {
    FederationFixture fx;
    FederationOptions opt = fx.options();
    opt.interconnect_fixed_usd = 1000.0;
    opt.interconnect_per_km_usd = 1.0;
    opt.interconnect_block_gbps = 400.0;  // 5 Gbps -> 1 block
    const auto result = compare_federation(fx.pool(), fx.tm, fx.region_of, 2, opt);
    // Gateway-to-gateway shortest path exists over the full graph
    // (cross links present): distance is a multiple of 1000 km.
    const double dollars = result.interconnect_cost.dollars();
    EXPECT_GT(dollars, 1000.0);
    EXPECT_NEAR(std::fmod(dollars - 1000.0, 1000.0), 0.0, 1e-6);
}

TEST(Federation, NoCrossTrafficNoInterconnect) {
    FederationFixture fx;
    fx.tm.pop_back();  // drop the cross demand
    const auto result =
        compare_federation(fx.pool(), fx.tm, fx.region_of, 2, fx.options());
    EXPECT_DOUBLE_EQ(result.cross_region_gbps, 0.0);
    EXPECT_TRUE(result.interconnect_cost.is_zero());
}

TEST(Federation, FragmentationNeverCheapensIdenticalService) {
    // With the interconnect overhead and smaller per-region competition
    // the federated outlay is at least the single-POC outlay here.
    FederationFixture fx;
    const auto result =
        compare_federation(fx.pool(), fx.tm, fx.region_of, 2, fx.options());
    ASSERT_TRUE(result.single_poc_outlay.has_value());
    EXPECT_GE(result.federated_outlay, *result.single_poc_outlay);
}

TEST(Federation, ValidatesInputs) {
    FederationFixture fx;
    EXPECT_THROW(compare_federation(fx.pool(), fx.tm, fx.region_of, 1, fx.options()),
                 util::ContractViolation);
    std::vector<std::uint32_t> bad = fx.region_of;
    bad[0] = 7;  // out of range
    EXPECT_THROW(compare_federation(fx.pool(), fx.tm, bad, 2, fx.options()),
                 util::ContractViolation);
    bad.pop_back();
    EXPECT_THROW(compare_federation(fx.pool(), fx.tm, bad, 2, fx.options()),
                 util::ContractViolation);
}

}  // namespace
}  // namespace poc::core
