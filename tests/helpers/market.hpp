// Shared auction fixtures: tiny offer pools with known optima.
#pragma once

#include "market/bid.hpp"
#include "market/constraints.hpp"
#include "helpers/graphs.hpp"

namespace poc::test {

using util::Money;

/// Two routers, three parallel links (cap 10 each, length 1) owned by
/// BPs A ($100), B ($150), C ($250). Demand-driven auctions between
/// node 0 and node 1 have easily hand-computed outcomes.
struct ParallelLinksFixture {
    net::Graph graph;
    std::vector<market::BpBid> bids;
    market::VirtualLinkContract contract;

    ParallelLinksFixture() {
        net::GraphBuilder builder;
        const auto a = builder.add_node("left");
        const auto b = builder.add_node("right");
        const auto l0 = builder.add_link(a, b, 10.0, 1.0);
        const auto l1 = builder.add_link(a, b, 10.0, 1.0);
        const auto l2 = builder.add_link(a, b, 10.0, 1.0);
        graph = std::move(builder).build();
        market::BpBid bid_a(market::BpId{0u}, "A");
        bid_a.offer(l0, Money::from_dollars(std::int64_t{100}));
        market::BpBid bid_b(market::BpId{1u}, "B");
        bid_b.offer(l1, Money::from_dollars(std::int64_t{150}));
        market::BpBid bid_c(market::BpId{2u}, "C");
        bid_c.offer(l2, Money::from_dollars(std::int64_t{250}));
        bids = {std::move(bid_a), std::move(bid_b), std::move(bid_c)};
    }

    market::OfferPool pool() const {
        return market::OfferPool(bids, contract, graph);
    }

    net::TrafficMatrix demand(double gbps) const {
        return {{net::NodeId{0u}, net::NodeId{1u}, gbps}};
    }
};

/// Random small instance for property tests: `links` parallel+serial
/// links over a 3-node triangle-ish multigraph, split among 3 BPs with
/// random prices. Small enough for the exact solver.
struct RandomSmallInstance {
    net::Graph graph;
    std::vector<market::BpBid> bids;
    market::VirtualLinkContract contract;
    net::TrafficMatrix tm;

    explicit RandomSmallInstance(std::uint64_t seed, std::size_t bp_count = 3) {
        util::Rng rng(seed);
        net::GraphBuilder builder;
        builder.add_nodes(3);
        for (std::size_t b = 0; b < bp_count; ++b) {
            bids.emplace_back(market::BpId{b}, "BP" + std::to_string(b + 1));
        }
        // 6-9 links, random endpoints among the 3 nodes, random owner.
        const std::size_t link_count = 6 + static_cast<std::size_t>(rng.uniform_int(
                                               std::uint64_t{4}));
        for (std::size_t i = 0; i < link_count; ++i) {
            const auto u = static_cast<std::size_t>(rng.uniform_int(std::uint64_t{3}));
            const std::size_t v = (u + 1 + static_cast<std::size_t>(
                                               rng.uniform_int(std::uint64_t{2}))) % 3;
            const net::LinkId l = builder.add_link(net::NodeId{u}, net::NodeId{v},
                                                   rng.uniform(5.0, 15.0), rng.uniform(1.0, 4.0));
            const auto owner = static_cast<std::size_t>(
                rng.uniform_int(std::uint64_t{bp_count}));
            bids[owner].offer(l, Money::from_dollars(rng.uniform(50.0, 500.0)));
        }
        graph = std::move(builder).build();
        tm = {{net::NodeId{0u}, net::NodeId{1u}, rng.uniform(2.0, 6.0)},
              {net::NodeId{1u}, net::NodeId{2u}, rng.uniform(2.0, 6.0)}};
    }

    market::OfferPool pool() const { return market::OfferPool(bids, contract, graph); }
};

}  // namespace poc::test
