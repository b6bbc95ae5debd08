#include "market/pricing.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace poc::market {

namespace {

double base_price_usd(const PricingOptions& opt, double km, double capacity_gbps) {
    return (opt.fixed_usd + opt.per_km_usd * km) *
           std::pow(capacity_gbps / 100.0, opt.capacity_exponent);
}

}  // namespace

std::vector<BpBid> make_bp_bids(const topo::PocTopology& topo, const PricingOptions& opt) {
    POC_EXPECTS(opt.fixed_usd >= 0.0 && opt.per_km_usd >= 0.0);
    POC_EXPECTS(opt.link_noise >= 0.0 && opt.link_noise < 1.0);
    POC_EXPECTS(opt.discount_fraction >= 0.0 && opt.discount_fraction < 1.0);

    util::Rng rng(opt.seed);
    std::vector<double> bp_multiplier(topo.bp_count);
    for (double& m : bp_multiplier) m = rng.lognormal(0.0, opt.bp_cost_sigma);

    std::vector<BpBid> bids;
    bids.reserve(topo.bp_count);
    for (std::size_t b = 0; b < topo.bp_count; ++b) {
        bids.emplace_back(BpId{b}, "BP" + std::to_string(b + 1));
    }

    for (std::size_t li = 0; li < topo.link_owner.size(); ++li) {
        const std::uint32_t owner = topo.link_owner[li];
        if (owner == topo::kVirtualOwner) continue;
        POC_EXPECTS(owner < topo.bp_count);
        const net::Link& link = topo.graph.link(net::LinkId{li});
        const double noise = rng.uniform(1.0 - opt.link_noise, 1.0 + opt.link_noise);
        const double usd =
            base_price_usd(opt, link.length_km, link.capacity_gbps) * bp_multiplier[owner] * noise;
        bids[owner].offer(net::LinkId{li}, util::Money::from_dollars(std::max(usd, 1.0)));
    }

    if (opt.discount_fraction > 0.0) {
        for (BpBid& bid : bids) {
            if (bid.offered_links().size() >= opt.discount_threshold) {
                bid.add_discount(DiscountTier{opt.discount_threshold, opt.discount_fraction});
            }
        }
    }
    return bids;
}

VirtualLinkContract add_virtual_links(topo::PocTopology& topo, const PricingOptions& pricing,
                                      const VirtualLinkOptions& opt) {
    POC_EXPECTS(opt.attach_count >= 2);
    POC_EXPECTS(opt.capacity_gbps > 0.0);
    POC_EXPECTS(opt.price_multiplier >= 1.0);
    const std::size_t n = topo.graph.node_count();
    POC_EXPECTS(opt.attach_count <= n);

    // Attachment points: the routers with the most offered links.
    std::vector<std::size_t> degree(n, 0);
    for (std::size_t li = 0; li < topo.graph.link_count(); ++li) {
        const net::Link& l = topo.graph.link(net::LinkId{li});
        ++degree[l.a.index()];
        ++degree[l.b.index()];
    }
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return degree[a] > degree[b]; });
    order.resize(opt.attach_count);

    const auto& cities = topo::world_cities();
    VirtualLinkContract contract;
    net::GraphBuilder graph(std::move(topo.graph));  // appended links continue its ids
    for (std::size_t i = 0; i < order.size(); ++i) {
        for (std::size_t j = i + 1; j < order.size(); ++j) {
            const double km = topo::haversine_km(cities[topo.router_city[order[i]]].location,
                                                 cities[topo.router_city[order[j]]].location);
            const net::LinkId lid = graph.add_link(
                net::NodeId{order[i]}, net::NodeId{order[j]}, opt.capacity_gbps, km);
            topo.link_owner.push_back(topo::kVirtualOwner);
            const double usd =
                base_price_usd(pricing, km, opt.capacity_gbps) * opt.price_multiplier;
            contract.add(lid, util::Money::from_dollars(std::max(usd, 1.0)));
        }
    }
    topo.graph = std::move(graph).build();
    POC_ENSURES(topo.link_owner.size() == topo.graph.link_count());
    return contract;
}

OfferPool make_offer_pool(topo::PocTopology& topo, const PricingOptions& pricing,
                          const VirtualLinkOptions& vopt) {
    auto bids = make_bp_bids(topo, pricing);
    auto contract = add_virtual_links(topo, pricing, vopt);
    return OfferPool(std::move(bids), std::move(contract), topo.graph);
}

}  // namespace poc::market
