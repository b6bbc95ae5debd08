#include "topo/bp_network.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace poc::topo {

namespace {

/// Pick `count` distinct city indices, biased toward large metros (so
/// every BP lands at the major interconnection hubs, which is what makes
/// colocation-based POC router placement work, and is how real carrier
/// footprints look).
std::vector<std::size_t> pick_cities(util::Rng& rng, std::size_t count) {
    const auto& cities = world_cities();
    POC_EXPECTS(count <= cities.size());
    std::vector<double> weights(cities.size());
    for (std::size_t i = 0; i < cities.size(); ++i) {
        weights[i] = cities[i].population_m;
    }
    std::vector<std::size_t> chosen;
    chosen.reserve(count);
    for (std::size_t k = 0; k < count; ++k) {
        const std::size_t idx = rng.discrete(weights);
        chosen.push_back(idx);
        weights[idx] = 0.0;  // without replacement
    }
    std::sort(chosen.begin(), chosen.end());
    return chosen;
}

/// Add a Euclidean MST over the PoPs so the backbone is connected even
/// when the Waxman draw is sparse (Prim's algorithm; PoP counts are
/// small, so O(n^2) is fine).
void add_mst_links(const BpNetwork& bp, net::GraphBuilder& physical, util::Rng& rng,
                   const std::vector<double>& capacity_choices,
                   std::vector<std::vector<bool>>& linked) {
    const auto& cities = world_cities();
    const std::size_t n = bp.cities.size();
    std::vector<bool> in_tree(n, false);
    std::vector<double> best_dist(n, std::numeric_limits<double>::infinity());
    std::vector<std::size_t> best_from(n, 0);
    in_tree[0] = true;
    for (std::size_t j = 1; j < n; ++j) {
        best_dist[j] = haversine_km(cities[bp.cities[0]].location, cities[bp.cities[j]].location);
        best_from[j] = 0;
    }
    for (std::size_t added = 1; added < n; ++added) {
        std::size_t pick = n;
        double pick_dist = std::numeric_limits<double>::infinity();
        for (std::size_t j = 0; j < n; ++j) {
            if (!in_tree[j] && best_dist[j] < pick_dist) {
                pick = j;
                pick_dist = best_dist[j];
            }
        }
        POC_ASSERT(pick < n);
        in_tree[pick] = true;
        if (!linked[best_from[pick]][pick]) {
            const double cap =
                capacity_choices[rng.uniform_int(std::uint64_t{capacity_choices.size()})];
            physical.add_link(net::NodeId{best_from[pick]}, net::NodeId{pick}, cap, pick_dist);
            linked[best_from[pick]][pick] = linked[pick][best_from[pick]] = true;
        }
        for (std::size_t j = 0; j < n; ++j) {
            if (in_tree[j]) continue;
            const double d = haversine_km(cities[bp.cities[pick]].location,
                                          cities[bp.cities[j]].location);
            if (d < best_dist[j]) {
                best_dist[j] = d;
                best_from[j] = pick;
            }
        }
    }
}

}  // namespace

std::vector<BpNetwork> generate_bp_networks(const BpGeneratorOptions& opt) {
    POC_EXPECTS(opt.bp_count >= 1);
    POC_EXPECTS(opt.min_cities >= 2);
    POC_EXPECTS(opt.min_cities <= opt.max_cities);
    POC_EXPECTS(opt.max_cities <= world_cities().size());
    POC_EXPECTS(!opt.capacity_choices_gbps.empty());
    POC_EXPECTS(opt.waxman_alpha > 0.0 && opt.waxman_alpha <= 1.0);
    POC_EXPECTS(opt.waxman_beta > 0.0);

    util::Rng rng(opt.seed);
    const auto& cities = world_cities();

    std::vector<BpNetwork> bps;
    bps.reserve(opt.bp_count);
    for (std::size_t b = 0; b < opt.bp_count; ++b) {
        BpNetwork bp;
        bp.name = "BP" + std::to_string(b + 1);

        // Linear size ramp with +-10% jitter: BP1 is the largest.
        const double frac = opt.bp_count == 1
                                ? 1.0
                                : 1.0 - static_cast<double>(b) /
                                            static_cast<double>(opt.bp_count - 1);
        const double span = static_cast<double>(opt.max_cities - opt.min_cities);
        double size_f = static_cast<double>(opt.min_cities) + frac * span;
        size_f *= rng.uniform(0.9, 1.1);
        const auto size = std::clamp(static_cast<std::size_t>(std::llround(size_f)),
                                     opt.min_cities, opt.max_cities);

        bp.cities = pick_cities(rng, size);
        net::GraphBuilder physical;
        for (const std::size_t ci : bp.cities) physical.add_node(cities[ci].name);

        // Max pairwise distance normalizes the Waxman exponent.
        double max_d = 1.0;
        for (std::size_t i = 0; i < bp.cities.size(); ++i) {
            for (std::size_t j = i + 1; j < bp.cities.size(); ++j) {
                max_d = std::max(max_d, haversine_km(cities[bp.cities[i]].location,
                                                     cities[bp.cities[j]].location));
            }
        }

        std::vector<std::vector<bool>> linked(size, std::vector<bool>(size, false));
        for (std::size_t i = 0; i < size; ++i) {
            for (std::size_t j = i + 1; j < size; ++j) {
                const double d = haversine_km(cities[bp.cities[i]].location,
                                              cities[bp.cities[j]].location);
                const double p = opt.waxman_alpha * std::exp(-d / (opt.waxman_beta * max_d));
                if (rng.bernoulli(std::min(1.0, p))) {
                    const double cap = opt.capacity_choices_gbps[rng.uniform_int(
                        std::uint64_t{opt.capacity_choices_gbps.size()})];
                    physical.add_link(net::NodeId{i}, net::NodeId{j}, cap, d);
                    linked[i][j] = linked[j][i] = true;
                }
            }
        }
        add_mst_links(bp, physical, rng, opt.capacity_choices_gbps, linked);
        bp.physical = std::move(physical).build();
        bps.push_back(std::move(bp));
    }
    return bps;
}

std::vector<std::size_t> bp_presence_by_city(const std::vector<BpNetwork>& bps,
                                             std::size_t city_count) {
    std::vector<std::size_t> presence(city_count, 0);
    for (const BpNetwork& bp : bps) {
        for (const std::size_t ci : bp.cities) {
            POC_EXPECTS(ci < city_count);
            ++presence[ci];
        }
    }
    return presence;
}

}  // namespace poc::topo
