// Output checks that compute their answer apart from the library.
#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <queue>

#include "workloads.hpp"

namespace pb {

bool close(double a, double b, double rel) {
    return std::fabs(a - b) <= rel * std::max({1.0, std::fabs(a), std::fabs(b)});
}

bool is_shortest_path(const net::Graph& g, const std::vector<char>& allowed, net::NodeId src,
                      net::NodeId dst, const std::vector<net::LinkId>& links, double want_km) {
    net::NodeId at = src;
    double km = 0.0;
    for (const net::LinkId l : links) {
        const net::Link& link = g.link(l);
        if (allowed[l.index()] == 0 || (link.a != at && link.b != at)) return false;
        at = link.a == at ? link.b : link.a;
        km += link.length_km;
    }
    return at == dst && close(km, want_km, 1e-9);
}

std::string check_routing(const net::Graph& g, const std::vector<net::LinkId>& allowed,
                          const net::TrafficMatrix& tm, const net::CommodityRouting& routing,
                          double cap, const net::CommodityExclusions* exclusions) {
    std::vector<char> ok(g.link_count(), 0);
    for (const net::LinkId l : allowed) ok[l.index()] = 1;
    if (routing.routes.size() != tm.size()) return "routing has the wrong number of demands";
    std::vector<double> load(g.link_count(), 0.0);
    for (std::size_t d = 0; d < tm.size(); ++d) {
        double sum = 0.0;
        for (const auto& [path, rate] : routing.routes[d]) {
            if (!(rate > 0.0)) return "demand " + std::to_string(d) + " has a non-positive rate";
            net::NodeId at = tm[d].src;
            for (const net::LinkId l : path) {
                if (l.index() >= ok.size() || ok[l.index()] == 0) {
                    return "demand " + std::to_string(d) + " uses an unselected link";
                }
                const net::Link& link = g.link(l);
                if (link.a != at && link.b != at) {
                    return "demand " + std::to_string(d) + " path has a gap";
                }
                at = link.a == at ? link.b : link.a;
                if (exclusions != nullptr) {
                    const auto& ex = (*exclusions)[d];
                    if (std::find(ex.begin(), ex.end(), l) != ex.end()) {
                        return "demand " + std::to_string(d) + " uses its own primary path";
                    }
                }
                load[l.index()] += rate;
            }
            if (at != tm[d].dst) return "demand " + std::to_string(d) + " path ends off its sink";
            sum += rate;
        }
        if (!close(sum, tm[d].gbps, 1e-9)) {
            return "demand " + std::to_string(d) + " rates do not sum to its volume";
        }
    }
    for (std::size_t l = 0; l < load.size(); ++l) {
        const double limit = cap * g.link(net::LinkId{l}).capacity_gbps;
        if (load[l] > limit * (1.0 + 1e-9)) return "link " + std::to_string(l) + " over capacity";
    }
    return {};
}

std::string check_vcg(const market::OfferPool& pool, const market::AuctionResult& result) {
    // Owner of every offered link, rebuilt from the bids themselves.
    std::map<std::size_t, std::size_t> owner;  // link index -> bid position
    const auto& bids = pool.bids();
    for (std::size_t b = 0; b < bids.size(); ++b) {
        for (const net::LinkId l : bids[b].offered_links()) owner[l.index()] = b;
    }
    std::vector<std::vector<net::LinkId>> won(bids.size());
    util::Money virtual_cost;
    for (const net::LinkId l : result.selection.links) {
        const auto it = owner.find(l.index());
        if (it != owner.end()) {
            won[it->second].push_back(l);
        } else if (pool.virtual_links().contains(l)) {
            virtual_cost += pool.virtual_links().price(l);
        } else {
            return "selected link " + std::to_string(l.index()) + " was never offered";
        }
    }
    util::Money c_sl = virtual_cost;
    std::vector<util::Money> declared(bids.size());
    for (std::size_t b = 0; b < bids.size(); ++b) {
        const auto cost = bids[b].cost(won[b]);
        if (!cost) return "a winner's bid does not price its winning links";
        declared[b] = *cost;
        c_sl += *cost;
    }
    if (c_sl != result.selection.cost) return "C(SL) differs from the sum of winning prices";
    if (virtual_cost != result.virtual_cost) return "virtual-link cost differs from the contracts";
    if (result.outcomes.size() != bids.size()) return "one outcome per bid expected";
    util::Money outlay = virtual_cost;
    for (std::size_t b = 0; b < bids.size(); ++b) {
        const market::BpOutcome& o = result.outcomes[b];
        const std::string who = "BP " + bids[b].name();
        if (o.bp != bids[b].bp()) return who + ": outcomes out of bid order";
        if (o.bid_cost != declared[b]) return who + ": bid cost differs from its declared price";
        util::Money expect = declared[b];
        if (o.pivot_defined) {
            expect += std::max(util::Money{}, o.cost_without - c_sl);
        }
        if (o.payment != expect) return who + ": payment is not bid + max(0, C(SL-a) - C(SL))";
        if (o.payment < o.bid_cost) return who + ": payment below bid cost";
        const double pob = declared[b].is_zero()
                               ? 0.0
                               : static_cast<double>((o.payment - declared[b]).micros()) /
                                     static_cast<double>(declared[b].micros());
        if (!close(pob, o.pob, 1e-12)) return who + ": PoB is not (P - C) / C";
        outlay += o.payment;
    }
    if (outlay != result.total_outlay) return "total outlay is not payments + virtual cost";
    return {};
}

std::vector<double> dijkstra_km(const net::Graph& g, const std::vector<char>& allowed,
                                net::NodeId src) {
    const double inf = std::numeric_limits<double>::infinity();
    std::vector<double> dist(g.node_count(), inf);
    using Item = std::pair<double, std::size_t>;
    std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
    dist[src.index()] = 0.0;
    heap.emplace(0.0, src.index());
    while (!heap.empty()) {
        const auto [d, u] = heap.top();
        heap.pop();
        if (d > dist[u]) continue;
        for (const net::LinkId l : g.incident(net::NodeId{u})) {
            if (allowed[l.index()] == 0) continue;
            const net::Link& link = g.link(l);
            const std::size_t v = (link.a.index() == u ? link.b : link.a).index();
            const double nd = d + link.length_km;
            if (nd < dist[v]) {
                dist[v] = nd;
                heap.emplace(nd, v);
            }
        }
    }
    return dist;
}

}  // namespace pb
