#include "net/mcf.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "net/ksp.hpp"

namespace poc::net {

namespace {
constexpr double kEps = 1e-12;
}

std::vector<double> CommodityRouting::link_load(const Graph& g) const {
    std::vector<double> load(g.link_count(), 0.0);
    for (const auto& demand_routes : routes) {
        for (const auto& [path, rate] : demand_routes) {
            for (const LinkId l : path) load[l.index()] += rate;
        }
    }
    return load;
}

std::optional<CommodityRouting> greedy_path_routing(const Subgraph& sg, const TrafficMatrix& tm,
                                                    const GreedyRoutingOptions& opt) {
    POC_EXPECTS(opt.k_paths >= 1);
    POC_EXPECTS(opt.utilization_cap > 0.0 && opt.utilization_cap <= 1.0);
    POC_EXPECTS(opt.exclusions == nullptr || opt.exclusions->size() == tm.size());
    const Graph& g = sg.graph();

    // Place the biggest demands first: they are the hardest to fit.
    std::vector<std::size_t> order(tm.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return tm[a].gbps > tm[b].gbps; });

    std::vector<double> residual(g.link_count(), 0.0);
    for (const LinkId lid : sg.active_links()) {
        residual[lid.index()] = g.link(lid).capacity_gbps * opt.utilization_cap;
    }

    // Congestion-aware metric: length scaled up as residual capacity
    // shrinks, so we prefer uncongested routes. Kept as a flat array;
    // only the links a demand was placed on change, so only they are
    // recomputed (same expression, so the same doubles).
    const auto congestion = [&](LinkId lid) {
        const double cap = g.link(lid).capacity_gbps * opt.utilization_cap;
        const double used = cap - residual[lid.index()];
        const double frac = cap > 0.0 ? used / cap : 1.0;
        return (g.link(lid).length_km + 1.0) * (1.0 + 4.0 * frac * frac);
    };
    std::vector<double> weight(g.link_count(), 0.0);
    for (const LinkId lid : sg.active_links()) weight[lid.index()] = congestion(lid);

    CommodityRouting routing;
    routing.routes.resize(tm.size());

    // The "usable" view — active links with residual capacity — is
    // maintained incrementally across demands instead of being rebuilt
    // from scratch per demand: residual only ever decreases, so the
    // exhausted set grows monotonically and a link deactivated here
    // stays deactivated. Per-demand exclusions are toggled off around
    // the search and restored via an undo list (an excluded link's
    // residual cannot change while it is excluded, so restoring to
    // active is always correct).
    //
    // Within one demand the view and the weights stay frozen: links
    // exhausted by its paths are deactivated, and their weights
    // refreshed, only after it is placed. So the lazily drawn Yen
    // sequence is the one an eager k-path list computed at the demand's
    // start would hold, and the routing is identical to placing onto
    // that list. Every view is a shrunk `sg`, so one ActiveAdjacency of
    // `sg` serves every search of the call.
    Subgraph usable = sg;
    for (const LinkId lid : sg.active_links()) {
        if (residual[lid.index()] <= kEps) usable.set_active(lid, false);
    }
    const ActiveAdjacency adj(sg);
    SsspWorkspace ws;
    YenEnumerator yen(usable, adj, weight, ws);
    std::vector<LinkId> excluded_undo;
    std::vector<LinkId> placed;  // links of the demand's placed paths

    for (const std::size_t di : order) {
        const Demand& d = tm[di];
        if (d.gbps <= kEps) continue;
        POC_EXPECTS(d.src != d.dst);

        excluded_undo.clear();
        if (opt.exclusions != nullptr) {
            for (const LinkId lid : (*opt.exclusions)[di]) {
                if (usable.is_active(lid)) {
                    usable.set_active(lid, false);
                    excluded_undo.push_back(lid);
                }
            }
        }

        yen.start(d.src, d.dst);
        placed.clear();
        double remaining = d.gbps;
        for (std::size_t p = 0; p < opt.k_paths && remaining > kEps; ++p) {
            const WeightedPath* wp = yen.next();
            if (wp == nullptr) break;
            double bottleneck = remaining;
            for (const LinkId l : wp->links) {
                bottleneck = std::min(bottleneck, residual[l.index()]);
            }
            if (bottleneck <= kEps) continue;
            for (const LinkId l : wp->links) residual[l.index()] -= bottleneck;
            placed.insert(placed.end(), wp->links.begin(), wp->links.end());
            routing.routes[di].emplace_back(wp->links, bottleneck);
            remaining -= bottleneck;
        }
        const bool fits = !(remaining > 1e-9 * std::max(1.0, d.gbps));

        for (const LinkId l : placed) {
            if (residual[l.index()] <= kEps) usable.set_active(l, false);
            weight[l.index()] = congestion(l);
        }
        for (const LinkId lid : excluded_undo) usable.set_active(lid, true);
        if (!fits) return std::nullopt;
    }
    return routing;
}

ConcurrentFlowResult max_concurrent_flow(const Subgraph& sg, const TrafficMatrix& tm, double eps,
                                         const CommodityExclusions* exclusions) {
    POC_EXPECTS(eps > 0.0 && eps <= 0.5);
    POC_EXPECTS(exclusions == nullptr || exclusions->size() == tm.size());
    const Graph& g = sg.graph();
    const std::size_t m = std::max<std::size_t>(sg.active_count(), 2);

    ConcurrentFlowResult out;
    out.routing.routes.resize(tm.size());
    if (tm.empty()) {
        out.lambda = std::numeric_limits<double>::infinity();
        return out;
    }

    // Fleischer's length-function initialization.
    const double delta = std::pow(static_cast<double>(m) / (1.0 - eps), -1.0 / eps) /
                         1.0;  // delta = (m/(1-eps))^(-1/eps)
    std::vector<double> length(g.link_count(), 0.0);
    const auto active = sg.active_links();
    for (const LinkId lid : active) {
        length[lid.index()] = delta / g.link(lid).capacity_gbps;
    }
    auto dual = [&]() {
        double s = 0.0;
        for (const LinkId lid : active) s += length[lid.index()] * g.link(lid).capacity_gbps;
        return s;
    };

    std::vector<double> routed(tm.size(), 0.0);  // unscaled flow per commodity

    // Per-commodity views honoring exclusions (shared view otherwise).
    std::vector<Subgraph> views;
    if (exclusions != nullptr) {
        views.reserve(tm.size());
        for (std::size_t j = 0; j < tm.size(); ++j) {
            Subgraph v = sg;
            for (const LinkId lid : (*exclusions)[j]) v.set_active(lid, false);
            views.push_back(std::move(v));
        }
    }
    auto view_of = [&](std::size_t j) -> const Subgraph& {
        return exclusions != nullptr ? views[j] : sg;
    };

    // Quick reachability/zero-demand screening. Reachability under the
    // unit metric only depends on the source and the view, so with no
    // exclusions (all views alias sg) one SSSP per distinct source
    // answers every demand from it; the workspace keeps the tree of
    // the most recent source, and demands arrive grouped only by
    // chance, so we re-run when the source (or view) changes.
    SsspWorkspace ws;
    NodeId screened_source{};
    for (std::size_t j = 0; j < tm.size(); ++j) {
        const Demand& d = tm[j];
        POC_EXPECTS(d.gbps >= 0.0);
        if (d.gbps <= kEps) continue;
        if (exclusions != nullptr || d.src != screened_source) {
            dijkstra_metric_into(view_of(j), d.src, SsspMetric::kUnit, ws);
            screened_source = d.src;
        }
        if (!ws.reachable(d.dst)) {
            out.lambda = 0.0;  // some demand cannot be routed at all
            return out;
        }
    }

    // Every view is `sg` or a shrunk copy, so `sg`'s active lists serve
    // the length-metric searches of all of them.
    const ActiveAdjacency adj(sg);
    double current_dual = dual();
    while (current_dual < 1.0) {
        for (std::size_t j = 0; j < tm.size(); ++j) {
            const Demand& d = tm[j];
            if (d.gbps <= kEps) continue;
            double to_route = d.gbps;
            while (to_route > kEps && current_dual < 1.0) {
                auto sp = shortest_path(view_of(j), adj, d.src, d.dst, length, ws);
                POC_ASSERT(sp.has_value());
                double bottleneck = to_route;
                for (const LinkId l : sp->links) {
                    bottleneck = std::min(bottleneck, g.link(l).capacity_gbps);
                }
                POC_ASSERT(bottleneck > 0.0);
                for (const LinkId l : sp->links) {
                    const double cap = g.link(l).capacity_gbps;
                    const double old_len = length[l.index()];
                    length[l.index()] = old_len * (1.0 + eps * bottleneck / cap);
                    // Incremental dual update: d(sum cap*len) = cap * old_len
                    // * (eps*b/cap) = eps * b * old_len.
                    current_dual += eps * bottleneck * old_len;
                }
                routed[j] += bottleneck;
                to_route -= bottleneck;
                out.routing.routes[j].emplace_back(std::move(sp->links), bottleneck);
            }
        }
    }

    // Scale the accumulated flow down to feasibility: each link carries
    // at most log_{1+eps}((1+eps)/delta) times its capacity.
    const double scale = std::log((1.0 + eps) / delta) / std::log(1.0 + eps);
    POC_ASSERT(scale > 0.0);
    double min_fraction = std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < tm.size(); ++j) {
        if (tm[j].gbps <= kEps) continue;
        min_fraction = std::min(min_fraction, routed[j] / tm[j].gbps);
    }
    if (min_fraction == std::numeric_limits<double>::infinity()) min_fraction = 0.0;
    out.lambda = min_fraction / scale;

    for (auto& demand_routes : out.routing.routes) {
        for (auto& [path, rate] : demand_routes) rate /= scale;
    }
    return out;
}

bool is_routable(const Subgraph& sg, const TrafficMatrix& tm, double fptas_eps,
                 const CommodityExclusions* exclusions) {
    if (tm.empty()) return true;
    GreedyRoutingOptions greedy_opt;
    greedy_opt.exclusions = exclusions;
    if (greedy_path_routing(sg, tm, greedy_opt)) return true;
    return max_concurrent_flow(sg, tm, fptas_eps, exclusions).lambda >= 1.0;
}

}  // namespace poc::net
