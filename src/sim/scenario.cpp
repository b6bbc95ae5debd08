#include "sim/scenario.hpp"

#include <algorithm>
#include <cmath>

#include "market/delta_reclear.hpp"
#include "topo/traffic.hpp"
#include "util/rng.hpp"

namespace poc::sim {

namespace {

/// Pick `fraction` of a BP's offered links (largest capacity first) for
/// withdrawal.
std::vector<net::LinkId> recall_links(const market::OfferPool& pool, market::BpId bp,
                                      double fraction) {
    const auto& bid = pool.bid(bp);
    std::vector<net::LinkId> links = bid.offered_links();
    std::sort(links.begin(), links.end(), [&](net::LinkId a, net::LinkId b) {
        return pool.graph().link(a).capacity_gbps > pool.graph().link(b).capacity_gbps;
    });
    const auto keep = static_cast<std::size_t>(
        std::llround(static_cast<double>(links.size()) * fraction));
    links.resize(std::min(keep, links.size()));
    return links;
}

/// Reject malformed events up front (ContractViolation) instead of
/// letting them silently misbehave mid-scenario.
void validate_events(const market::OfferPool& pool, const std::vector<ScenarioEvent>& events,
                     const ScenarioOptions& opt) {
    const auto has_bp = [&](std::uint32_t bp) {
        const auto& bids = pool.bids();
        return std::any_of(bids.begin(), bids.end(), [&](const market::BpBid& b) {
            return b.bp() == market::BpId{bp};
        });
    };
    for (const ScenarioEvent& ev : events) {
        POC_EXPECTS(ev.epoch < opt.epochs);
        switch (ev.kind) {
            case ScenarioEvent::Kind::kDemandGrowth:
                POC_EXPECTS(ev.factor > 0.0);
                break;
            case ScenarioEvent::Kind::kBpRecall:
                POC_EXPECTS(ev.fraction >= 0.0 && ev.fraction <= 1.0);
                POC_EXPECTS(has_bp(ev.bp));
                break;
            case ScenarioEvent::Kind::kLinkFailure:
                break;  // count is clamped to the in-service links
            case ScenarioEvent::Kind::kPriceShift:
                POC_EXPECTS(ev.factor > 0.0);
                POC_EXPECTS(has_bp(ev.bp));
                break;
        }
    }
}

std::string describe(const ScenarioEvent& ev) {
    switch (ev.kind) {
        case ScenarioEvent::Kind::kDemandGrowth:
            return "demand x" + std::to_string(ev.factor);
        case ScenarioEvent::Kind::kBpRecall:
            return "BP" + std::to_string(ev.bp + 1) + " recalls " +
                   std::to_string(static_cast<int>(ev.fraction * 100.0)) + "% of links";
        case ScenarioEvent::Kind::kLinkFailure:
            return std::to_string(ev.count) + " link failure(s)";
        case ScenarioEvent::Kind::kPriceShift:
            return "BP" + std::to_string(ev.bp + 1) + " prices x" + std::to_string(ev.factor);
    }
    return "?";
}

}  // namespace

std::vector<EpochOutcome> run_scenario(const market::OfferPool& initial_pool,
                                       const net::TrafficMatrix& initial_tm,
                                       const std::vector<ScenarioEvent>& events,
                                       const ScenarioOptions& opt) {
    POC_EXPECTS(opt.epochs >= 1);
    validate_events(initial_pool, events, opt);
    util::Rng rng(opt.seed);

    market::OfferPool pool = initial_pool;
    net::TrafficMatrix tm = initial_tm;
    std::vector<EpochOutcome> outcomes;

    // Shared tree cache across epochs (see ScenarioOptions): the pools
    // built by with_withheld_links / with_scaled_bid keep the same
    // Graph, so the cache-key contract (fixed link ids and lengths)
    // holds for the whole scenario.
    net::PathCache path_cache(1, opt.path_cache_repair_budget);
    core::ProvisioningRequest request = opt.request;
    core::FlowSimOptions flow_opt;
    if (opt.use_path_cache) {
        request.oracle.path_cache = &path_cache;
        flow_opt.path_cache = &path_cache;
    }
    flow_opt.routing = opt.flow_routing;
    flow_opt.flow_shards = opt.flow_shards;
    flow_opt.flow_threads = opt.flow_threads;
    // Warm-start state across the scenario's per-epoch auctions: small
    // offer-set deltas (withheld links, failures) reuse the previous
    // epoch's memo; demand changes alter the oracle fingerprint and
    // fall back to cold automatically.
    market::DeltaReclearState delta_state;
    if (opt.use_delta_reclear && request.auction.delta == nullptr) {
        request.auction.delta = &delta_state;
    }

    // Links failed so far (withheld from every future pool).
    std::optional<core::ProvisionedBackbone> last_backbone;

    Simulator simulator;
    for (std::size_t epoch = 0; epoch < opt.epochs; ++epoch) {
        simulator.schedule_at(static_cast<double>(epoch), [&, epoch](Simulator&) {
            path_cache.advance_epoch();
            EpochOutcome out;
            out.epoch = epoch;

            // Apply this epoch's events.
            for (const ScenarioEvent& ev : events) {
                if (ev.epoch != epoch) continue;
                out.applied_events.push_back(describe(ev));
                switch (ev.kind) {
                    case ScenarioEvent::Kind::kDemandGrowth:
                        tm = topo::scale_traffic(tm, ev.factor);
                        break;
                    case ScenarioEvent::Kind::kBpRecall: {
                        const market::BpId bp{ev.bp};
                        pool = market::with_withheld_links(pool, bp,
                                                           recall_links(pool, bp, ev.fraction));
                        break;
                    }
                    case ScenarioEvent::Kind::kLinkFailure: {
                        // Fail random links from the last provisioned
                        // backbone (failures hit in-service circuits).
                        if (!last_backbone) break;
                        auto active = last_backbone->selected.active_links();
                        std::vector<net::LinkId> non_virtual;
                        for (const net::LinkId l : active) {
                            if (pool.is_offered(l) && !pool.is_virtual(l)) {
                                non_virtual.push_back(l);
                            }
                        }
                        const std::size_t k = std::min(ev.count, non_virtual.size());
                        const auto picks =
                            rng.sample_without_replacement(non_virtual.size(), k);
                        for (const std::size_t p : picks) {
                            const net::LinkId failed = non_virtual[p];
                            pool = market::with_withheld_links(pool, pool.owner(failed),
                                                               {failed});
                        }
                        break;
                    }
                    case ScenarioEvent::Kind::kPriceShift:
                        pool = market::with_scaled_bid(pool, market::BpId{ev.bp}, ev.factor);
                        break;
                }
            }

            out.offered_links = pool.offered_links().size();
            out.total_demand_gbps = net::total_demand(tm);

            auto backbone = core::provision(pool, tm, request);
            if (backbone) {
                out.provisioned = true;
                out.outlay = backbone->monthly_outlay();
                out.selected_links = backbone->auction.selection.links.size();

                double pob_sum = 0.0;
                std::size_t winners = 0;
                for (const market::BpOutcome& bo : backbone->auction.outcomes) {
                    if (!bo.selected_links.empty()) {
                        pob_sum += bo.pob;
                        ++winners;
                    }
                }
                out.mean_pob = winners > 0 ? pob_sum / static_cast<double>(winners) : 0.0;

                std::vector<bool> is_virtual(pool.graph().link_count(), false);
                for (const net::LinkId l : pool.virtual_links().links()) {
                    is_virtual[l.index()] = true;
                }
                out.flows = core::simulate_flows(backbone->selected, tm, is_virtual, flow_opt);
                last_backbone = std::move(backbone);
            }
            outcomes.push_back(std::move(out));
            if (opt.on_epoch) opt.on_epoch(outcomes.back());
        });
    }
    simulator.run();
    POC_ENSURES(outcomes.size() == opt.epochs);
    return outcomes;
}

}  // namespace poc::sim
