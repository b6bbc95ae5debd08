#include "market/vcg.hpp"

#include <algorithm>
#include <exception>
#include <utility>

#include "market/auction_cache.hpp"
#include "market/delta_reclear.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace poc::market {

const BpOutcome& AuctionResult::outcome(BpId bp) const {
    const auto it = outcome_index.find(bp);
    POC_EXPECTS(it != outcome_index.end());
    return outcomes[it->second];
}

namespace {

/// One winner-determination solve, optionally memoized. The cache key
/// is the canonical available set: offered_links() and
/// offered_links_without() both produce ascending id order.
std::optional<Selection> solve(const OfferPool& pool, const Oracle& oracle,
                               const std::vector<net::LinkId>& available,
                               const AuctionOptions& opt, AuctionCache* cache) {
    if (cache) {
        if (const auto hit = cache->find_solve(available)) return *hit;
    }
    auto result = opt.exact ? select_links_exact(pool, oracle, available)
                            : select_links(pool, oracle, available, opt.windet);
    if (cache) cache->store_solve(available, result);
    return result;
}

/// One BP's Clarke pivot. Reads only shared-const state (pool, oracle,
/// SL) plus the thread-safe cache, and touches no other BP's outcome —
/// pivots are independent by construction, so the engine may run them
/// concurrently and the results cannot depend on scheduling.
BpOutcome clarke_pivot(const OfferPool& pool, const Oracle& oracle, const Selection& sl,
                       const BpBid& bid, const AuctionOptions& opt, AuctionCache* cache) {
    // Telemetry only (obs is a pure side channel): per-pivot latency
    // histogram plus a span in the epoch timeline.
    POC_OBS_SPAN("market.auction.pivot");
    POC_OBS_TIMER_MS("market.auction.pivot_ms", 0.0, 500.0, 50);
    POC_OBS_INC("market.auction.pivots");
    BpOutcome out;
    out.bp = bid.bp();
    out.name = bid.name();
    out.selected_links = pool.owned_subset(sl.links, bid.bp());
    const auto own_cost = bid.cost(out.selected_links);
    POC_ASSERT(own_cost.has_value());  // winners are always priced
    out.bid_cost = *own_cost;

    // Clarke pivot: re-solve with this BP's offers withdrawn.
    const auto sl_without = solve(pool, oracle, pool.offered_links_without(bid.bp()), opt, cache);
    if (!sl_without) {
        // A(OL - L_alpha) empty: the paper's assumption is violated;
        // the pivot term is undefined. Pay the declared cost and
        // flag it.
        out.pivot_defined = false;
        out.payment = out.bid_cost;
    } else {
        out.cost_without = sl_without->cost;
        // The heuristic solver can return SL_-alpha worse than it
        // found SL (or, rarely, slightly better); clamp the
        // externality at zero so payments respect the VCG lower
        // bound P_alpha >= C_alpha(SL_alpha). With the exact solver
        // the externality is non-negative by optimality.
        const util::Money externality = std::max(util::Money{}, sl_without->cost - sl.cost);
        out.payment = out.bid_cost + externality;
    }
    out.pob =
        out.bid_cost.is_zero() ? 0.0 : util::ratio(out.payment - out.bid_cost, out.bid_cost);
    return out;
}

}  // namespace

bool parallel_pivots_engaged(const AuctionOptions& opt, std::size_t pivot_count) {
    return opt.threads > 1 && pivot_count > 1 && pivot_count >= opt.parallel_min_pivots;
}

std::optional<AuctionResult> run_auction(const OfferPool& pool, const Oracle& oracle,
                                         const AuctionOptions& opt) {
    POC_OBS_SPAN("market.run_auction");
    POC_OBS_INC("market.auction.runs");
    const std::size_t queries_before = oracle.query_count();
    // The memoization layer: per-auction by default (verdicts and
    // solves are pure functions of the link set only for a fixed pool,
    // oracle, and option set); carried across auctions when a delta
    // re-clearing state is attached and the context certifies the
    // carried entries stay exact (market/delta_reclear.hpp). Either
    // way the engine's control flow is untouched — memo replay is the
    // only difference — so results are bit-identical to cold solves.
    AuctionCache* cache_ptr = nullptr;
    if (opt.delta != nullptr) {
        if (const auto context = delta_context(pool, oracle, opt)) {
            opt.delta->begin_run(*context, delta_offer_digests(pool), opt.delta_max_links);
            cache_ptr = &opt.delta->cache();
        }
    }
    std::optional<AuctionCache> cache;
    if (cache_ptr == nullptr && opt.cache) {
        cache.emplace();
        cache_ptr = &*cache;
    }
    std::optional<CachingOracle> caching_oracle;
    const Oracle* engine_oracle = &oracle;
    if (cache_ptr != nullptr) {
        caching_oracle.emplace(oracle, *cache_ptr);
        engine_oracle = &*caching_oracle;
    }
    // Carried caches have lifetime tallies; difference them so the
    // result's diagnostics stay per-auction.
    const AuctionCache::Stats cache_before =
        cache_ptr != nullptr ? cache_ptr->stats() : AuctionCache::Stats{};

    const auto sl = solve(pool, *engine_oracle, pool.offered_links(), opt, cache_ptr);
    if (!sl) {
        POC_OBS_INC("market.auction.infeasible");
        POC_OBS_COUNT("market.auction.oracle_queries", oracle.query_count() - queries_before);
        return std::nullopt;
    }

    AuctionResult result;
    result.selection = *sl;

    std::vector<net::LinkId> selected_virtual;
    for (const net::LinkId l : sl->links) {
        if (pool.is_virtual(l)) selected_virtual.push_back(l);
    }
    result.virtual_cost = pool.virtual_links().cost(selected_virtual);
    result.total_outlay = result.virtual_cost;

    const std::vector<BpBid>& bids = pool.bids();
    result.outcomes.resize(bids.size());
    if (parallel_pivots_engaged(opt, bids.size())) {
        std::vector<std::exception_ptr> errors(bids.size());
        util::ThreadPool threads(opt.threads);
        threads.parallel_for(bids.size(), [&](std::size_t i) {
            try {
                result.outcomes[i] =
                    clarke_pivot(pool, *engine_oracle, *sl, bids[i], opt, cache_ptr);
            } catch (...) {
                errors[i] = std::current_exception();
            }
        });
        // Rethrow the first error in bid order, so failures too are
        // deterministic under concurrency.
        for (const std::exception_ptr& error : errors) {
            if (error) std::rethrow_exception(error);
        }
    } else {
        for (std::size_t i = 0; i < bids.size(); ++i) {
            result.outcomes[i] = clarke_pivot(pool, *engine_oracle, *sl, bids[i], opt, cache_ptr);
        }
    }

    // Serial assembly in bid order: the totals and the lookup index do
    // not depend on pivot completion order.
    result.outcome_index.reserve(result.outcomes.size());
    for (std::size_t i = 0; i < result.outcomes.size(); ++i) {
        result.total_outlay += result.outcomes[i].payment;
        result.outcome_index.emplace(result.outcomes[i].bp, i);
    }
    result.oracle_queries = oracle.query_count();
    if (cache_ptr) {
        const AuctionCache::Stats stats = cache_ptr->stats();
        result.oracle_cache_hits = stats.verdict_hits - cache_before.verdict_hits;
        result.solve_cache_hits = stats.solve_hits - cache_before.solve_hits;
        POC_OBS_COUNT("market.auction.oracle_cache_hits", result.oracle_cache_hits);
        POC_OBS_COUNT("market.auction.solve_cache_hits", result.solve_cache_hits);
    }
    // Real oracle evaluations attributable to this auction (exact: the
    // atomic lifetime count is differenced around the run).
    POC_OBS_COUNT("market.auction.oracle_queries", oracle.query_count() - queries_before);
    POC_OBS_COUNT("market.auction.outlay_microusd", result.total_outlay.micros());
    return result;
}

namespace {

void write_links(util::BinaryWriter& w, const std::vector<net::LinkId>& links) {
    w.u64(links.size());
    for (const net::LinkId l : links) w.u32(l.value());
}

std::vector<net::LinkId> read_links(util::BinaryReader& r) {
    const std::uint64_t n = r.u64();
    std::vector<net::LinkId> links;
    links.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) links.push_back(net::LinkId{r.u32()});
    return links;
}

}  // namespace

void write_auction_result(util::BinaryWriter& w, const AuctionResult& result) {
    write_links(w, result.selection.links);
    w.i64(result.selection.cost.micros());
    w.i64(result.virtual_cost.micros());
    w.u64(result.outcomes.size());
    for (const BpOutcome& o : result.outcomes) {
        w.u32(o.bp.value());
        w.str(o.name);
        write_links(w, o.selected_links);
        w.i64(o.bid_cost.micros());
        w.i64(o.cost_without.micros());
        w.i64(o.payment.micros());
        w.f64(o.pob);
        w.boolean(o.pivot_defined);
    }
    w.i64(result.total_outlay.micros());
    w.u64(result.oracle_queries);
    w.u64(result.oracle_cache_hits);
    w.u64(result.solve_cache_hits);
}

AuctionResult read_auction_result(util::BinaryReader& r) {
    AuctionResult result;
    result.selection.links = read_links(r);
    result.selection.cost = util::Money::from_micros(r.i64());
    result.virtual_cost = util::Money::from_micros(r.i64());
    const std::uint64_t n = r.u64();
    result.outcomes.resize(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        BpOutcome& o = result.outcomes[i];
        o.bp = BpId{r.u32()};
        o.name = r.str();
        o.selected_links = read_links(r);
        o.bid_cost = util::Money::from_micros(r.i64());
        o.cost_without = util::Money::from_micros(r.i64());
        o.payment = util::Money::from_micros(r.i64());
        o.pob = r.f64();
        o.pivot_defined = r.boolean();
    }
    result.total_outlay = util::Money::from_micros(r.i64());
    result.oracle_queries = r.u64();
    result.oracle_cache_hits = r.u64();
    result.solve_cache_hits = r.u64();
    result.outcome_index.reserve(result.outcomes.size());
    for (std::size_t i = 0; i < result.outcomes.size(); ++i) {
        result.outcome_index.emplace(result.outcomes[i].bp, i);
    }
    return result;
}

}  // namespace poc::market
