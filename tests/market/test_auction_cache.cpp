#include "market/auction_cache.hpp"

#include <gtest/gtest.h>

#include "helpers/market.hpp"
#include "util/thread_pool.hpp"

namespace poc::market {
namespace {

using util::Money;
using util::operator""_usd;

std::vector<net::LinkId> links(std::initializer_list<std::uint32_t> ids) {
    std::vector<net::LinkId> out;
    for (const std::uint32_t id : ids) out.emplace_back(id);
    return out;
}

TEST(AuctionCache, VerdictRoundTrip) {
    AuctionCache cache;
    EXPECT_FALSE(cache.find_verdict(links({0, 2})).has_value());
    cache.store_verdict(links({0, 2}), true);
    cache.store_verdict(links({1}), false);
    EXPECT_EQ(cache.find_verdict(links({0, 2})), std::optional<bool>(true));
    EXPECT_EQ(cache.find_verdict(links({1})), std::optional<bool>(false));
    // Different canonical sets are distinct entries.
    EXPECT_FALSE(cache.find_verdict(links({0})).has_value());
    EXPECT_FALSE(cache.find_verdict(links({0, 1, 2})).has_value());
}

TEST(AuctionCache, SolveMemoDistinguishesInfeasibleFromAbsent) {
    AuctionCache cache;
    EXPECT_FALSE(cache.find_solve(links({3})).has_value());

    Selection sel;
    sel.links = links({3});
    sel.cost = 120_usd;
    cache.store_solve(links({3}), sel);
    cache.store_solve(links({4}), std::nullopt);  // cached infeasible

    const auto hit = cache.find_solve(links({3}));
    ASSERT_TRUE(hit.has_value());
    ASSERT_TRUE(hit->has_value());
    EXPECT_EQ((*hit)->links, sel.links);
    EXPECT_EQ((*hit)->cost, sel.cost);

    const auto infeasible = cache.find_solve(links({4}));
    ASSERT_TRUE(infeasible.has_value());
    EXPECT_FALSE(infeasible->has_value());
}

TEST(AuctionCache, StatsCountHitsAndMisses) {
    AuctionCache cache;
    cache.store_verdict(links({0}), true);
    (void)cache.find_verdict(links({0}));  // hit
    (void)cache.find_verdict(links({1}));  // miss
    (void)cache.find_verdict(links({0}));  // hit
    cache.store_solve(links({0}), std::nullopt);
    (void)cache.find_solve(links({0}));  // hit
    (void)cache.find_solve(links({9}));  // miss
    const AuctionCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.verdict_hits, 2u);
    EXPECT_EQ(stats.verdict_misses, 1u);
    EXPECT_EQ(stats.solve_hits, 1u);
    EXPECT_EQ(stats.solve_misses, 1u);
}

TEST(CachingOracle, AnswersFromCacheWithoutReevaluating) {
    test::ParallelLinksFixture fx;
    const AcceptabilityOracle inner(fx.graph, fx.demand(8.0), ConstraintKind::kLoad);
    AuctionCache cache;
    const CachingOracle cached(inner, cache);

    const net::Subgraph sg(fx.graph);
    const bool first = cached.accepts(sg);
    EXPECT_EQ(inner.query_count(), 1u);
    for (int i = 0; i < 5; ++i) {
        EXPECT_EQ(cached.accepts(sg), first);
    }
    // The wrapped oracle was evaluated exactly once; the cache answered
    // the rest, and counted them.
    EXPECT_EQ(inner.query_count(), 1u);
    EXPECT_EQ(cached.query_count(), 6u);
    EXPECT_EQ(cache.stats().verdict_hits, 5u);
}

TEST(CachingOracle, DistinctActiveSetsAreDistinctEntries) {
    test::ParallelLinksFixture fx;
    const AcceptabilityOracle inner(fx.graph, fx.demand(8.0), ConstraintKind::kLoad);
    AuctionCache cache;
    const CachingOracle cached(inner, cache);

    net::Subgraph all(fx.graph);
    net::Subgraph two(fx.graph);
    two.set_active(net::LinkId{0u}, false);
    EXPECT_EQ(cached.accepts(all), inner.accepts(all));
    EXPECT_EQ(cached.accepts(two), inner.accepts(two));
    EXPECT_EQ(cache.stats().verdict_misses, 2u);
}

TEST(Oracle, QueryCountIsExactUnderConcurrency) {
    test::ParallelLinksFixture fx;
    const AcceptabilityOracle oracle(fx.graph, fx.demand(8.0), ConstraintKind::kLoad);

    constexpr std::size_t kQueries = 400;
    util::ThreadPool pool(8);
    pool.parallel_for(kQueries, [&](std::size_t) {
        const net::Subgraph sg(fx.graph);
        (void)oracle.accepts(sg);
    });
    EXPECT_EQ(oracle.query_count(), kQueries);
}

}  // namespace
}  // namespace poc::market
