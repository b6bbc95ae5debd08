// Incremental re-clearing identity (DESIGN.md §7): warm-started
// auctions driven by market::DeltaReclearState, and repair-served
// path caches, must be bit-identical to cold solves everywhere the
// sim layers can take the incremental path — randomized flip walks
// across thread counts and cache modes, the k-link cutover boundary,
// chaos off-cycle re-auctions, and the journaled epoch runtime.
#include <gtest/gtest.h>

#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "market/delta_reclear.hpp"
#include "market/vcg.hpp"
#include "sim/chaos.hpp"
#include "sim/runtime.hpp"
#include "sim/scenario.hpp"
#include "util/rng.hpp"

namespace poc {
namespace {

using util::Money;

/// Byte-exact comparison key for an optional auction result, with the
/// work-accounting diagnostics scrubbed (they legitimately differ
/// between warm and cold engines; bit-identity covers the economic
/// outcome — same convention as test_runtime.cpp).
std::string auction_bytes(const std::optional<market::AuctionResult>& a) {
    util::BinaryWriter w;
    w.boolean(a.has_value());
    if (a) {
        market::AuctionResult scrubbed = *a;
        scrubbed.oracle_queries = 0;
        scrubbed.oracle_cache_hits = 0;
        scrubbed.solve_cache_hits = 0;
        market::write_auction_result(w, scrubbed);
    }
    return w.bytes();
}

/// A parallel-rich market: 6 routers, 18 links (doubled ring plus
/// doubled chords) split across 3 BPs, one of which posts volume
/// discounts so the per-link pricing digests exercise tier schedules.
/// Epoch pools are cut from the master offer list by a down-mask, so
/// consecutive pools differ by exactly the flipped links.
struct DeltaMarketFixture {
    net::Graph graph;
    std::vector<net::LinkId> links;
    std::vector<std::size_t> owner;      // link index -> BP index
    std::vector<Money> price;            // link index -> base price
    market::VirtualLinkContract contract;
    net::TrafficMatrix tm;

    DeltaMarketFixture() {
        net::GraphBuilder builder;
        builder.add_nodes(6);
        util::Rng rng(4242);
        const auto add = [&](std::size_t u, std::size_t v) {
            const net::LinkId l = builder.add_link(net::NodeId{u}, net::NodeId{v}, 10.0,
                                                   rng.uniform(1.0, 4.0));
            links.push_back(l);
            owner.push_back(links.size() % 3);
            price.push_back(Money::from_dollars(rng.uniform(80.0, 400.0)));
        };
        for (std::size_t i = 0; i < 6; ++i) {
            add(i, (i + 1) % 6);
            add(i, (i + 1) % 6);
        }
        for (std::size_t i = 0; i < 3; ++i) {
            add(i, i + 3);
            add(i, i + 3);
        }
        graph = std::move(builder).build();
        tm = {{net::NodeId{0u}, net::NodeId{3u}, 2.0},
              {net::NodeId{1u}, net::NodeId{5u}, 3.0},
              {net::NodeId{4u}, net::NodeId{2u}, 2.5}};
    }

    /// Offer every link whose down-flag is false.
    market::OfferPool pool(const std::vector<bool>& down) const {
        std::vector<market::BpBid> bids;
        for (std::size_t b = 0; b < 3; ++b) {
            bids.emplace_back(market::BpId{b}, "BP" + std::to_string(b + 1));
        }
        bids[0].add_discount({3, 0.05});
        bids[0].add_discount({6, 0.10});
        for (std::size_t i = 0; i < links.size(); ++i) {
            if (!down[i]) bids[owner[i]].offer(links[i], price[i]);
        }
        return market::OfferPool(bids, contract, graph);
    }

    market::AcceptabilityOracle oracle(const net::TrafficMatrix& traffic) const {
        market::OracleOptions oopt;
        oopt.fidelity = market::OracleFidelity::kFast;
        return market::AcceptabilityOracle(graph, traffic, market::ConstraintKind::kLoad,
                                           oopt);
    }

    core::ProvisioningRequest request() const {
        core::ProvisioningRequest req;
        req.constraint = market::ConstraintKind::kLoad;
        market::OracleOptions oopt;
        oopt.fidelity = market::OracleFidelity::kFast;
        req.oracle = oopt;
        return req;
    }
};

// --- Satellite: randomized epoch walks, 1..k flips per step, across
// threads x cache, with a mid-walk demand change forcing one cold
// fallback. Warm bytes == cold bytes every epoch, and every engine
// config reproduces the same byte stream. ---
TEST(DeltaIdentity, RandomFlipWalkMatchesColdAcrossThreadsAndCache) {
    const DeltaMarketFixture fx;
    constexpr std::size_t kEpochs = 10;

    std::vector<std::string> reference;  // warm bytes from the first config
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
        for (const bool cache : {false, true}) {
            const std::string tag =
                "threads=" + std::to_string(threads) + " cache=" + std::to_string(cache);
            // Same seed per config: every config walks the same pools.
            util::Rng rng(777);
            std::vector<bool> down(fx.links.size(), false);
            net::TrafficMatrix tm = fx.tm;
            market::DeltaReclearState state;

            std::vector<std::string> walk;
            for (std::size_t epoch = 0; epoch < kEpochs; ++epoch) {
                const std::size_t flips = 1 + static_cast<std::size_t>(
                                                  rng.uniform_int(std::uint64_t{8}));
                for (const std::size_t i :
                     rng.sample_without_replacement(fx.links.size(), flips)) {
                    down[i] = !down[i];
                }
                if (epoch == 5) {
                    for (auto& d : tm) d.gbps *= 1.25;  // context change -> cold
                }
                const market::OfferPool pool = fx.pool(down);
                const market::AcceptabilityOracle oracle = fx.oracle(tm);

                market::AuctionOptions warm_opt;
                warm_opt.threads = threads;
                warm_opt.parallel_min_pivots = 1;
                warm_opt.cache = cache;
                warm_opt.delta = &state;
                market::AuctionOptions cold_opt = warm_opt;
                cold_opt.delta = nullptr;

                const auto warm = market::run_auction(pool, oracle, warm_opt);
                const auto cold = market::run_auction(pool, oracle, cold_opt);
                EXPECT_EQ(auction_bytes(warm), auction_bytes(cold))
                    << tag << " epoch " << epoch;
                walk.push_back(auction_bytes(warm));
            }

            const auto st = state.stats();
            EXPECT_EQ(st.runs, kEpochs) << tag;
            EXPECT_GE(st.warm, 1u) << tag;       // small deltas reuse the memo
            EXPECT_GE(st.cold, 2u) << tag;       // the prime + the demand change
            EXPECT_EQ(st.warm + st.cold, st.runs) << tag;

            if (reference.empty()) {
                reference = walk;
            } else {
                EXPECT_EQ(walk, reference) << tag;
            }
        }
    }
}

// --- Satellite: the k-link cutover. Deltas of exactly k-1, k, and
// k+1 links against a pinned threshold: warm at k-1 and k, cold at
// k+1, bit-identical to a cold solve in all three. Also pins the
// shipped default so a drive-by change shows up here. ---
TEST(DeltaIdentity, CutoverBoundaryWarmAtThresholdColdBeyond) {
    EXPECT_EQ(market::AuctionOptions{}.delta_max_links, 8u);

    const DeltaMarketFixture fx;
    constexpr std::size_t kThreshold = 4;
    for (const std::size_t delta : {kThreshold - 1, kThreshold, kThreshold + 1}) {
        market::DeltaReclearState state;
        market::AuctionOptions opt;
        opt.delta = &state;
        opt.delta_max_links = kThreshold;

        const std::vector<bool> all_up(fx.links.size(), false);
        const market::AcceptabilityOracle oracle = fx.oracle(fx.tm);
        (void)market::run_auction(fx.pool(all_up), oracle, opt);  // cold prime
        ASSERT_EQ(state.stats().cold, 1u);

        std::vector<bool> down = all_up;
        for (std::size_t i = 0; i < delta; ++i) down[i] = true;
        const market::OfferPool pool = fx.pool(down);
        const auto warm = market::run_auction(pool, oracle, opt);

        market::AuctionOptions cold_opt;
        const auto cold = market::run_auction(pool, oracle, cold_opt);
        EXPECT_EQ(auction_bytes(warm), auction_bytes(cold)) << "delta " << delta;

        const auto st = state.stats();
        EXPECT_EQ(st.runs, 2u) << "delta " << delta;
        if (delta <= kThreshold) {
            EXPECT_EQ(st.warm, 1u) << "delta " << delta;
            EXPECT_EQ(st.delta_links, delta) << "delta " << delta;
        } else {
            EXPECT_EQ(st.warm, 0u) << "delta " << delta;
            EXPECT_EQ(st.cold, 2u) << "delta " << delta;
        }
    }
}

// --- Satellite: the chaos engine's off-cycle re-auction path. A full
// fault trace run with warm re-clearing and tree repair on must
// reproduce the cold run's SLA series and money flows exactly. ---
TEST(DeltaIdentity, ChaosReauctionPathIdenticalWarmVersusCold) {
    const DeltaMarketFixture fx;
    const std::vector<bool> all_up(fx.links.size(), false);
    const market::OfferPool pool = fx.pool(all_up);

    const auto srlgs = sim::shared_risk_groups(pool.graph());
    sim::FaultInjectorOptions fopt;
    fopt.epochs = 6;
    fopt.intensity = 1.5;
    fopt.seed = 99;
    const auto trace = sim::draw_fault_trace(pool, srlgs, fopt);
    ASSERT_FALSE(trace.empty());

    sim::ChaosOptions incremental;
    incremental.epochs = 6;
    incremental.request = fx.request();
    incremental.use_path_cache = true;
    incremental.path_cache_repair_budget = 8;
    incremental.use_delta_reclear = true;

    sim::ChaosOptions cold = incremental;
    cold.use_path_cache = false;
    cold.path_cache_repair_budget = 0;
    cold.use_delta_reclear = false;

    const sim::ChaosOutcome a = sim::run_chaos(pool, fx.tm, trace, incremental);
    const sim::ChaosOutcome b = sim::run_chaos(pool, fx.tm, trace, cold);

    ASSERT_TRUE(a.provisioned);
    ASSERT_EQ(a.provisioned, b.provisioned);
    // The trace must actually exercise the off-cycle re-auction path,
    // or this test proves nothing about warm re-clearing under chaos.
    ASSERT_GE(a.reauction_count, 1u);
    ASSERT_EQ(a.sla.size(), b.sla.size());
    for (std::size_t i = 0; i < a.sla.size(); ++i) {
        const sim::SlaRecord& ra = a.sla[i];
        const sim::SlaRecord& rb = b.sla[i];
        EXPECT_EQ(ra.offered_gbps, rb.offered_gbps) << "epoch " << i;
        EXPECT_EQ(ra.delivered_gbps, rb.delivered_gbps) << "epoch " << i;
        EXPECT_EQ(ra.delivered_fraction, rb.delivered_fraction) << "epoch " << i;
        EXPECT_EQ(ra.stretch, rb.stretch) << "epoch " << i;
        EXPECT_EQ(ra.virtual_share, rb.virtual_share) << "epoch " << i;
        EXPECT_EQ(ra.links_down, rb.links_down) << "epoch " << i;
        EXPECT_EQ(ra.links_degraded, rb.links_degraded) << "epoch " << i;
        EXPECT_EQ(ra.emergency_virtual_cost, rb.emergency_virtual_cost) << "epoch " << i;
        EXPECT_EQ(ra.outlay, rb.outlay) << "epoch " << i;
        EXPECT_EQ(ra.reauction_triggered, rb.reauction_triggered) << "epoch " << i;
        EXPECT_EQ(ra.degraded_mode, rb.degraded_mode) << "epoch " << i;
    }
    EXPECT_EQ(a.reauction_count, b.reauction_count);
    EXPECT_EQ(a.failed_reauctions, b.failed_reauctions);
    EXPECT_EQ(a.min_delivered_fraction, b.min_delivered_fraction);
    EXPECT_EQ(a.mean_delivered_fraction, b.mean_delivered_fraction);
    EXPECT_EQ(a.total_undelivered_gbps, b.total_undelivered_gbps);
    EXPECT_EQ(a.epochs_to_restore, b.epochs_to_restore);
    EXPECT_EQ(a.total_recovery_cost, b.total_recovery_cost);
    EXPECT_EQ(a.baseline_outlay, b.baseline_outlay);
}

// --- Satellite: scripted scenarios (recalls + failures are exactly
// the small offer-set deltas the warm path targets). ---
TEST(DeltaIdentity, ScenarioOutcomesIdenticalWarmVersusCold) {
    const DeltaMarketFixture fx;
    const std::vector<bool> all_up(fx.links.size(), false);
    const market::OfferPool pool = fx.pool(all_up);

    std::vector<sim::ScenarioEvent> events(3);
    events[0].kind = sim::ScenarioEvent::Kind::kLinkFailure;
    events[0].epoch = 1;
    events[0].count = 2;
    events[1].kind = sim::ScenarioEvent::Kind::kBpRecall;
    events[1].epoch = 2;
    events[1].bp = 1;
    events[1].fraction = 0.3;
    events[2].kind = sim::ScenarioEvent::Kind::kLinkFailure;
    events[2].epoch = 3;
    events[2].count = 1;

    sim::ScenarioOptions incremental;
    incremental.epochs = 4;
    incremental.request = fx.request();
    sim::ScenarioOptions cold = incremental;
    cold.use_path_cache = false;
    cold.path_cache_repair_budget = 0;
    cold.use_delta_reclear = false;

    const auto a = sim::run_scenario(pool, fx.tm, events, incremental);
    const auto b = sim::run_scenario(pool, fx.tm, events, cold);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].provisioned, b[i].provisioned) << "epoch " << i;
        EXPECT_EQ(a[i].outlay, b[i].outlay) << "epoch " << i;
        EXPECT_EQ(a[i].selected_links, b[i].selected_links) << "epoch " << i;
        EXPECT_EQ(a[i].mean_pob, b[i].mean_pob) << "epoch " << i;
        EXPECT_EQ(a[i].flows.total_routed_gbps, b[i].flows.total_routed_gbps)
            << "epoch " << i;
        EXPECT_EQ(a[i].flows.max_utilization, b[i].flows.max_utilization) << "epoch " << i;
        EXPECT_EQ(a[i].flows.stretch, b[i].flows.stretch) << "epoch " << i;
    }
}

// --- Satellite: the journaled epoch runtime. Warm re-clearing must
// leave auction bytes, the ledger, and the RNG stream bit-identical
// to the cold engine, and flipping the knob must not invalidate an
// existing journal (it is an engine knob, not scenario meta). ---
TEST(DeltaIdentity, JournaledRuntimeIdenticalAndResumableAcrossKnobFlip) {
    const DeltaMarketFixture fx;
    const std::vector<bool> all_up(fx.links.size(), false);
    const market::OfferPool pool = fx.pool(all_up);

    const auto dir = std::filesystem::temp_directory_path() / "poc_delta_identity_test";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    sim::RuntimeOptions warm_opt;
    warm_opt.epochs = 4;
    warm_opt.seed = 11;
    warm_opt.demand_jitter = 0.0;  // stable demand: epochs 1..3 re-clear warm
    warm_opt.request = fx.request();
    warm_opt.journal_path = (dir / "delta.journal").string();
    warm_opt.use_delta_reclear = true;

    sim::RuntimeOptions cold_opt = warm_opt;
    cold_opt.journal_path.clear();
    cold_opt.use_delta_reclear = false;
    cold_opt.use_path_cache = false;
    cold_opt.path_cache_repair_budget = 0;

    const auto warm = sim::EpochRuntime(pool, fx.tm, warm_opt).run();
    const auto cold = sim::EpochRuntime(pool, fx.tm, cold_opt).run();

    EXPECT_EQ(warm.ledger.transfers(), cold.ledger.transfers());
    EXPECT_TRUE(warm.final_rng == cold.final_rng);
    ASSERT_EQ(warm.auctions.size(), cold.auctions.size());
    for (std::size_t i = 0; i < warm.auctions.size(); ++i) {
        EXPECT_EQ(auction_bytes(warm.auctions[i]), auction_bytes(cold.auctions[i]))
            << "epoch " << i;
    }

    // Replay the warm run's journal with the knob flipped off: same
    // meta fingerprint, full replay, identical outcome.
    sim::RuntimeOptions replay_opt = warm_opt;
    replay_opt.use_delta_reclear = false;
    const auto replayed = sim::EpochRuntime(pool, fx.tm, replay_opt).run();
    EXPECT_EQ(replayed.replayed_epochs, warm_opt.epochs);
    EXPECT_EQ(replayed.ledger.transfers(), warm.ledger.transfers());
    ASSERT_EQ(replayed.auctions.size(), warm.auctions.size());
    for (std::size_t i = 0; i < replayed.auctions.size(); ++i) {
        EXPECT_EQ(auction_bytes(replayed.auctions[i]), auction_bytes(warm.auctions[i]))
            << "epoch " << i;
    }

    std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace poc
