// Sharded data-plane identity (DESIGN.md §9): with the kPrimary
// routing mode, every engine knob of the sharded flow engine — shard
// count, thread count, path-cache mode — must leave chaos walks,
// scripted scenarios, and the journaled epoch runtime bit-identical.
// Shard count is an engine knob and therefore excluded from the
// journal meta fingerprint (a journaled run resumes under any shard
// count); flow_routing is semantic and fingerprinted, so flipping it
// against an existing journal must be refused.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "sim/chaos.hpp"
#include "sim/runtime.hpp"
#include "sim/scenario.hpp"
#include "util/journal.hpp"
#include "util/rng.hpp"

namespace poc {
namespace {

using util::Money;

/// Same parallel-rich market as test_delta_identity.cpp: 6 routers,
/// 18 links across 3 BPs, pools cut from a down-mask.
struct ShardMarketFixture {
    net::Graph graph;
    std::vector<net::LinkId> links;
    std::vector<std::size_t> owner;
    std::vector<Money> price;
    market::VirtualLinkContract contract;
    net::TrafficMatrix tm;

    ShardMarketFixture() {
        net::GraphBuilder builder;
        builder.add_nodes(6);
        util::Rng rng(2424);
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
        // Several demands per source so the SoA blocks are non-trivial.
        tm = {{net::NodeId{0u}, net::NodeId{3u}, 2.0},
              {net::NodeId{0u}, net::NodeId{4u}, 1.5},
              {net::NodeId{1u}, net::NodeId{5u}, 3.0},
              {net::NodeId{2u}, net::NodeId{5u}, 1.0},
              {net::NodeId{4u}, net::NodeId{2u}, 2.5}};
    }

    market::OfferPool pool() const {
        std::vector<market::BpBid> bids;
        for (std::size_t b = 0; b < 3; ++b) {
            bids.emplace_back(market::BpId{b}, "BP" + std::to_string(b + 1));
        }
        for (std::size_t i = 0; i < links.size(); ++i) {
            bids[owner[i]].offer(links[i], price[i]);
        }
        return market::OfferPool(bids, contract, graph);
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

void expect_sla_identical(const std::vector<sim::SlaRecord>& a,
                          const std::vector<sim::SlaRecord>& b, const std::string& tag) {
    ASSERT_EQ(a.size(), b.size()) << tag;
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].offered_gbps, b[i].offered_gbps) << tag << " epoch " << i;
        EXPECT_EQ(a[i].delivered_gbps, b[i].delivered_gbps) << tag << " epoch " << i;
        EXPECT_EQ(a[i].delivered_fraction, b[i].delivered_fraction)
            << tag << " epoch " << i;
        EXPECT_EQ(a[i].stretch, b[i].stretch) << tag << " epoch " << i;
        EXPECT_EQ(a[i].virtual_share, b[i].virtual_share) << tag << " epoch " << i;
        EXPECT_EQ(a[i].links_down, b[i].links_down) << tag << " epoch " << i;
        EXPECT_EQ(a[i].outlay, b[i].outlay) << tag << " epoch " << i;
        EXPECT_EQ(a[i].reauction_triggered, b[i].reauction_triggered)
            << tag << " epoch " << i;
        EXPECT_EQ(a[i].degraded_mode, b[i].degraded_mode) << tag << " epoch " << i;
    }
}

// --- Chaos fault walks: one fault trace, kPrimary routing, every
// shard/thread/cache config reproduces the same SLA series and money
// flows bit for bit. ---
TEST(ShardIdentity, ChaosFaultWalkIdenticalAcrossShardConfigs) {
    const ShardMarketFixture fx;
    const market::OfferPool pool = fx.pool();

    const auto srlgs = sim::shared_risk_groups(pool.graph());
    sim::FaultInjectorOptions fopt;
    fopt.epochs = 6;
    fopt.intensity = 1.5;
    fopt.seed = 99;
    const auto trace = sim::draw_fault_trace(pool, srlgs, fopt);
    ASSERT_FALSE(trace.empty());

    sim::ChaosOptions base;
    base.epochs = 6;
    base.request = fx.request();
    base.flow_routing = core::FlowRouting::kPrimary;

    sim::ChaosOutcome reference;
    bool have_reference = false;
    for (const std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                                     std::size_t{8}}) {
        for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
            for (const bool cache : {false, true}) {
                const std::string tag = "shards=" + std::to_string(shards) +
                                        " threads=" + std::to_string(threads) +
                                        " cache=" + std::to_string(cache);
                sim::ChaosOptions opt = base;
                opt.flow_shards = shards;
                opt.flow_threads = threads;
                opt.use_path_cache = cache;
                opt.path_cache_repair_budget = cache ? 8 : 0;
                const sim::ChaosOutcome got = sim::run_chaos(pool, fx.tm, trace, opt);
                ASSERT_TRUE(got.provisioned) << tag;
                if (!have_reference) {
                    reference = got;
                    have_reference = true;
                    continue;
                }
                expect_sla_identical(reference.sla, got.sla, tag);
                EXPECT_EQ(reference.reauction_count, got.reauction_count) << tag;
                EXPECT_EQ(reference.min_delivered_fraction, got.min_delivered_fraction)
                    << tag;
                EXPECT_EQ(reference.total_undelivered_gbps, got.total_undelivered_gbps)
                    << tag;
                EXPECT_EQ(reference.total_recovery_cost, got.total_recovery_cost) << tag;
            }
        }
    }
    // Under primary-path routing the routed path IS the shortest path.
    for (const sim::SlaRecord& r : reference.sla) EXPECT_EQ(r.stretch, 1.0);
}

// --- Scripted scenarios: failures shrink the active set mid-run; the
// flow reports stay identical across shard counts. ---
TEST(ShardIdentity, ScenarioOutcomesIdenticalAcrossShardConfigs) {
    const ShardMarketFixture fx;
    const market::OfferPool pool = fx.pool();

    std::vector<sim::ScenarioEvent> events(2);
    events[0].kind = sim::ScenarioEvent::Kind::kLinkFailure;
    events[0].epoch = 1;
    events[0].count = 2;
    events[1].kind = sim::ScenarioEvent::Kind::kLinkFailure;
    events[1].epoch = 2;
    events[1].count = 1;

    sim::ScenarioOptions base;
    base.epochs = 4;
    base.request = fx.request();
    base.flow_routing = core::FlowRouting::kPrimary;

    const auto reference = sim::run_scenario(pool, fx.tm, events, base);
    for (const std::size_t shards : {std::size_t{2}, std::size_t{8}}) {
        sim::ScenarioOptions opt = base;
        opt.flow_shards = shards;
        opt.flow_threads = 2;
        const auto got = sim::run_scenario(pool, fx.tm, events, opt);
        ASSERT_EQ(reference.size(), got.size()) << "shards " << shards;
        for (std::size_t i = 0; i < reference.size(); ++i) {
            const std::string tag = "shards " + std::to_string(shards) + " epoch " +
                                    std::to_string(i);
            EXPECT_EQ(reference[i].provisioned, got[i].provisioned) << tag;
            EXPECT_EQ(reference[i].outlay, got[i].outlay) << tag;
            EXPECT_EQ(reference[i].selected_links, got[i].selected_links) << tag;
            EXPECT_EQ(reference[i].flows.total_routed_gbps, got[i].flows.total_routed_gbps)
                << tag;
            EXPECT_EQ(reference[i].flows.max_utilization, got[i].flows.max_utilization)
                << tag;
            EXPECT_EQ(reference[i].flows.link_load_gbps, got[i].flows.link_load_gbps)
                << tag;
            EXPECT_EQ(reference[i].flows.stretch, got[i].flows.stretch) << tag;
        }
    }
}

// --- The journaled epoch runtime: shard count is an engine knob (a
// journal written at shards=1 replays under shards=4 and vice versa),
// while flow_routing is semantic meta (flipping it against an existing
// journal is refused). ---
TEST(ShardIdentity, JournaledRuntimeResumesAcrossShardCountButNotRoutingFlip) {
    const ShardMarketFixture fx;
    const market::OfferPool pool = fx.pool();

    const auto dir = std::filesystem::temp_directory_path() / "poc_shard_identity_test";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    sim::RuntimeOptions opt1;
    opt1.epochs = 4;
    opt1.seed = 11;
    opt1.request = fx.request();
    opt1.flow_routing = core::FlowRouting::kPrimary;
    opt1.flow_shards = 1;
    opt1.journal_path = (dir / "shard.journal").string();

    sim::RuntimeOptions opt4 = opt1;
    opt4.flow_shards = 4;
    opt4.flow_threads = 2;

    // Fresh runs at different shard counts are bit-identical.
    sim::RuntimeOptions fresh4 = opt4;
    fresh4.journal_path.clear();
    const auto run1 = sim::EpochRuntime(pool, fx.tm, opt1).run();
    const auto run4 = sim::EpochRuntime(pool, fx.tm, fresh4).run();
    EXPECT_EQ(run4.replayed_epochs, 0u);
    EXPECT_TRUE(run1.final_rng == run4.final_rng);
    EXPECT_EQ(run1.ledger.transfers(), run4.ledger.transfers());
    ASSERT_EQ(run1.epochs.size(), run4.epochs.size());
    for (std::size_t i = 0; i < run1.epochs.size(); ++i) {
        EXPECT_EQ(run1.epochs[i], run4.epochs[i]) << "epoch " << i;
    }

    // The journal written at shards=1 replays fully at shards=4: shard
    // count is not part of the meta fingerprint.
    const auto replayed = sim::EpochRuntime(pool, fx.tm, opt4).run();
    EXPECT_EQ(replayed.replayed_epochs, opt1.epochs);
    EXPECT_TRUE(replayed.final_rng == run1.final_rng);
    EXPECT_EQ(replayed.ledger.transfers(), run1.ledger.transfers());
    ASSERT_EQ(replayed.epochs.size(), run1.epochs.size());
    for (std::size_t i = 0; i < replayed.epochs.size(); ++i) {
        EXPECT_EQ(replayed.epochs[i], run1.epochs[i]) << "epoch " << i;
    }

    // Flipping the routing mode against the same journal is a
    // different run configuration and must be refused.
    sim::RuntimeOptions flipped = opt1;
    flipped.flow_routing = core::FlowRouting::kGreedy;
    EXPECT_THROW((void)sim::EpochRuntime(pool, fx.tm, flipped).run(), util::JournalError);

    std::filesystem::remove_all(dir);
}

// --- kPrimary versus kGreedy is a real semantic difference (the
// fingerprint bump is not vacuous): on a market where greedy
// water-filling spills onto longer paths, reports differ. ---
TEST(ShardIdentity, RoutingModesDifferSemantically) {
    const ShardMarketFixture fx;

    // Saturate: big demands against 10 Gbps links force kGreedy to
    // spill while kPrimary stays on the primary path.
    net::TrafficMatrix heavy = fx.tm;
    for (net::Demand& d : heavy) d.gbps *= 20.0;

    const net::Subgraph sg(fx.graph);
    core::FlowSimOptions greedy;
    core::FlowSimOptions primary;
    primary.routing = core::FlowRouting::kPrimary;
    const core::FlowReport a = core::simulate_flows(sg, heavy, {}, greedy);
    const core::FlowReport b = core::simulate_flows(sg, heavy, {}, primary);
    EXPECT_EQ(b.stretch, 1.0);
    EXPECT_EQ(a.total_offered_gbps, b.total_offered_gbps);
    // Greedy respects capacity and spills; primary is oblivious.
    EXPECT_NE(a.link_load_gbps, b.link_load_gbps);
}

}  // namespace
}  // namespace poc
