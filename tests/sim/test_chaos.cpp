#include "sim/chaos.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "helpers/market.hpp"

namespace poc::sim {
namespace {

using util::Money;

/// Two routers plus a relay: a cheap direct link `a` (BP A, $100), a
/// parallel direct link `b` in the same conduit (BP B, $140), and a
/// disjoint two-hop detour `c`+`d` through the relay (BP C, $60 each).
/// Demand 6 Gbps from n0 to n1; every link has 10 Gbps capacity.
///
///   Constraint #1 selects {a} ($100).
///   Constraint #3 selects {a, c, d} ($220): the detour is the cheapest
///   backup that survives the primary path's failure.
///
/// A conduit cut takes out {a, b} together, so the two backbones react
/// very differently to the *same* correlated trace.
struct ChaosFixture {
    net::Graph graph;
    net::LinkId a, b, c, d, v;
    std::vector<market::BpBid> bids;
    market::VirtualLinkContract contract;
    net::TrafficMatrix tm;

    explicit ChaosFixture(bool with_virtual = false) {
        net::GraphBuilder builder;
        const auto n0 = builder.add_node("n0");
        const auto n1 = builder.add_node("n1");
        const auto n2 = builder.add_node("n2");
        a = builder.add_link(n0, n1, 10.0, 1.0);
        b = builder.add_link(n0, n1, 10.0, 1.0);
        c = builder.add_link(n0, n2, 10.0, 1.0);
        d = builder.add_link(n2, n1, 10.0, 1.0);
        market::BpBid bid_a(market::BpId{0u}, "A");
        bid_a.offer(a, Money::from_dollars(std::int64_t{100}));
        market::BpBid bid_b(market::BpId{1u}, "B");
        bid_b.offer(b, Money::from_dollars(std::int64_t{140}));
        market::BpBid bid_c(market::BpId{2u}, "C");
        bid_c.offer(c, Money::from_dollars(std::int64_t{60}));
        bid_c.offer(d, Money::from_dollars(std::int64_t{60}));
        bids = {std::move(bid_a), std::move(bid_b), std::move(bid_c)};
        if (with_virtual) {
            // Slightly longer so routing prefers real links when whole.
            v = builder.add_link(n0, n1, 10.0, 1.5);
            contract.add(v, Money::from_dollars(std::int64_t{600}));
        }
        graph = std::move(builder).build();
        tm = {{n0, n1, 6.0}};
    }

    market::OfferPool pool() const { return market::OfferPool(bids, contract, graph); }

    ChaosOptions options(market::ConstraintKind constraint, std::size_t epochs) const {
        ChaosOptions opt;
        opt.epochs = epochs;
        opt.request.constraint = constraint;
        opt.request.auction.exact = true;
        return opt;
    }
};

Fault conduit_cut(const ChaosFixture& fx, std::size_t start, std::size_t repair) {
    return Fault{FaultKind::kConduitCut, start, repair, {fx.a, fx.b}, 0.0, "conduit n0-n1"};
}

TEST(SharedRiskGroups, DerivedFromGraphGeometry) {
    ChaosFixture fx;
    const auto groups = shared_risk_groups(fx.graph);
    // One conduit group ({a, b} between n0 and n1) and three site
    // groups (one per router, each with >= 2 incident links).
    ASSERT_EQ(groups.size(), 4u);
    EXPECT_EQ(groups[0].name, "conduit:n0-n1");
    EXPECT_EQ(groups[0].links, (std::vector<net::LinkId>{fx.a, fx.b}));
    for (std::size_t i = 1; i < groups.size(); ++i) {
        EXPECT_GE(groups[i].links.size(), 2u);
        EXPECT_EQ(groups[i].name.rfind("site:", 0), 0u);
    }
}

// The acceptance scenario: under the same correlated conduit cut, the
// constraint-#3 backbone keeps delivering while the constraint-#1
// backbone goes dark, and #1's off-cycle re-auction restores full
// delivery one epoch later.
TEST(Chaos, StricterConstraintBuysBetterDegradation) {
    ChaosFixture fx;
    const auto pool = fx.pool();
    const std::vector<Fault> trace{conduit_cut(fx, 1, 2)};

    const ChaosOutcome r1 =
        run_chaos(pool, fx.tm, trace, fx.options(market::ConstraintKind::kLoad, 4));
    const ChaosOutcome r3 =
        run_chaos(pool, fx.tm, trace, fx.options(market::ConstraintKind::kPerPairFailure, 4));
    ASSERT_TRUE(r1.provisioned);
    ASSERT_TRUE(r3.provisioned);
    ASSERT_EQ(r1.sla.size(), 4u);
    ASSERT_EQ(r3.sla.size(), 4u);

    // Healthy baseline epoch; the stricter constraint costs more.
    EXPECT_NEAR(r1.sla[0].delivered_fraction, 1.0, 1e-9);
    EXPECT_NEAR(r3.sla[0].delivered_fraction, 1.0, 1e-9);
    EXPECT_GT(r3.baseline_outlay, r1.baseline_outlay);

    // Epoch 1, conduit down: #1 delivers nothing, #3 everything.
    EXPECT_NEAR(r1.sla[1].delivered_fraction, 0.0, 1e-9);
    EXPECT_NEAR(r3.sla[1].delivered_fraction, 1.0, 1e-9);
    EXPECT_GT(r3.sla[1].delivered_fraction, r1.sla[1].delivered_fraction);
    EXPECT_EQ(r1.sla[1].links_down, 1u);  // its whole backbone

    // #1 fires an off-cycle re-auction onto the surviving detour and is
    // fully restored the next epoch; #3 never needs one.
    EXPECT_TRUE(r1.sla[1].reauction_triggered);
    EXPECT_EQ(r1.reauction_count, 1u);
    EXPECT_NEAR(r1.sla[2].delivered_fraction, 1.0, 1e-9);
    EXPECT_EQ(r1.epochs_to_restore, 1u);
    EXPECT_EQ(r3.reauction_count, 0u);
    EXPECT_EQ(r3.epochs_to_restore, 0u);
    EXPECT_LT(r1.min_delivered_fraction, r3.min_delivered_fraction);
}

TEST(Chaos, BrownoutDegradesPartiallyAndRepairs) {
    ChaosFixture fx;
    const auto pool = fx.pool();
    // Half the capacity of the in-service link for two epochs; with the
    // re-auction threshold below the degraded delivery, the POC rides
    // out the brownout instead of re-provisioning.
    const std::vector<Fault> trace{
        {FaultKind::kBrownout, 1, 2, {fx.a}, 0.5, "brownout a"}};
    ChaosOptions opt = fx.options(market::ConstraintKind::kLoad, 4);
    opt.reauction_threshold = 0.5;

    const ChaosOutcome r = run_chaos(pool, fx.tm, trace, opt);
    ASSERT_TRUE(r.provisioned);
    // 5 of 6 Gbps fit through the browned-out link (the FPTAS router
    // may undershoot slightly, never overshoot).
    EXPECT_LT(r.sla[1].delivered_fraction, 1.0 - 1e-6);
    EXPECT_GT(r.sla[1].delivered_fraction, 0.6);
    EXPECT_LE(r.sla[1].delivered_fraction, 5.0 / 6.0 + 1e-6);
    EXPECT_EQ(r.sla[1].links_degraded, 1u);
    EXPECT_EQ(r.sla[1].links_down, 0u);
    EXPECT_FALSE(r.sla[1].reauction_triggered);
    EXPECT_EQ(r.reauction_count, 0u);
    // Repair at epoch 3 restores full delivery without intervention.
    EXPECT_NEAR(r.sla[3].delivered_fraction, 1.0, 1e-9);
    EXPECT_EQ(r.epochs_to_restore, 2u);
}

TEST(Chaos, EmergencyVirtualCapacityProcuredAtContractPrice) {
    ChaosFixture fx(/*with_virtual=*/true);
    const auto pool = fx.pool();
    // Cut only the selected link `a` for one epoch: nothing real
    // survives in the backbone, so delivery rides the contracted (but
    // unselected) virtual link, paid at contract price.
    const std::vector<Fault> trace{
        {FaultKind::kLinkCut, 1, 1, {fx.a}, 0.0, "cut a"}};
    const ChaosOutcome r =
        run_chaos(pool, fx.tm, trace, fx.options(market::ConstraintKind::kLoad, 3));
    ASSERT_TRUE(r.provisioned);

    EXPECT_NEAR(r.sla[1].delivered_fraction, 1.0, 1e-9);
    EXPECT_GT(r.sla[1].virtual_share, 0.99);
    EXPECT_EQ(r.sla[1].emergency_virtual_cost, Money::from_dollars(std::int64_t{600}));
    EXPECT_EQ(r.sla[1].outlay, r.baseline_outlay + Money::from_dollars(std::int64_t{600}));
    // Full (virtual-backed) delivery means no re-auction fires, and the
    // spike subsides once the link is repaired.
    EXPECT_FALSE(r.sla[1].reauction_triggered);
    EXPECT_NEAR(r.sla[2].virtual_share, 0.0, 1e-9);
    EXPECT_TRUE(r.sla[2].emergency_virtual_cost.is_zero());
    EXPECT_EQ(r.total_recovery_cost, Money::from_dollars(std::int64_t{600}));
}

TEST(Chaos, VirtualLinksAreNeverFaulted) {
    ChaosFixture fx(/*with_virtual=*/true);
    const auto pool = fx.pool();
    // A trace that names the virtual link is ignored for that link.
    const std::vector<Fault> trace{
        {FaultKind::kLinkCut, 1, 1, {fx.v, fx.a}, 0.0, "cut a and v"}};
    const ChaosOutcome r =
        run_chaos(pool, fx.tm, trace, fx.options(market::ConstraintKind::kLoad, 3));
    ASSERT_TRUE(r.provisioned);
    // `a` is gone but the virtual fallback still carries everything.
    EXPECT_NEAR(r.sla[1].delivered_fraction, 1.0, 1e-9);
    EXPECT_GT(r.sla[1].virtual_share, 0.99);
}

TEST(Chaos, FaultTraceIsDeterministicInSeed) {
    ChaosFixture fx(/*with_virtual=*/true);
    const auto pool = fx.pool();
    const auto srlgs = shared_risk_groups(fx.graph);
    FaultInjectorOptions opt;
    opt.epochs = 6;
    opt.intensity = 2.0;
    opt.seed = 7;
    const auto t1 = draw_fault_trace(pool, srlgs, opt);
    const auto t2 = draw_fault_trace(pool, srlgs, opt);
    EXPECT_EQ(t1, t2);
    ASSERT_FALSE(t1.empty());
    for (const Fault& f : t1) {
        EXPECT_GE(f.start_epoch, 1u);
        EXPECT_LT(f.start_epoch, opt.epochs);
        EXPECT_GE(f.repair_epochs, 1u);
        EXPECT_FALSE(f.links.empty());
        EXPECT_GE(f.capacity_factor, 0.0);
        EXPECT_LT(f.capacity_factor, 1.0);
        if (f.kind == FaultKind::kBrownout) EXPECT_GT(f.capacity_factor, 0.0);
        for (const net::LinkId l : f.links) {
            EXPECT_TRUE(pool.is_offered(l));
            EXPECT_FALSE(pool.is_virtual(l));  // contracted fallback is immune
        }
    }

    opt.seed = 8;
    const auto t3 = draw_fault_trace(pool, srlgs, opt);
    EXPECT_NE(t1, t3);
}

TEST(Chaos, InjectedTraceIsSurvivableUnderStrictConstraint) {
    // End-to-end smoke: a drawn trace replayed against a #3 backbone
    // keeps mean delivery above the #1 backbone's (or at least never
    // below), and the engine terminates with one record per epoch.
    ChaosFixture fx(/*with_virtual=*/true);
    const auto pool = fx.pool();
    FaultInjectorOptions iopt;
    iopt.epochs = 6;
    iopt.intensity = 1.5;
    iopt.seed = 11;
    const auto trace = draw_fault_trace(pool, shared_risk_groups(fx.graph), iopt);

    const ChaosOutcome r1 =
        run_chaos(pool, fx.tm, trace, fx.options(market::ConstraintKind::kLoad, 6));
    const ChaosOutcome r3 =
        run_chaos(pool, fx.tm, trace, fx.options(market::ConstraintKind::kPerPairFailure, 6));
    ASSERT_TRUE(r1.provisioned);
    ASSERT_TRUE(r3.provisioned);
    EXPECT_EQ(r1.sla.size(), 6u);
    EXPECT_EQ(r3.sla.size(), 6u);
    EXPECT_GE(r3.mean_delivered_fraction, r1.mean_delivered_fraction - 1e-9);
}

TEST(Chaos, RejectsMalformedFaults) {
    ChaosFixture fx;
    const auto pool = fx.pool();
    const ChaosOptions opt = fx.options(market::ConstraintKind::kLoad, 3);

    std::vector<Fault> bad_factor{{FaultKind::kBrownout, 1, 1, {fx.a}, 1.5, "bad"}};
    EXPECT_THROW(run_chaos(pool, fx.tm, bad_factor, opt), util::ContractViolation);

    std::vector<Fault> bad_repair{{FaultKind::kLinkCut, 1, 0, {fx.a}, 0.0, "bad"}};
    EXPECT_THROW(run_chaos(pool, fx.tm, bad_repair, opt), util::ContractViolation);

    std::vector<Fault> bad_link{
        {FaultKind::kLinkCut, 1, 1, {net::LinkId{99u}}, 0.0, "bad"}};
    EXPECT_THROW(run_chaos(pool, fx.tm, bad_link, opt), util::ContractViolation);
}

TEST(Chaos, ParallelCachedReauctionsMatchSerial) {
    // Off-cycle re-auctions inherit the engine knobs from
    // ChaosOptions::request.auction; the parallel/cached engine is
    // bit-identical to serial, so the whole chaos trajectory — SLA
    // series, outlays, recovery accounting — must match exactly.
    ChaosFixture fx(/*with_virtual=*/true);
    const auto pool = fx.pool();
    FaultInjectorOptions iopt;
    iopt.epochs = 6;
    iopt.intensity = 1.5;
    iopt.seed = 23;
    const auto trace = draw_fault_trace(pool, shared_risk_groups(fx.graph), iopt);

    ChaosOptions serial = fx.options(market::ConstraintKind::kPerPairFailure, 6);
    ChaosOptions engine = serial;
    engine.request.auction.threads = 8;
    engine.request.auction.cache = true;

    const ChaosOutcome base = run_chaos(pool, fx.tm, trace, serial);
    const ChaosOutcome r = run_chaos(pool, fx.tm, trace, engine);
    ASSERT_EQ(base.provisioned, r.provisioned);
    ASSERT_EQ(base.sla.size(), r.sla.size());
    for (std::size_t i = 0; i < base.sla.size(); ++i) {
        SCOPED_TRACE(i);
        EXPECT_EQ(base.sla[i].delivered_fraction, r.sla[i].delivered_fraction);
        EXPECT_EQ(base.sla[i].outlay, r.sla[i].outlay);
        EXPECT_EQ(base.sla[i].emergency_virtual_cost, r.sla[i].emergency_virtual_cost);
        EXPECT_EQ(base.sla[i].reauction_triggered, r.sla[i].reauction_triggered);
        EXPECT_EQ(base.sla[i].degraded_mode, r.sla[i].degraded_mode);
    }
    EXPECT_EQ(base.reauction_count, r.reauction_count);
    EXPECT_EQ(base.failed_reauctions, r.failed_reauctions);
    EXPECT_EQ(base.epochs_to_restore, r.epochs_to_restore);
    EXPECT_EQ(base.baseline_outlay, r.baseline_outlay);
    EXPECT_EQ(base.total_recovery_cost, r.total_recovery_cost);
}

TEST(Chaos, PathCacheTrajectoryBitIdentical) {
    // The epoch-invalidated PathCache threads through the initial
    // provision, every epoch's flow simulation, and the off-cycle
    // re-auction/recovery path. With it disabled the exact same
    // trajectory must come out — the cache only skips recomputation of
    // trees it has already seen for the same (mask, source, metric).
    ChaosFixture fx(/*with_virtual=*/true);
    const auto pool = fx.pool();
    FaultInjectorOptions iopt;
    iopt.epochs = 6;
    iopt.intensity = 1.8;
    iopt.seed = 31;
    const auto trace = draw_fault_trace(pool, shared_risk_groups(fx.graph), iopt);

    for (const auto constraint :
         {market::ConstraintKind::kLoad, market::ConstraintKind::kPerPairFailure}) {
        SCOPED_TRACE(static_cast<int>(constraint));
        ChaosOptions with_cache = fx.options(constraint, 6);
        with_cache.use_path_cache = true;
        ChaosOptions without = fx.options(constraint, 6);
        without.use_path_cache = false;

        const ChaosOutcome a = run_chaos(pool, fx.tm, trace, with_cache);
        const ChaosOutcome b = run_chaos(pool, fx.tm, trace, without);
        ASSERT_EQ(a.provisioned, b.provisioned);
        ASSERT_EQ(a.sla.size(), b.sla.size());
        for (std::size_t i = 0; i < a.sla.size(); ++i) {
            SCOPED_TRACE(i);
            EXPECT_EQ(a.sla[i].delivered_fraction, b.sla[i].delivered_fraction);
            EXPECT_EQ(a.sla[i].virtual_share, b.sla[i].virtual_share);
            EXPECT_EQ(a.sla[i].outlay, b.sla[i].outlay);
            EXPECT_EQ(a.sla[i].emergency_virtual_cost, b.sla[i].emergency_virtual_cost);
            EXPECT_EQ(a.sla[i].links_down, b.sla[i].links_down);
            EXPECT_EQ(a.sla[i].links_degraded, b.sla[i].links_degraded);
            EXPECT_EQ(a.sla[i].reauction_triggered, b.sla[i].reauction_triggered);
            EXPECT_EQ(a.sla[i].degraded_mode, b.sla[i].degraded_mode);
        }
        EXPECT_EQ(a.reauction_count, b.reauction_count);
        EXPECT_EQ(a.failed_reauctions, b.failed_reauctions);
        EXPECT_EQ(a.epochs_to_restore, b.epochs_to_restore);
        EXPECT_EQ(a.baseline_outlay, b.baseline_outlay);
        EXPECT_EQ(a.total_recovery_cost, b.total_recovery_cost);
        EXPECT_EQ(a.min_delivered_fraction, b.min_delivered_fraction);
        EXPECT_EQ(a.mean_delivered_fraction, b.mean_delivered_fraction);
    }
}

TEST(Chaos, InfeasibleInitialAuctionReported) {
    ChaosFixture fx;
    const auto pool = fx.pool();
    net::TrafficMatrix heavy{{net::NodeId{0u}, net::NodeId{1u}, 100.0}};
    const ChaosOutcome r =
        run_chaos(pool, heavy, {}, fx.options(market::ConstraintKind::kLoad, 3));
    EXPECT_FALSE(r.provisioned);
    EXPECT_TRUE(r.sla.empty());
}

}  // namespace
}  // namespace poc::sim
