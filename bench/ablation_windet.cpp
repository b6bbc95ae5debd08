// Ablation (DESIGN.md A-WD): winner-determination algorithm quality and
// cost. The exact branch-and-bound is the incentive gold standard but
// exponential; the batched reverse-deletion heuristic is what Figure 2
// runs at scale. This bench measures the optimality gap on small
// instances (where exact is feasible) and the oracle-query/time scaling
// of the heuristic on growing instances.
#include <chrono>
#include <iostream>

#include "market/pricing.hpp"
#include "market/vcg.hpp"
#include "topo/traffic.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace poc;

namespace {

/// Random parallel/serial instance over 3 routers (same generator family
/// as the unit tests, scaled by link count).
struct SmallInstance {
    net::Graph graph;
    std::vector<market::BpBid> bids;
    net::TrafficMatrix tm;

    SmallInstance(std::uint64_t seed, std::size_t links) {
        util::Rng rng(seed);
        net::GraphBuilder builder;
        builder.add_nodes(3);
        for (std::size_t b = 0; b < 3; ++b) {
            bids.emplace_back(market::BpId{b}, "BP" + std::to_string(b + 1));
        }
        for (std::size_t i = 0; i < links; ++i) {
            const auto u = static_cast<std::size_t>(rng.uniform_int(std::uint64_t{3}));
            const std::size_t v =
                (u + 1 + static_cast<std::size_t>(rng.uniform_int(std::uint64_t{2}))) % 3;
            const net::LinkId l = builder.add_link(net::NodeId{u}, net::NodeId{v},
                                                   rng.uniform(5.0, 15.0), rng.uniform(1.0, 4.0));
            bids[static_cast<std::size_t>(rng.uniform_int(std::uint64_t{3}))].offer(
                l, util::Money::from_dollars(rng.uniform(50.0, 500.0)));
        }
        graph = std::move(builder).build();
        tm = {{net::NodeId{0u}, net::NodeId{1u}, rng.uniform(2.0, 6.0)},
              {net::NodeId{1u}, net::NodeId{2u}, rng.uniform(2.0, 6.0)}};
    }

    market::OfferPool pool() const { return market::OfferPool(bids, {}, graph); }
};

}  // namespace

int main() {
    std::cout << "=== Ablation: winner-determination exact vs heuristic ===\n\n";

    // Part 1: optimality gap on exact-solvable instances.
    std::cout << "Optimality gap, 40 random instances per size:\n";
    util::Table gap_table({"links", "feasible", "optimal hits", "mean gap", "max gap"});
    for (const std::size_t links : {8u, 10u, 12u, 14u}) {
        std::size_t feasible = 0;
        std::size_t hits = 0;
        util::Accumulator gap;
        double max_gap = 0.0;
        for (std::uint64_t seed = 1; seed <= 40; ++seed) {
            const SmallInstance inst(seed * 131 + links, links);
            const market::OfferPool pool = inst.pool();
            const market::AcceptabilityOracle oracle(inst.graph, inst.tm,
                                                     market::ConstraintKind::kLoad);
            const auto exact = market::select_links_exact(pool, oracle, pool.offered_links());
            const auto heur = market::select_links(pool, oracle, pool.offered_links());
            if (!exact || !heur) continue;
            ++feasible;
            const double g = util::ratio(heur->cost - exact->cost, exact->cost);
            gap.add(g);
            max_gap = std::max(max_gap, g);
            if (heur->cost == exact->cost) ++hits;
        }
        gap_table.add_row({util::cell(links), util::cell(feasible), util::cell(hits),
                           gap.empty() ? "-" : util::cell_pct(gap.mean()),
                           util::cell_pct(max_gap)});
    }
    std::cout << gap_table.render();

    // Part 2: heuristic scaling on generated topologies.
    std::cout << "\nHeuristic scaling on generated POC topologies (constraint #1, kFast):\n";
    util::Table scale({"BPs", "offered links", "selected", "oracle queries", "time (s)"});
    for (const std::size_t bp_count : {6u, 10u, 14u}) {
        topo::BpGeneratorOptions bopt;
        bopt.bp_count = bp_count;
        bopt.min_cities = 8;
        bopt.max_cities = 20;
        bopt.seed = 5;
        topo::PocTopologyOptions popt;
        popt.min_colocated_bps = 3;
        auto topology = topo::build_poc_topology(topo::generate_bp_networks(bopt), popt);
        const market::OfferPool pool = market::make_offer_pool(topology);
        topo::GravityOptions gopt;
        gopt.total_gbps = 1000.0;
        const auto tm = topo::aggregate_top_n(topo::gravity_traffic(topology, gopt), 30);
        market::OracleOptions oopt;
        oopt.fidelity = market::OracleFidelity::kFast;
        const market::AcceptabilityOracle oracle(pool.graph(), tm,
                                                 market::ConstraintKind::kLoad, oopt);
        const auto t0 = std::chrono::steady_clock::now();
        const auto sel = market::select_links(pool, oracle, pool.offered_links());
        const auto dt = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0);
        scale.add_row({util::cell(bp_count), util::cell(pool.offered_links().size()),
                       sel ? util::cell(sel->links.size()) : "-",
                       util::cell(oracle.query_count()), util::cell(dt.count(), 2)});
    }
    std::cout << scale.render();
    std::cout << "\nReading: the heuristic hits the optimum on most small instances with\n"
                 "a small worst-case gap, and scales near-linearly in offered links -\n"
                 "the trade that makes the Figure 2 run (thousands of links x 21 VCG\n"
                 "re-solves) practical.\n";
    return 0;
}
