// Perf baseline for the auction engine (DESIGN.md §5): sweeps BP count
// × link count × engine mode (serial / parallel / cached /
// parallel+cached, plus the exact solver on a small instance), times
// `market::run_auction`, verifies every mode produces the bit-identical
// AuctionResult, and emits BENCH_auction.json for regression tracking.
//
// Speedups are hardware-dependent: the parallel rows only beat serial
// when std::thread::hardware_concurrency() > 1. The JSON records the
// actual thread count of the machine that produced it, so a 1-core CI
// runner's ~1.0x rows are honest rather than wrong.
#include <chrono>
#include <deque>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "market/pricing.hpp"
#include "market/vcg.hpp"
#include "topo/traffic.hpp"
#include "util/rng.hpp"

using namespace poc;

namespace {

struct Instance {
    std::string label;
    std::size_t bp_count = 0;
    market::OfferPool pool;
    net::TrafficMatrix tm;
    market::OracleOptions oopt;
    bool exact = false;
};

/// Generated-topology instance (the Figure-2 pipeline shape at bench
/// scale), fast oracle, heuristic solver.
Instance topology_instance(std::size_t bp_count, std::size_t max_cities, std::uint64_t seed) {
    topo::BpGeneratorOptions bopt;
    bopt.bp_count = bp_count;
    bopt.min_cities = 6;
    bopt.max_cities = max_cities;
    bopt.seed = seed;
    topo::PocTopologyOptions popt;
    popt.min_colocated_bps = 3;
    // The OfferPool references the topology's graph, so the topology
    // must outlive the Instance: park it at a stable address.
    static std::deque<topo::PocTopology> topologies;
    topologies.push_back(topo::build_poc_topology(topo::generate_bp_networks(bopt), popt));
    topo::PocTopology& topology = topologies.back();
    market::VirtualLinkOptions vopt;
    vopt.attach_count = std::min<std::size_t>(3, topology.router_city.size());
    auto pool = market::make_offer_pool(topology, {}, vopt);
    topo::GravityOptions gopt;
    gopt.total_gbps = 300.0;
    auto tm = topo::aggregate_top_n(topo::gravity_traffic(topology, gopt), 20);

    Instance inst{"topology", bp_count, std::move(pool), std::move(tm), {}, false};
    inst.oopt.fidelity = market::OracleFidelity::kFast;
    std::ostringstream label;
    label << "topo-" << bp_count << "bp";
    inst.label = label.str();
    return inst;
}

/// Small random parallel/serial instance where the exact branch-and-bound
/// solver is feasible; its pivot searches revisit many link subsets, so
/// this is where the solve/verdict memo pays even on one core.
Instance exact_instance(std::size_t links, std::uint64_t seed) {
    util::Rng rng(seed);
    net::GraphBuilder builder;
    builder.add_nodes(3);
    std::vector<market::BpBid> bids;
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
    net::TrafficMatrix tm{{net::NodeId{0u}, net::NodeId{1u}, rng.uniform(2.0, 6.0)},
                          {net::NodeId{1u}, net::NodeId{2u}, rng.uniform(2.0, 6.0)}};
    // The graph must outlive the OfferPool, which holds a reference to
    // it; park it in a function-static deque (stable addresses).
    static std::deque<net::Graph> graphs;
    graphs.push_back(std::move(builder).build());
    Instance inst{"exact-" + std::to_string(links) + "l", 3,
                  market::OfferPool(bids, {}, graphs.back()), std::move(tm), {}, true};
    return inst;
}

bool same_result(const market::AuctionResult& a, const market::AuctionResult& b) {
    if (a.selection.links != b.selection.links || a.selection.cost != b.selection.cost ||
        a.virtual_cost != b.virtual_cost || a.total_outlay != b.total_outlay ||
        a.outcomes.size() != b.outcomes.size()) {
        return false;
    }
    for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
        const auto& x = a.outcomes[i];
        const auto& y = b.outcomes[i];
        if (x.bp != y.bp || x.selected_links != y.selected_links || x.bid_cost != y.bid_cost ||
            x.cost_without != y.cost_without || x.payment != y.payment ||
            x.pivot_defined != y.pivot_defined || x.pob != y.pob) {
            return false;
        }
    }
    return true;
}

struct Mode {
    const char* name;
    std::size_t threads;
    bool cache;
};

struct Row {
    std::string instance;
    std::size_t bp_count = 0;
    std::size_t offered_links = 0;
    std::string mode;
    std::size_t threads = 1;
    bool cache = false;
    double ms = 0.0;
    double speedup_vs_serial = 1.0;
    std::size_t oracle_queries = 0;
    std::size_t oracle_cache_hits = 0;
    std::size_t solve_cache_hits = 0;
};

}  // namespace

int main(int argc, char** argv) {
    const std::string out_path = argc > 1 ? argv[1] : "BENCH_auction.json";
    const std::size_t hw = std::max<std::size_t>(1, std::thread::hardware_concurrency());
    const std::size_t par = std::max<std::size_t>(2, hw);
    const Mode modes[] = {
        {"serial", 1, false},
        {"parallel", par, false},
        {"cached", 1, true},
        {"parallel+cached", par, true},
    };

    std::vector<Instance> instances;
    instances.push_back(topology_instance(6, 10, 7001));
    instances.push_back(topology_instance(8, 12, 7002));
    instances.push_back(topology_instance(10, 14, 7003));
    instances.push_back(exact_instance(10, 7101));
    instances.push_back(exact_instance(12, 7102));

    std::vector<Row> rows;
    bool all_identical = true;
    constexpr int kReps = 3;

    for (const Instance& inst : instances) {
        std::optional<market::AuctionResult> reference;
        double serial_ms = 0.0;
        for (const Mode& mode : modes) {
            market::AuctionOptions opt;
            opt.exact = inst.exact;
            opt.threads = mode.threads;
            opt.cache = mode.cache;

            double best_ms = 0.0;
            std::optional<market::AuctionResult> result;
            for (int rep = 0; rep < kReps; ++rep) {
                // Fresh oracle per run: lifetime query counts comparable.
                const market::AcceptabilityOracle oracle(inst.pool.graph(), inst.tm,
                                                         market::ConstraintKind::kLoad, inst.oopt);
                const auto t0 = std::chrono::steady_clock::now();
                result = market::run_auction(inst.pool, oracle, opt);
                const auto t1 = std::chrono::steady_clock::now();
                const double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
                if (rep == 0 || ms < best_ms) best_ms = ms;
            }
            if (!result) {
                std::cerr << inst.label << "/" << mode.name << ": infeasible instance\n";
                return 1;
            }
            if (mode.threads == 1 && !mode.cache) {
                reference = result;
                serial_ms = best_ms;
            } else if (!same_result(*reference, *result)) {
                std::cerr << inst.label << "/" << mode.name << ": result differs from serial\n";
                all_identical = false;
            }

            Row row;
            row.instance = inst.label;
            row.bp_count = inst.bp_count;
            row.offered_links = inst.pool.offered_links().size();
            row.mode = mode.name;
            row.threads = mode.threads;
            row.cache = mode.cache;
            row.ms = best_ms;
            row.speedup_vs_serial = best_ms > 0.0 ? serial_ms / best_ms : 1.0;
            row.oracle_queries = result->oracle_queries;
            row.oracle_cache_hits = result->oracle_cache_hits;
            row.solve_cache_hits = result->solve_cache_hits;
            rows.push_back(row);

            std::cout << inst.label << "  links=" << row.offered_links << "  " << mode.name
                      << "  " << best_ms << " ms  x" << row.speedup_vs_serial
                      << "  queries=" << row.oracle_queries
                      << "  verdict_hits=" << row.oracle_cache_hits
                      << "  solve_hits=" << row.solve_cache_hits << "\n";
        }
    }
    if (!all_identical) return 1;

    std::ofstream out(out_path);
    out << "{\n  \"bench\": \"micro_auction\",\n"
        << "  \"hardware_threads\": " << hw << ",\n"
        << "  \"parallel_threads\": " << par << ",\n"
        << "  \"reps\": " << kReps << ",\n"
        << "  \"all_modes_identical_to_serial\": " << (all_identical ? "true" : "false") << ",\n"
        << "  \"note\": \"ms is best of reps; speedup_vs_serial needs hardware_threads > 1 "
           "to exceed 1.0 on parallel rows\",\n"
        << "  \"rows\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row& r = rows[i];
        out << "    {\"instance\": \"" << r.instance << "\", \"bp_count\": " << r.bp_count
            << ", \"offered_links\": " << r.offered_links << ", \"mode\": \"" << r.mode
            << "\", \"threads\": " << r.threads << ", \"cache\": " << (r.cache ? "true" : "false")
            << ", \"ms\": " << r.ms << ", \"speedup_vs_serial\": " << r.speedup_vs_serial
            << ", \"oracle_queries\": " << r.oracle_queries
            << ", \"oracle_cache_hits\": " << r.oracle_cache_hits
            << ", \"solve_cache_hits\": " << r.solve_cache_hits << "}"
            << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::cout << "\nwrote " << out_path << "\n";
    return 0;
}
