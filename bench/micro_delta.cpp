// Perf baseline for incremental re-clearing (DESIGN.md §7): warm
// versus cold epoch re-clears after small offer-set deltas, at both
// layers the tentpole touches, every pair bit-compared.
//
//  * auction rows - an 8-epoch fault/repair walk (cut f links, hold,
//    restore, hold, cut a different f, hold, restore) re-cleared by a
//    full run_auction each epoch. The warm engine carries one
//    market::DeltaReclearState plus a repair-budgeted net::PathCache
//    across the walk: epochs whose pool matches an earlier clearing
//    replay verdicts and whole pivot solves from the memo, and
//    genuinely-new pools still patch their oracle SSSPs. The cold
//    engine recomputes every epoch from scratch — exactly what each
//    epoch cost before the incremental path existed. ms totals cover
//    epochs 1..7 (epoch 0 is the untimed prime on both sides).
//  * paths rows - the data-plane half alone: re-resolving the primary
//    path of every demand after f link flips, warm (cached trees
//    patched via net/sssp_repair.hpp) versus cold (fresh Dijkstra per
//    distinct source). This is the per-epoch work the acceptability
//    oracle and the flow simulator repeat at n=500 / d=10^4 scale.
//
// Runs on one core (threads=1); the speedups are algorithmic.
//
// Usage: micro_delta [--smoke] [OUT.json]
//   --smoke: small instances, 1 rep — the CI tier-1 smoke mode.
#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "market/constraints.hpp"
#include "market/delta_reclear.hpp"
#include "market/vcg.hpp"
#include "net/failure.hpp"
#include "net/path_cache.hpp"
#include "net/sssp.hpp"
#include "util/rng.hpp"

using namespace poc;

namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
        .count();
}

/// Scrubbed byte image of an auction result (work-accounting counters
/// zeroed; bit-identity covers the economic outcome).
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

struct Instance {
    std::string label;
    std::size_t nodes = 0;
    std::size_t demand_count = 0;
    net::Graph g;
    net::TrafficMatrix tm;
    std::vector<market::BpBid> bids;     // every link offered, 4 BPs
    market::VirtualLinkContract contract;
    std::vector<net::LinkId> flippable;  // non-bridge links, shuffled
    std::size_t distinct_sources = 0;
};

/// Random connected graph (spanning chain + ~2n extra links) with
/// `demands` light demands, all links offered across 4 BPs. Only the
/// extra links are flip candidates: cutting a chain link could
/// disconnect the graph and turn the bench into a feasibility test.
Instance make_instance(std::size_t n, std::size_t demands, std::uint64_t seed) {
    util::Rng rng(seed);
    Instance inst;
    inst.nodes = n;
    inst.demand_count = demands;
    net::GraphBuilder g;
    g.add_nodes(n);
    for (std::size_t b = 0; b < 4; ++b) {
        inst.bids.emplace_back(market::BpId{b}, "BP" + std::to_string(b + 1));
    }
    const auto offer = [&](net::LinkId l) {
        const auto owner = static_cast<std::size_t>(rng.uniform_int(std::uint64_t{4}));
        inst.bids[owner].offer(l, util::Money::from_dollars(rng.uniform(50.0, 500.0)));
    };
    for (std::size_t i = 0; i + 1 < n; ++i) {
        offer(g.add_link(net::NodeId{i}, net::NodeId{i + 1}, rng.uniform(50.0, 400.0),
                         rng.uniform(100.0, 2000.0)));
    }
    for (std::size_t e = 0; e < 2 * n; ++e) {
        const auto a = static_cast<std::size_t>(rng.uniform_int(std::uint64_t{n}));
        auto b = static_cast<std::size_t>(rng.uniform_int(std::uint64_t{n}));
        if (a == b) b = (b + 1) % n;
        const net::LinkId l = g.add_link(net::NodeId{a}, net::NodeId{b},
                                         rng.uniform(50.0, 400.0),
                                         rng.uniform(100.0, 2000.0));
        offer(l);
        inst.flippable.push_back(l);
    }
    inst.g = std::move(g).build();
    rng.shuffle(inst.flippable);
    for (std::size_t d = 0; d < demands; ++d) {
        const auto s = static_cast<std::size_t>(rng.uniform_int(std::uint64_t{n}));
        auto t = static_cast<std::size_t>(rng.uniform_int(std::uint64_t{n}));
        if (s == t) t = (t + 1) % n;
        inst.tm.push_back({net::NodeId{s}, net::NodeId{t}, rng.uniform(0.05, 0.3)});
    }
    inst.distinct_sources = net::distinct_sources(inst.tm).size();
    std::ostringstream label;
    label << "n" << n << "-d" << demands;
    inst.label = label.str();
    return inst;
}

/// Pool with flippable links [first, first+count) withdrawn.
market::OfferPool make_pool(const Instance& inst, std::size_t first, std::size_t count) {
    std::vector<market::BpBid> bids;
    for (std::size_t b = 0; b < 4; ++b) {
        bids.emplace_back(market::BpId{b}, "BP" + std::to_string(b + 1));
    }
    const auto lo = inst.flippable.begin() + static_cast<std::ptrdiff_t>(first);
    const auto hi = lo + static_cast<std::ptrdiff_t>(count);
    for (const market::BpBid& bid : inst.bids) {
        for (const net::LinkId l : bid.offered_links()) {
            if (std::find(lo, hi, l) != hi) continue;  // withdrawn this epoch
            bids[bid.bp().index()].offer(l, bid.base_price(l));
        }
    }
    return market::OfferPool(bids, inst.contract, inst.g);
}

market::AcceptabilityOracle make_oracle(const Instance& inst, net::PathCache* cache) {
    market::OracleOptions oopt;
    oopt.fidelity = market::OracleFidelity::kFast;
    oopt.path_cache = cache;
    return market::AcceptabilityOracle(inst.g, inst.tm,
                                       market::ConstraintKind::kPerPairFailure, oopt);
}

struct Row {
    std::string kind;  // "auction" | "paths"
    std::string instance;
    std::size_t nodes = 0;
    std::size_t links = 0;
    std::size_t demands = 0;
    std::size_t distinct_sources = 0;
    std::size_t flips = 0;
    std::size_t epochs = 0;  // auction rows: timed epochs in the walk
    double warm_ms = 0.0;
    double cold_ms = 0.0;
    double speedup = 1.0;
    std::uint64_t warm_runs = 0;  // auction rows: DeltaReclearState warm count
    std::uint64_t tree_repairs = 0;
    bool identical = false;
};

/// The 8-epoch fault/repair walk: pool index per epoch, where 0 = all
/// offered, 1 = batch A withdrawn, 2 = batch B withdrawn. Consecutive
/// deltas are f links (cut / restore) or 0 links (fault held).
constexpr std::size_t kWalk[] = {0, 1, 1, 0, 0, 2, 2, 0};
constexpr std::size_t kWalkEpochs = sizeof(kWalk) / sizeof(kWalk[0]);

Row bench_auction_walk(const Instance& inst, std::size_t flips) {
    Row row;
    row.kind = "auction";
    row.instance = inst.label;
    row.nodes = inst.nodes;
    row.links = inst.g.link_count();
    row.demands = inst.demand_count;
    row.distinct_sources = inst.distinct_sources;
    row.flips = flips;
    row.epochs = kWalkEpochs - 1;
    row.identical = true;

    const market::OfferPool pools[] = {make_pool(inst, 0, 0), make_pool(inst, 0, flips),
                                       make_pool(inst, flips, flips)};

    net::PathCache cache(/*max_age=*/1, /*repair_budget=*/8);
    market::DeltaReclearState state;
    const market::AcceptabilityOracle warm_oracle = make_oracle(inst, &cache);
    market::AuctionOptions warm_opt;
    warm_opt.delta = &state;
    const market::AcceptabilityOracle cold_oracle = make_oracle(inst, nullptr);

    for (std::size_t e = 0; e < kWalkEpochs; ++e) {
        const market::OfferPool& pool = pools[kWalk[e]];

        cache.advance_epoch();
        const auto w0 = std::chrono::steady_clock::now();
        const auto warm = market::run_auction(pool, warm_oracle, warm_opt);
        if (e > 0) row.warm_ms += ms_since(w0);

        const auto c0 = std::chrono::steady_clock::now();
        const auto cold = market::run_auction(pool, cold_oracle, {});
        if (e > 0) row.cold_ms += ms_since(c0);

        if (auction_bytes(warm) != auction_bytes(cold)) {
            std::cerr << inst.label << " flips=" << flips << " epoch " << e
                      << ": warm result differs from cold\n";
            row.identical = false;
        }
    }
    row.warm_runs = state.stats().warm;
    row.tree_repairs = cache.stats().repairs;
    row.speedup = row.warm_ms > 0.0 ? row.cold_ms / row.warm_ms : 1.0;
    return row;
}

Row bench_path_reclear(const Instance& inst, std::size_t flips, int reps) {
    Row row;
    row.kind = "paths";
    row.instance = inst.label;
    row.nodes = inst.nodes;
    row.links = inst.g.link_count();
    row.demands = inst.demand_count;
    row.distinct_sources = inst.distinct_sources;
    row.flips = flips;
    row.identical = true;

    for (int rep = 0; rep < reps; ++rep) {
        // Previous epoch: every source tree cached at the base mask.
        net::PathCache cache(/*max_age=*/1, /*repair_budget=*/8);
        const net::Subgraph base(inst.g);
        (void)net::primary_paths(base, inst.tm, &cache);
        cache.advance_epoch();

        net::Subgraph degraded(inst.g);
        for (std::size_t i = 0; i < flips; ++i) {
            degraded.set_active(inst.flippable[i], false);
        }

        const auto w0 = std::chrono::steady_clock::now();
        const auto warm = net::primary_paths(degraded, inst.tm, &cache);
        const double warm_ms = ms_since(w0);
        if (rep == 0 || warm_ms < row.warm_ms) row.warm_ms = warm_ms;
        row.tree_repairs = cache.stats().repairs;

        const auto c0 = std::chrono::steady_clock::now();
        const auto cold = net::primary_paths(degraded, inst.tm, nullptr);
        const double cold_ms = ms_since(c0);
        if (rep == 0 || cold_ms < row.cold_ms) row.cold_ms = cold_ms;

        if (warm != cold) {
            std::cerr << inst.label << " flips=" << flips << ": repaired paths differ\n";
            row.identical = false;
        }
    }
    row.speedup = row.warm_ms > 0.0 ? row.cold_ms / row.warm_ms : 1.0;
    return row;
}

void print_row(const Row& r) {
    std::cout << r.kind << "  " << r.instance << "  links=" << r.links
              << "  flips=" << r.flips << "  warm=" << r.warm_ms << " ms  cold=" << r.cold_ms
              << " ms  x" << r.speedup << "  repairs=" << r.tree_repairs
              << (r.identical ? "" : "  MISMATCH") << "\n";
}

}  // namespace

int main(int argc, char** argv) {
    bool smoke = false;
    std::string out_path = "BENCH_delta.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
        } else {
            out_path = argv[i];
        }
    }
    const int path_reps = smoke ? 1 : 3;

    std::vector<Row> rows;
    bool all_identical = true;

    // Market-layer walks: full auctions are the expensive unit, so the
    // instances stay moderate and the walk supplies the epoch count.
    {
        std::vector<Instance> instances;
        instances.push_back(make_instance(30, 200, 9301));
        if (!smoke) instances.push_back(make_instance(60, 600, 9302));
        const std::vector<std::size_t> flip_counts =
            smoke ? std::vector<std::size_t>{1} : std::vector<std::size_t>{1, 3, 8};
        for (const Instance& inst : instances) {
            for (const std::size_t flips : flip_counts) {
                rows.push_back(bench_auction_walk(inst, flips));
                all_identical = all_identical && rows.back().identical;
                print_row(rows.back());
            }
        }
    }

    // Data-plane path re-clears up to the paper-scale matrix.
    {
        std::vector<Instance> instances;
        instances.push_back(make_instance(50, 500, 9311));
        if (!smoke) {
            instances.push_back(make_instance(200, 2000, 9312));
            instances.push_back(make_instance(500, 10000, 9313));
        }
        const std::size_t flip_counts[] = {1, 2, 3, 5, 8};
        for (const Instance& inst : instances) {
            for (const std::size_t flips : flip_counts) {
                rows.push_back(bench_path_reclear(inst, flips, path_reps));
                all_identical = all_identical && rows.back().identical;
                print_row(rows.back());
            }
        }
    }
    if (!all_identical) return 1;

    std::ofstream out(out_path);
    out << "{\n  \"bench\": \"micro_delta\",\n"
        << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
        << "  \"threads\": 1,\n"
        << "  \"all_warm_identical_to_cold\": " << (all_identical ? "true" : "false") << ",\n"
        << "  \"note\": \"auction rows: total ms for epochs 1..7 of a cut/hold/restore walk "
           "(f-link deltas), warm carrying DeltaReclearState + repair-budgeted PathCache vs "
           "cold recomputing each epoch; paths rows: best-of-reps ms to re-resolve every "
           "demand's primary path after f link flips, warm (tree repair) vs cold (fresh "
           "Dijkstra per source); every pair bit-compared\",\n"
        << "  \"rows\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row& r = rows[i];
        out << "    {\"kind\": \"" << r.kind << "\", \"instance\": \"" << r.instance
            << "\", \"nodes\": " << r.nodes << ", \"links\": " << r.links
            << ", \"demands\": " << r.demands << ", \"distinct_sources\": "
            << r.distinct_sources << ", \"flips\": " << r.flips << ", \"epochs\": " << r.epochs
            << ", \"warm_ms\": " << r.warm_ms << ", \"cold_ms\": " << r.cold_ms
            << ", \"speedup_warm_over_cold\": " << r.speedup << ", \"warm_runs\": "
            << r.warm_runs << ", \"tree_repairs\": " << r.tree_repairs
            << ", \"identical\": " << (r.identical ? "true" : "false") << "}"
            << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::cout << "\nwrote " << out_path << "\n";
    return 0;
}
