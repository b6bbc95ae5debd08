// The benchmark's workloads and the instance builders they share.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "market/bid.hpp"
#include "market/vcg.hpp"
#include "net/mcf.hpp"
#include "serve/engine.hpp"
#include "topo/poc_topology.hpp"

namespace pb {

namespace core = poc::core;
namespace market = poc::market;
namespace net = poc::net;
namespace serve = poc::serve;
namespace sim = poc::sim;
namespace topo = poc::topo;
namespace util = poc::util;

/// A generated Fig. 2 market: topology, offer pool and traffic matrix.
/// Heap-held because the pool points into the topology's graph.
struct MarketInstance {
    topo::PocTopology topology;
    std::optional<market::OfferPool> pool;
    net::TrafficMatrix tm;
    // Builder stage times (ms).
    double bp_networks_ms = 0.0;
    double poc_topology_ms = 0.0;
    double pool_ms = 0.0;
    double gravity_ms = 0.0;
};

/// Instance sizes. `reduced()` is the generator instance that
/// bench/fig2_auction builds with POC_FIG2_QUICK=1.
struct MarketScale {
    std::size_t bp_count = 20;
    std::size_t min_cities = 12;
    std::size_t max_cities = 40;
    std::size_t min_colocated_bps = 4;
    double total_gbps = 5000.0;
    std::size_t top_n = 60;

    static MarketScale reduced() { return {8, 8, 18, 3, 800.0, 30}; }
};

std::unique_ptr<MarketInstance> build_market(const MarketScale& scale, std::uint64_t topo_seed,
                                             std::uint64_t price_seed);

// --- Output checks, shared with the checker self-test ------------------------
// Each returns an empty string when the output passes, otherwise what
// is wrong.

/// A routing certificate: every path runs contiguously from its
/// demand's source to its destination over links in `allowed`, avoids
/// the demand's exclusions, rates sum to each demand, and no link
/// carries more than `cap` x its capacity.
std::string check_routing(const net::Graph& g, const std::vector<net::LinkId>& allowed,
                          const net::TrafficMatrix& tm, const net::CommodityRouting& routing,
                          double cap, const net::CommodityExclusions* exclusions);

/// The VCG identities recomputed from the bids.
std::string check_vcg(const market::OfferPool& pool, const market::AuctionResult& result);

/// |a - b| within `rel` of the larger magnitude (or of 1).
bool close(double a, double b, double rel);

/// `links` run contiguously from `src` to `dst` over links in `allowed`
/// and add up to `want_km`, the benchmark's own shortest distance.
bool is_shortest_path(const net::Graph& g, const std::vector<char>& allowed, net::NodeId src,
                      net::NodeId dst, const std::vector<net::LinkId>& links, double want_km);

/// Benchmark-side Dijkstra over the links in `allowed` (weight =
/// length_km) from `src`; returns per-node distance (inf if
/// unreachable).
std::vector<double> dijkstra_km(const net::Graph& g, const std::vector<char>& allowed,
                                net::NodeId src);

Result run_fig2(const Args& args);
Result run_daemon(const Args& args);
Result run_flow(const Args& args);

}  // namespace pb
