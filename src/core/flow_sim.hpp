// Flow-level simulation of the provisioned backbone: route the actual
// traffic, report utilization, path stretch, and how much rides the
// external-ISP virtual links (the fallback of section 3.3). The paper
// leaves packet-level operation to "industry best practices"; flow
// granularity is sufficient for every quantity it discusses.
#pragma once

#include <vector>

#include "net/mcf.hpp"
#include "net/path_cache.hpp"
#include "net/shard.hpp"

namespace poc::core {

/// Which data plane routes an epoch's traffic. This is a *semantic*
/// choice — the two modes route demands differently and produce
/// different reports — so unlike the engine knobs below it is part of
/// the journal meta fingerprint (sim/replay.cpp).
enum class FlowRouting : std::uint8_t {
    /// The seed behavior: greedy capacity-aware water-filling with a
    /// concurrent-flow fallback when the matrix does not fit. Serial
    /// by nature (each admission sees the loads of all earlier ones).
    kGreedy = 0,
    /// Sharded shared-nothing primary-path routing (net/shard.hpp,
    /// DESIGN.md §9): every demand rides its shortest-by-length path
    /// capacity-obliviously. Scales to 10^5 nodes / 10^6 demands and
    /// is bit-identical for every shard/thread count.
    kPrimary = 1,
};

/// Data-plane fast-path knobs (DESIGN.md §6/§9). The defaults
/// reproduce the plain serial behavior; every setting other than
/// `routing` is bit-identical to it.
struct FlowSimOptions {
    /// Shared shortest-path-tree cache for the per-source SSSP passes
    /// (stretch metric under kGreedy, the routing itself under
    /// kPrimary). Null computes the trees locally.
    net::PathCache* path_cache = nullptr;
    /// Data-plane selection (semantic; fingerprinted).
    FlowRouting routing = FlowRouting::kGreedy;
    /// Shard tasks and threads for the kPrimary partition (engine
    /// knobs: results are bit-identical for every value; both are
    /// ignored under kGreedy, which routes serially).
    std::size_t flow_shards = 1;
    std::size_t flow_threads = 1;
};

struct FlowReport {
    double total_offered_gbps = 0.0;
    double total_routed_gbps = 0.0;
    bool fully_routed = false;

    /// Utilization = load / capacity over links that carry traffic.
    double max_utilization = 0.0;
    double mean_utilization = 0.0;
    /// Per-link load (indexed by link id; zero for inactive links).
    std::vector<double> link_load_gbps;

    /// Demand-weighted mean routed path length (km) and the mean
    /// shortest-possible length (stretch = routed / shortest).
    double mean_path_km = 0.0;
    double mean_shortest_km = 0.0;
    double stretch = 1.0;

    /// Share of total gbps-km carried on virtual (external-ISP) links.
    double virtual_share = 0.0;
};

/// Route `tm` over the backbone and measure. `is_virtual` flags links
/// that are external-ISP virtual links (may be empty if none).
FlowReport simulate_flows(const net::Subgraph& backbone, const net::TrafficMatrix& tm,
                          const std::vector<bool>& is_virtual = {},
                          const FlowSimOptions& opt = {});

/// The kPrimary data plane with caller-owned storage: `tm_soa` is the
/// source-sorted matrix (rebuild only when the matrix changes) and
/// `ws` the per-shard buffers, so repeated epochs reuse the sort
/// permutation and every per-shard buffer (the routing core itself is
/// allocation-free past warm-up; only the returned report allocates).
/// `total_offered_gbps` must be total_demand() of the
/// original matrix (computed in AoS order so the report matches
/// simulate_flows bit for bit). simulate_flows with routing=kPrimary
/// delegates here with temporary storage.
FlowReport simulate_flows_primary(const net::Subgraph& backbone,
                                  const net::TrafficMatrixSoA& tm_soa,
                                  double total_offered_gbps,
                                  const std::vector<bool>& is_virtual,
                                  const FlowSimOptions& opt, net::ShardWorkspace& ws);

}  // namespace poc::core
