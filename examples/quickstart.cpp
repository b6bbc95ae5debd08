// Quickstart: the POC bandwidth auction on a toy market.
//
// Six bandwidth providers offer circuits between four POC routers; the
// POC picks the cheapest acceptable set for its traffic matrix and pays
// VCG (Clarke pivot) prices. Build & run:
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <iostream>

#include "market/vcg.hpp"
#include "util/table.hpp"

using namespace poc;
using util::operator""_usd;

int main() {
    // --- 1. The candidate network: 4 POC routers. --------------------
    net::GraphBuilder builder;
    const auto nyc = builder.add_node("NewYork");
    const auto chi = builder.add_node("Chicago");
    const auto dal = builder.add_node("Dallas");
    const auto sjc = builder.add_node("SanJose");

    // --- 2. Sealed bids: each BP offers links with minimal prices. ---
    std::vector<market::BpBid> bids;
    auto bid = [&](std::size_t idx, const std::string& name) -> market::BpBid& {
        bids.emplace_back(market::BpId{idx}, name);
        return bids.back();
    };

    auto& east = bid(0, "EastFiber");
    east.offer(builder.add_link(nyc, chi, 200.0, 1150.0), 5200_usd);
    east.offer(builder.add_link(chi, dal, 200.0, 1290.0), 5600_usd);
    east.add_discount(market::DiscountTier{2, 0.05});  // bundle both for 5% off

    auto& west = bid(1, "WestWave");
    west.offer(builder.add_link(dal, sjc, 200.0, 2300.0), 8100_usd);
    west.offer(builder.add_link(chi, sjc, 100.0, 2990.0), 9400_usd);

    auto& trunk = bid(2, "TransTrunk");
    trunk.offer(builder.add_link(nyc, sjc, 400.0, 4130.0), 16800_usd);

    auto& metro = bid(3, "MetroMesh");
    metro.offer(builder.add_link(nyc, chi, 100.0, 1190.0), 4900_usd);

    auto& south = bid(4, "SouthernLight");
    south.offer(builder.add_link(nyc, dal, 200.0, 2210.0), 7900_usd);

    auto& plains = bid(5, "PlainsNet");
    plains.offer(builder.add_link(chi, dal, 100.0, 1310.0), 5100_usd);

    // External ISP fallback: an expensive virtual link NYC<->SJC.
    market::VirtualLinkContract contract;
    contract.add(builder.add_link(nyc, sjc, 400.0, 4130.0), 39000_usd);

    const net::Graph graph = std::move(builder).build();
    const market::OfferPool pool(std::move(bids), contract, graph);

    // --- 3. Traffic matrix upper bound (Gbps). -----------------------
    const net::TrafficMatrix tm{
        {nyc, sjc, 120.0}, {sjc, nyc, 60.0}, {nyc, dal, 40.0},
        {chi, sjc, 50.0},  {dal, chi, 30.0},
    };

    // --- 4. Run the strategy-proof auction. --------------------------
    const market::AcceptabilityOracle oracle(graph, tm, market::ConstraintKind::kLoad);
    const auto result = market::run_auction(pool, oracle);
    if (!result) {
        std::cerr << "offers cannot carry the traffic matrix\n";
        return 1;
    }

    std::cout << "Selected backbone (" << result->selection.links.size() << " links, C(SL) = "
              << result->selection.cost << "):\n";
    for (const net::LinkId l : result->selection.links) {
        const net::Link& link = graph.link(l);
        const market::BpId owner = pool.owner(l);
        std::cout << "  " << graph.node_label(link.a) << " - " << graph.node_label(link.b)
                  << "  " << link.capacity_gbps << "G  ["
                  << (owner.valid() ? pool.bid(owner).name() : std::string("virtual")) << "]\n";
    }

    util::Table table({"BP", "links won", "bid C_a(SL_a)", "payment P_a", "PoB"});
    for (const market::BpOutcome& out : result->outcomes) {
        table.add_row({out.name, util::cell(out.selected_links.size()), out.bid_cost.str(),
                       out.payment.str(), util::cell(out.pob, 3)});
    }
    std::cout << "\n" << table.render();
    std::cout << "\nPOC monthly outlay (BP payments + virtual contracts): "
              << result->total_outlay << "\n";
    return 0;
}
