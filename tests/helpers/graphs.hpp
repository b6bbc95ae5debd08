// Shared graph fixtures for the net/market tests.
#pragma once

#include <utility>

#include "net/graph.hpp"
#include "util/rng.hpp"

namespace poc::test {

/// A triangle: 0-1 (cap 10, len 1), 1-2 (cap 10, len 1), 0-2 (cap 5, len 3).
inline net::Graph triangle() {
    net::GraphBuilder g;
    const auto n0 = g.add_node("n0");
    const auto n1 = g.add_node("n1");
    const auto n2 = g.add_node("n2");
    g.add_link(n0, n1, 10.0, 1.0);
    g.add_link(n1, n2, 10.0, 1.0);
    g.add_link(n0, n2, 5.0, 3.0);
    return std::move(g).build();
}

/// Classic max-flow textbook graph with known max flow 23 from 0 to 5.
inline net::Graph maxflow_classic() {
    net::GraphBuilder g;
    g.add_nodes(6);
    using net::NodeId;
    g.add_link(NodeId{0u}, NodeId{1u}, 16.0, 1.0);
    g.add_link(NodeId{0u}, NodeId{2u}, 13.0, 1.0);
    g.add_link(NodeId{1u}, NodeId{2u}, 10.0, 1.0);
    g.add_link(NodeId{1u}, NodeId{3u}, 12.0, 1.0);
    g.add_link(NodeId{2u}, NodeId{4u}, 14.0, 1.0);
    g.add_link(NodeId{3u}, NodeId{2u}, 9.0, 1.0);
    g.add_link(NodeId{3u}, NodeId{5u}, 20.0, 1.0);
    g.add_link(NodeId{4u}, NodeId{3u}, 7.0, 1.0);
    g.add_link(NodeId{4u}, NodeId{5u}, 4.0, 1.0);
    return std::move(g).build();
}

/// A ring of n nodes, all links capacity `cap`, length 1.
inline net::Graph ring(std::size_t n, double cap = 10.0) {
    net::GraphBuilder g;
    g.add_nodes(n);
    for (std::size_t i = 0; i < n; ++i) {
        g.add_link(net::NodeId{i}, net::NodeId{(i + 1) % n}, cap, 1.0);
    }
    return std::move(g).build();
}

/// A path (chain) of n nodes.
inline net::Graph chain(std::size_t n, double cap = 10.0) {
    net::GraphBuilder g;
    g.add_nodes(n);
    for (std::size_t i = 0; i + 1 < n; ++i) {
        g.add_link(net::NodeId{i}, net::NodeId{i + 1}, cap, 1.0);
    }
    return std::move(g).build();
}

/// Random connected graph: a spanning chain plus extra random links.
inline net::Graph random_connected(util::Rng& rng, std::size_t n, std::size_t extra_links,
                                   double max_cap = 20.0) {
    net::GraphBuilder g;
    g.add_nodes(n);
    for (std::size_t i = 0; i + 1 < n; ++i) {
        g.add_link(net::NodeId{i}, net::NodeId{i + 1}, rng.uniform(1.0, max_cap),
                   rng.uniform(1.0, 10.0));
    }
    for (std::size_t e = 0; e < extra_links; ++e) {
        const auto a = static_cast<std::size_t>(rng.uniform_int(std::uint64_t{n}));
        auto b = static_cast<std::size_t>(rng.uniform_int(std::uint64_t{n}));
        if (a == b) b = (b + 1) % n;
        g.add_link(net::NodeId{a}, net::NodeId{b}, rng.uniform(1.0, max_cap),
                   rng.uniform(1.0, 10.0));
    }
    return std::move(g).build();
}

}  // namespace poc::test
