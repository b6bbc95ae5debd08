#include "net/graph.hpp"

#include <algorithm>
#include <limits>

namespace poc::net {

namespace {

/// The CSR adjacency stores one uint32 offset per node and two
/// incidence slots per link; node and link ids themselves are uint32
/// (with the top value reserved as the invalid sentinel). Cap both
/// counts so the total incidence 2·L and every id fit without
/// wrapping — at 10^5-node continental scale these are nowhere near
/// binding, but a silent uint32 wrap would corrupt adjacency, not
/// throw.
constexpr std::size_t kMaxNodes = NodeId::kInvalid;          // ids 0 .. kInvalid-1
constexpr std::size_t kMaxLinks =
    std::numeric_limits<std::uint32_t>::max() / 2;           // 2·L fits uint32

}  // namespace

GraphBuilder::GraphBuilder(Graph base)
    : node_labels_(std::move(base.node_labels_)), links_(std::move(base.links_)) {}

void GraphBuilder::reserve(std::size_t nodes, std::size_t links) {
    POC_EXPECTS(nodes <= kMaxNodes);
    POC_EXPECTS(links <= kMaxLinks);
    node_labels_.reserve(nodes);
    links_.reserve(links);
}

NodeId GraphBuilder::add_node(std::string label) {
    POC_EXPECTS(node_labels_.size() < kMaxNodes);
    node_labels_.push_back(std::move(label));
    return NodeId{node_labels_.size() - 1};
}

NodeId GraphBuilder::add_nodes(std::size_t count) {
    POC_EXPECTS(count > 0);
    POC_EXPECTS(node_labels_.size() + count <= kMaxNodes);
    const NodeId first{node_labels_.size()};
    node_labels_.resize(node_labels_.size() + count);
    return first;
}

LinkId GraphBuilder::add_link(NodeId a, NodeId b, double capacity_gbps, double length_km) {
    POC_EXPECTS(a.valid() && a.index() < node_count());
    POC_EXPECTS(b.valid() && b.index() < node_count());
    POC_EXPECTS(a != b);
    POC_EXPECTS(capacity_gbps > 0.0);
    POC_EXPECTS(length_km >= 0.0);
    POC_EXPECTS(links_.size() < kMaxLinks);
    links_.push_back(Link{a, b, capacity_gbps, length_km});
    return LinkId{links_.size() - 1};
}

Graph::Graph(std::vector<std::string> node_labels, std::vector<Link> links)
    : node_labels_(std::move(node_labels)), links_(std::move(links)) {
    // Counting sort of the 2·L incidences by node; scanning links in id
    // order leaves each node's slice in ascending link id.
    adj_offsets_.assign(node_count() + 1, 0);
    for (const Link& l : links_) {
        ++adj_offsets_[l.a.index() + 1];
        ++adj_offsets_[l.b.index() + 1];
    }
    for (std::size_t i = 1; i < adj_offsets_.size(); ++i) adj_offsets_[i] += adj_offsets_[i - 1];
    adj_links_.resize(links_.size() * 2);
    std::vector<std::uint32_t> cursor(adj_offsets_.begin(), adj_offsets_.end() - 1);
    soa_a_.resize(links_.size());
    soa_b_.resize(links_.size());
    soa_capacity_.resize(links_.size());
    soa_length_.resize(links_.size());
    for (std::size_t i = 0; i < links_.size(); ++i) {
        const Link& l = links_[i];
        adj_links_[cursor[l.a.index()]++] = LinkId{i};
        adj_links_[cursor[l.b.index()]++] = LinkId{i};
        soa_a_[i] = l.a.value();
        soa_b_[i] = l.b.value();
        soa_capacity_[i] = l.capacity_gbps;
        soa_length_[i] = l.length_km;
    }
}

std::vector<LinkId> Graph::all_links() const {
    std::vector<LinkId> out;
    out.reserve(links_.size());
    for (std::size_t i = 0; i < links_.size(); ++i) out.emplace_back(i);
    return out;
}

void TrafficMatrixSoA::assign(const TrafficMatrix& tm) {
    POC_EXPECTS(tm.size() <= std::numeric_limits<std::uint32_t>::max());
    const std::size_t n = tm.size();
    src_.resize(n);
    dst_.resize(n);
    gbps_.resize(n);
    order_.resize(n);
    sources_.clear();
    block_begin_.clear();
    if (n == 0) {
        block_begin_.push_back(0);
        return;
    }

    NodeId::underlying_type max_src = 0;
    for (const Demand& d : tm) {
        POC_EXPECTS(d.src.valid() && d.dst.valid());
        max_src = std::max(max_src, d.src.value());
    }

    // Counting sort on the source id: stable (AoS order within a
    // block) and allocation-free once `counts_` has grown to the id
    // range.
    counts_.assign(static_cast<std::size_t>(max_src) + 2, 0);
    for (const Demand& d : tm) ++counts_[d.src.value() + 1];
    for (std::size_t s = 1; s < counts_.size(); ++s) counts_[s] += counts_[s - 1];
    for (std::size_t j = 0; j < n; ++j) {
        const std::uint32_t k = counts_[tm[j].src.value()]++;
        src_[k] = tm[j].src.value();
        dst_[k] = tm[j].dst.value();
        gbps_[k] = tm[j].gbps;
        order_[k] = static_cast<std::uint32_t>(j);
    }

    block_begin_.push_back(0);
    for (std::uint32_t k = 0; k < n; ++k) {
        if (k == 0 || src_[k] != src_[k - 1]) {
            sources_.push_back(src_[k]);
            if (k != 0) block_begin_.push_back(k);
        }
    }
    block_begin_.push_back(static_cast<std::uint32_t>(n));
    POC_ENSURES(block_begin_.size() == sources_.size() + 1);
}

TrafficMatrix TrafficMatrixSoA::to_aos() const {
    TrafficMatrix out(size());
    for (std::size_t k = 0; k < size(); ++k) {
        out[order_[k]] = Demand{NodeId{src_[k]}, NodeId{dst_[k]}, gbps_[k]};
    }
    return out;
}

Subgraph::Subgraph(const Graph& graph)
    : graph_(&graph), mask_(graph.link_count(), 1), active_count_(graph.link_count()) {
    for (std::size_t i = 0; i < mask_.size(); ++i) fingerprint_ ^= link_fingerprint(i);
}

Subgraph::Subgraph(const Graph& graph, const std::vector<LinkId>& active)
    : graph_(&graph), mask_(graph.link_count(), 0) {
    for (const LinkId id : active) set_active(id, true);
}

std::vector<LinkId> Subgraph::active_links() const {
    std::vector<LinkId> out;
    out.reserve(active_count_);
    for (std::size_t i = 0; i < mask_.size(); ++i) {
        if (mask_[i] != 0) out.emplace_back(i);
    }
    return out;
}

double total_demand(const TrafficMatrix& tm) {
    double s = 0.0;
    for (const Demand& d : tm) s += d.gbps;
    return s;
}

}  // namespace poc::net
