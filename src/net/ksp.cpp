#include "net/ksp.hpp"

#include <algorithm>

namespace poc::net {

YenEnumerator::YenEnumerator(Subgraph& view, const ActiveAdjacency& adj,
                             std::span<const double> weight, SsspWorkspace& ws)
    : view_(&view), adj_(&adj), weight_(weight), ws_(&ws) {
    POC_EXPECTS(weight.size() == view.graph().link_count());
}

void YenEnumerator::start(NodeId src, NodeId dst) {
    POC_EXPECTS(src != dst);
    src_ = src;
    dst_ = dst;
    exhausted_ = false;
    accepted_.clear();
    candidates_.clear();
}

const WeightedPath* YenEnumerator::next() {
    if (exhausted_) return nullptr;
    if (accepted_.empty()) {
        auto first = shortest_path(*view_, *adj_, src_, dst_, weight_, *ws_);
        if (!first) {
            exhausted_ = true;
            return nullptr;
        }
        accepted_.push_back(std::move(*first));
        return &accepted_.back();
    }

    add_spur_candidates();
    // Pop candidates until one is not already accepted.
    while (!candidates_.empty()) {
        auto best = candidates_.extract(candidates_.begin());
        const bool duplicate =
            std::any_of(accepted_.begin(), accepted_.end(),
                        [&](const WeightedPath& p) { return p.links == best.value().links; });
        if (!duplicate) {
            accepted_.push_back(std::move(best.value()));
            return &accepted_.back();
        }
    }
    exhausted_ = true;  // path space exhausted
    return nullptr;
}

void YenEnumerator::add_spur_candidates() {
    const WeightedPath& prev = accepted_.back();
    const std::vector<NodeId> prev_nodes = path_nodes(view_->graph(), src_, prev.links);

    // Weight of the root (the first i links of the previous path),
    // summed link by link in path order as the spur loop advances.
    double root_weight = 0.0;
    for (std::size_t i = 0; i + 1 < prev_nodes.size(); ++i) {
        if (i > 0) root_weight += weight_[prev.links[i - 1].index()];
        const NodeId spur_node = prev_nodes[i];
        const auto root_begin = prev.links.begin();
        const auto root_end = root_begin + static_cast<std::ptrdiff_t>(i);

        // Deactivate the next link of every accepted path sharing this
        // root, so the spur deviates.
        removed_.clear();
        for (const WeightedPath& p : accepted_) {
            if (p.links.size() > i && std::equal(root_begin, root_end, p.links.begin())) {
                const LinkId next = p.links[i];
                if (view_->is_active(next)) {
                    view_->set_active(next, false);
                    removed_.push_back(next);
                }
            }
        }
        // Deactivate all links incident to root nodes (except the spur
        // node) to keep paths loopless.
        for (std::size_t j = 0; j < i; ++j) {
            for (const LinkId lid : adj_->incident(prev_nodes[j])) {
                if (view_->is_active(lid)) {
                    view_->set_active(lid, false);
                    removed_.push_back(lid);
                }
            }
        }

        if (auto spur = shortest_path(*view_, *adj_, spur_node, dst_, weight_, *ws_)) {
            WeightedPath total;
            total.links.reserve(i + spur->links.size());
            total.links.assign(root_begin, root_end);
            total.links.insert(total.links.end(), spur->links.begin(), spur->links.end());
            total.weight = root_weight + spur->weight;
            candidates_.insert(std::move(total));
        }

        for (const LinkId lid : removed_) view_->set_active(lid, true);
    }
}

std::vector<WeightedPath> yen_k_shortest(const Subgraph& sg, NodeId src, NodeId dst,
                                         const LinkWeight& weight, std::size_t k) {
    SsspWorkspace ws;
    return yen_k_shortest(sg, src, dst, weight, k, ws);
}

std::vector<WeightedPath> yen_k_shortest(const Subgraph& sg, NodeId src, NodeId dst,
                                         const LinkWeight& weight, std::size_t k,
                                         SsspWorkspace& ws) {
    POC_EXPECTS(k >= 1);
    POC_EXPECTS(src != dst);
    std::vector<double> flat(sg.graph().link_count(), 0.0);
    for (const LinkId lid : sg.active_links()) flat[lid.index()] = weight(lid);
    Subgraph view = sg;
    const ActiveAdjacency adj(sg);
    YenEnumerator yen(view, adj, flat, ws);
    yen.start(src, dst);

    std::vector<WeightedPath> result;
    while (result.size() < k) {
        const WeightedPath* p = yen.next();
        if (p == nullptr) break;
        result.push_back(*p);
    }
    return result;
}

}  // namespace poc::net
