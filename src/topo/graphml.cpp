#include "topo/graphml.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>
#include <set>

#include "util/contracts.hpp"

namespace poc::topo {

namespace {

/// Extract the value of attribute `name` from an XML tag body (the text
/// between '<' and '>'). Handles single or double quotes.
std::optional<std::string> attribute(const std::string& tag, const std::string& name) {
    const std::string needle = name + "=";
    std::size_t pos = 0;
    while ((pos = tag.find(needle, pos)) != std::string::npos) {
        // Make sure this is a standalone attribute name (preceded by
        // whitespace), not a suffix of a longer one (attr.name vs name).
        if (pos > 0 && !std::isspace(static_cast<unsigned char>(tag[pos - 1]))) {
            pos += needle.size();
            continue;
        }
        pos += needle.size();
        if (pos >= tag.size()) return std::nullopt;
        const char quote = tag[pos];
        if (quote != '"' && quote != '\'') return std::nullopt;
        const std::size_t end = tag.find(quote, pos + 1);
        if (end == std::string::npos) return std::nullopt;
        return tag.substr(pos + 1, end - pos - 1);
    }
    return std::nullopt;
}

struct Tag {
    std::string body;       // text between < and > (without them)
    std::size_t begin = 0;  // offset of '<'
    std::size_t end = 0;    // offset just past '>'

    bool is(const std::string& name) const {
        return body.rfind(name, 0) == 0 &&
               (body.size() == name.size() ||
                std::isspace(static_cast<unsigned char>(body[name.size()])) ||
                body[name.size()] == '/' || body[name.size()] == '>');
    }
    bool self_closing() const { return !body.empty() && body.back() == '/'; }
    bool closing() const { return !body.empty() && body.front() == '/'; }
};

/// Scan the next tag at or after `from`.
std::optional<Tag> next_tag(const std::string& text, std::size_t from) {
    const std::size_t lt = text.find('<', from);
    if (lt == std::string::npos) return std::nullopt;
    const std::size_t gt = text.find('>', lt + 1);
    if (gt == std::string::npos) {
        throw GraphmlParseError("unclosed tag (truncated input?)", lt);
    }
    Tag t;
    t.body = text.substr(lt + 1, gt - lt - 1);
    t.begin = lt;
    t.end = gt + 1;
    return t;
}

/// Parse a full numeric value (strtod with no trailing garbage).
double parse_coordinate(const std::string& value, const char* what, std::size_t offset) {
    const char* begin = value.c_str();
    char* end = nullptr;
    const double v = std::strtod(begin, &end);
    const char* tail = end;
    while (tail != nullptr && *tail != '\0' &&
           std::isspace(static_cast<unsigned char>(*tail))) {
        ++tail;
    }
    if (end == begin || tail == nullptr || *tail != '\0' || !std::isfinite(v)) {
        throw GraphmlParseError(std::string(what) + " value is not a finite number: '" +
                                    value + "'",
                                offset);
    }
    return v;
}

}  // namespace

std::optional<std::size_t> ZooGraph::node_index(const std::string& id) const {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        if (nodes[i].id == id) return i;
    }
    return std::nullopt;
}

ZooGraph parse_graphml(const std::string& text) {
    // Pass 1: key declarations mapping data-key ids to attribute names.
    std::map<std::string, std::string> key_name;  // key id -> attr.name
    std::size_t pos = 0;
    while (const auto tag = next_tag(text, pos)) {
        pos = tag->end;
        if (!tag->is("key")) continue;
        const auto id = attribute(tag->body, "id");
        const auto name = attribute(tag->body, "attr.name");
        if (id && name) key_name[*id] = *name;
    }

    ZooGraph graph;
    pos = 0;

    // Pass 2: graph/node/edge elements with their <data> children.
    enum class Scope { kNone, kNode, kEdge, kGraph };
    Scope scope = Scope::kNone;
    std::set<std::string> node_ids;
    std::set<std::string> edge_ids;
    std::vector<std::size_t> edge_offsets;  // for post-pass diagnostics
    ZooNode current_node;
    // Plain flags instead of std::optional<double>: GCC 12's
    // -Wmaybe-uninitialized false-positives on the optional pattern.
    double cur_lat = 0.0;
    double cur_lon = 0.0;
    bool have_lat = false;
    bool have_lon = false;

    while (const auto tag = next_tag(text, pos)) {
        const std::size_t content_begin = tag->end;
        pos = tag->end;

        if (tag->is("graph") && !tag->closing()) {
            scope = Scope::kGraph;
            continue;
        }
        if (tag->is("node") && !tag->closing()) {
            const auto id = attribute(tag->body, "id");
            if (!id) throw GraphmlParseError("node element missing id attribute", tag->begin);
            if (!node_ids.insert(*id).second) {
                throw GraphmlParseError("duplicate node id '" + *id + "'", tag->begin);
            }
            current_node = ZooNode{};
            current_node.id = *id;
            have_lat = have_lon = false;
            if (tag->self_closing()) {
                graph.nodes.push_back(current_node);
            } else {
                scope = Scope::kNode;
            }
            continue;
        }
        if (tag->is("/node")) {
            if (have_lat && have_lon) current_node.location = GeoPoint{cur_lat, cur_lon};
            graph.nodes.push_back(current_node);
            scope = Scope::kGraph;
            continue;
        }
        if (tag->is("edge") && !tag->closing()) {
            const auto source = attribute(tag->body, "source");
            const auto target = attribute(tag->body, "target");
            if (!source || !target) {
                throw GraphmlParseError("edge element missing source/target attribute",
                                        tag->begin);
            }
            auto id = attribute(tag->body, "id").value_or("");
            if (!id.empty() && !edge_ids.insert(id).second) {
                throw GraphmlParseError("duplicate edge id '" + id + "'", tag->begin);
            }
            graph.edges.push_back(ZooEdge{*source, *target, std::move(id)});
            edge_offsets.push_back(tag->begin);
            if (!tag->self_closing()) scope = Scope::kEdge;
            continue;
        }
        if (tag->is("/edge")) {
            scope = Scope::kGraph;
            continue;
        }
        if (tag->is("data") && !tag->closing() && !tag->self_closing()) {
            const auto key = attribute(tag->body, "key");
            if (!key) continue;
            const auto named = key_name.find(*key);
            if (named == key_name.end()) continue;
            const std::size_t close = text.find("</data>", content_begin);
            if (close == std::string::npos) {
                throw GraphmlParseError("unclosed <data> element", tag->begin);
            }
            const std::string value = text.substr(content_begin, close - content_begin);
            pos = close + 7;
            if (scope == Scope::kNode) {
                if (named->second == "Latitude") {
                    cur_lat = parse_coordinate(value, "Latitude", content_begin);
                    have_lat = true;
                }
                if (named->second == "Longitude") {
                    cur_lon = parse_coordinate(value, "Longitude", content_begin);
                    have_lon = true;
                }
                if (named->second == "label") current_node.label = value;
            } else if (scope == Scope::kGraph) {
                if (named->second == "Network" || named->second == "label") {
                    graph.name = value;
                }
            }
            continue;
        }
    }

    // Validate edge endpoints (a post-pass: GraphML allows an edge to
    // reference a node declared later in the file).
    for (std::size_t i = 0; i < graph.edges.size(); ++i) {
        const ZooEdge& e = graph.edges[i];
        for (const std::string& endpoint : {e.source, e.target}) {
            if (!graph.node_index(endpoint)) {
                throw GraphmlParseError("edge references unknown node '" + endpoint + "'",
                                        edge_offsets[i]);
            }
        }
    }
    return graph;
}

BpNetwork bp_from_zoo(const ZooGraph& zoo, const ZooImportOptions& opt) {
    POC_EXPECTS(opt.capacity_gbps > 0.0);
    const auto& cities = world_cities();

    // Map each located node to its nearest gazetteer city.
    std::vector<std::optional<std::size_t>> node_city(zoo.nodes.size());
    std::set<std::size_t> used_cities;
    for (std::size_t n = 0; n < zoo.nodes.size(); ++n) {
        const ZooNode& zn = zoo.nodes[n];
        if (!zn.location) {
            POC_EXPECTS(opt.drop_unlocated);
            continue;
        }
        std::size_t best = 0;
        double best_d = std::numeric_limits<double>::infinity();
        for (std::size_t c = 0; c < cities.size(); ++c) {
            const double d = haversine_km(*zn.location, cities[c].location);
            if (d < best_d) {
                best_d = d;
                best = c;
            }
        }
        node_city[n] = best;
        used_cities.insert(best);
    }
    POC_EXPECTS(!used_cities.empty());

    BpNetwork bp;
    bp.name = zoo.name.empty() ? "ZooImport" : zoo.name;
    bp.cities.assign(used_cities.begin(), used_cities.end());  // sorted

    net::GraphBuilder physical;
    std::map<std::size_t, std::size_t> city_to_node;  // gazetteer -> bp node
    for (const std::size_t ci : bp.cities) {
        city_to_node[ci] = physical.add_node(cities[ci].name).index();
    }

    // Edges: merge parallel duplicates and drop self-loops created by
    // nearest-city merging.
    std::set<std::pair<std::size_t, std::size_t>> seen;
    for (const ZooEdge& e : zoo.edges) {
        const auto si = zoo.node_index(e.source);
        const auto ti = zoo.node_index(e.target);
        POC_ASSERT(si && ti);
        if (!node_city[*si] || !node_city[*ti]) continue;  // unlocated endpoint
        std::size_t ca = *node_city[*si];
        std::size_t cb = *node_city[*ti];
        if (ca == cb) continue;  // merged into one metro
        if (ca > cb) std::swap(ca, cb);
        if (!seen.insert({ca, cb}).second) continue;  // duplicate circuit
        const double km = haversine_km(cities[ca].location, cities[cb].location);
        physical.add_link(net::NodeId{city_to_node[ca]}, net::NodeId{city_to_node[cb]},
                          opt.capacity_gbps, std::max(km, 1.0));
    }
    bp.physical = std::move(physical).build();
    return bp;
}

}  // namespace poc::topo
