#include "ic/topo/topo.hpp"

#include <algorithm>
#include <cstdlib>
#include <deque>
#include <sstream>
#include <stdexcept>

namespace tgsim::ic {

namespace {

// Mesh/torus port numbering, identical to the original XpipesNetwork
// constants (docs/xpipes.md): the refactor must keep every mesh port index
// — and with it the round-robin allocation order — bit-identical.
constexpr int kNorth = 0;
constexpr int kSouth = 1;
constexpr int kEast = 2;
constexpr int kWest = 3;

/// Opposite port on the far end of a mesh/torus link.
[[nodiscard]] constexpr u16 opposite(int port) noexcept {
    switch (port) {
        case kNorth: return kSouth;
        case kSouth: return kNorth;
        case kEast: return kWest;
        default: return kEast;
    }
}

[[nodiscard]] std::optional<u32> parse_graph_u32(const std::string& tok) {
    if (tok.empty() || tok[0] < '0' || tok[0] > '9') return std::nullopt;
    char* end = nullptr;
    const unsigned long v = std::strtoul(tok.c_str(), &end, 10);
    if (end != tok.c_str() + tok.size() || v > 0xFFFFFFFFul)
        return std::nullopt;
    return static_cast<u32>(v);
}

} // namespace

const char* to_string(TopologyKind kind) noexcept {
    switch (kind) {
        case TopologyKind::Mesh: return "mesh";
        case TopologyKind::Torus: return "torus";
        case TopologyKind::Table: return "table";
    }
    return "?";
}

// --- Mesh2D -----------------------------------------------------------------

Mesh2D::Mesh2D(u32 width, u32 height) : width_(width), height_(height) {
    if (width_ == 0 || height_ == 0)
        throw std::invalid_argument{"Mesh2D: empty mesh"};
}

int Mesh2D::route(u32 node, u32 dest) const noexcept {
    const u32 x = node % width_;
    const u32 y = node / width_;
    const u32 dx = dest % width_;
    const u32 dy = dest / width_;
    if (dx > x) return kEast;
    if (dx < x) return kWest;
    if (dy > y) return kSouth;
    if (dy < y) return kNorth;
    return -1;
}

std::optional<TopoLink> Mesh2D::link(u32 node, int port) const noexcept {
    const u32 x = node % width_;
    const u32 y = node / width_;
    switch (port) {
        case kNorth:
            if (y == 0) return std::nullopt;
            return TopoLink{node - width_, opposite(port)};
        case kSouth:
            if (y + 1 >= height_) return std::nullopt;
            return TopoLink{node + width_, opposite(port)};
        case kEast:
            if (x + 1 >= width_) return std::nullopt;
            return TopoLink{node + 1, opposite(port)};
        case kWest:
            if (x == 0) return std::nullopt;
            return TopoLink{node - 1, opposite(port)};
        default:
            return std::nullopt;
    }
}

// --- Torus2D ----------------------------------------------------------------

Torus2D::Torus2D(u32 width, u32 height) : width_(width), height_(height) {
    if (width_ == 0 || height_ == 0)
        throw std::invalid_argument{"Torus2D: empty torus"};
}

int Torus2D::route(u32 node, u32 dest) const noexcept {
    const u32 x = node % width_;
    const u32 y = node / width_;
    const u32 dx = dest % width_;
    const u32 dy = dest / width_;
    if (dx != x) {
        // Minimal ring distance; at exactly half the ring both directions
        // tie and East wins deterministically (<=, not <).
        const u32 east = (dx + width_ - x) % width_;
        const u32 west = (x + width_ - dx) % width_;
        return east <= west ? kEast : kWest;
    }
    if (dy != y) {
        const u32 south = (dy + height_ - y) % height_;
        const u32 north = (y + height_ - dy) % height_;
        return south <= north ? kSouth : kNorth;
    }
    return -1;
}

int Torus2D::next_vc(u32 node, int in_port, int out_port,
                     int vc) const noexcept {
    // Dateline VC switching (docs/topology.md). The dateline of each ring
    // sits on its wrap links: crossing one moves the packet to VC1 for the
    // rest of that ring. Entering a ring — from a local NI port or from
    // the other dimension — resets to VC0, so VC1 is reserved for
    // post-dateline travel and neither VC's channel dependencies close
    // the ring (minimal routing crosses a wrap at most once per
    // dimension).
    const bool same_dim = in_port >= kNorth && in_port <= kWest &&
                          (in_port <= kSouth) == (out_port <= kSouth);
    if (!same_dim) vc = 0;
    const u32 x = node % width_;
    const u32 y = node / width_;
    const bool wrap = (out_port == kEast && x + 1 >= width_) ||
                      (out_port == kWest && x == 0) ||
                      (out_port == kSouth && y + 1 >= height_) ||
                      (out_port == kNorth && y == 0);
    return wrap ? 1 : vc;
}

std::optional<TopoLink> Torus2D::link(u32 node, int port) const noexcept {
    const u32 x = node % width_;
    const u32 y = node / width_;
    switch (port) {
        case kNorth:
            return TopoLink{(y == 0 ? node + (height_ - 1) * width_
                                    : node - width_),
                            opposite(port)};
        case kSouth:
            return TopoLink{(y + 1 >= height_ ? node - (height_ - 1) * width_
                                              : node + width_),
                            opposite(port)};
        case kEast:
            return TopoLink{(x + 1 >= width_ ? node - (width_ - 1)
                                             : node + 1),
                            opposite(port)};
        case kWest:
            return TopoLink{(x == 0 ? node + (width_ - 1) : node - 1),
                            opposite(port)};
        default:
            return std::nullopt;
    }
}

// --- TableGraph -------------------------------------------------------------

TableGraph::TableGraph(const GraphSpec& spec) : nodes_(spec.nodes) {
    if (nodes_ == 0) throw std::invalid_argument{"TableGraph: empty graph"};
    adj_.assign(nodes_, {});
    for (const auto& [a, b] : spec.edges) {
        if (a >= nodes_ || b >= nodes_ || a == b)
            throw std::invalid_argument{"TableGraph: bad edge"};
        adj_[a].push_back(b);
        adj_[b].push_back(a);
    }
    for (auto& nbrs : adj_) {
        std::sort(nbrs.begin(), nbrs.end());
        if (std::adjacent_find(nbrs.begin(), nbrs.end()) != nbrs.end())
            throw std::invalid_argument{"TableGraph: duplicate edge"};
        max_degree_ = std::max(max_degree_, static_cast<u32>(nbrs.size()));
    }

    // arrival_[n][p]: the input port on adj_[n][p] that a flit leaving n
    // through p lands on — the index of n in the neighbour's sorted list.
    arrival_.assign(nodes_, {});
    for (u32 n = 0; n < nodes_; ++n) {
        arrival_[n].reserve(adj_[n].size());
        for (const u32 nbr : adj_[n]) {
            const auto& back = adj_[nbr];
            const auto it = std::lower_bound(back.begin(), back.end(), n);
            arrival_[n].push_back(
                static_cast<u16>(std::distance(back.begin(), it)));
        }
    }

    // All-pairs next-hop tables: one BFS per destination (unit edge costs,
    // so BFS == Dijkstra) gives dist-to-dest; the next hop at every node is
    // the neighbour with the smallest dist, ties toward the smallest
    // neighbour id. Consistent by construction (dist drops by 1 per hop),
    // so routes are loop-free and deterministic.
    std::vector<u32> dist(nodes_);
    std::deque<u32> queue;
    constexpr u32 kUnreached = 0xFFFFFFFFu;
    const auto bfs = [&](u32 dest) {
        std::fill(dist.begin(), dist.end(), kUnreached);
        dist[dest] = 0;
        queue.assign(1, dest);
        while (!queue.empty()) {
            const u32 n = queue.front();
            queue.pop_front();
            for (const u32 nbr : adj_[n])
                if (dist[nbr] == kUnreached) {
                    dist[nbr] = dist[n] + 1;
                    queue.push_back(nbr);
                }
        }
    };
    // Connectivity before the nodes² table: a file that declares 65535
    // nodes and a handful of edges must be refused, not allocate 16 GiB.
    bfs(0);
    if (std::find(dist.begin(), dist.end(), kUnreached) != dist.end())
        throw std::invalid_argument{"TableGraph: disconnected graph"};
    table_.assign(static_cast<std::size_t>(nodes_) * nodes_, -1);
    for (u32 dest = 0; dest < nodes_; ++dest) {
        bfs(dest);
        for (u32 n = 0; n < nodes_; ++n) {
            if (n == dest) continue;
            int best_port = -1;
            u32 best_dist = kUnreached;
            for (u32 p = 0; p < adj_[n].size(); ++p) {
                const u32 d = dist[adj_[n][p]];
                // Strict <: the first (smallest-id) neighbour wins ties.
                if (d < best_dist) {
                    best_dist = d;
                    best_port = static_cast<int>(p);
                }
            }
            table_[static_cast<std::size_t>(n) * nodes_ + dest] = best_port;
        }
    }
}

int TableGraph::route(u32 node, u32 dest) const noexcept {
    return table_[static_cast<std::size_t>(node) * nodes_ + dest];
}

std::optional<TopoLink> TableGraph::link(u32 node, int port) const noexcept {
    if (port < 0 || static_cast<std::size_t>(port) >= adj_[node].size())
        return std::nullopt;
    return TopoLink{adj_[node][static_cast<u32>(port)],
                    arrival_[node][static_cast<u32>(port)]};
}

// --- graph file parsing -----------------------------------------------------

std::optional<GraphSpec> parse_graph(const std::string& text,
                                     const std::string& source,
                                     std::string* error) {
    const auto fail = [&](const std::string& msg) -> std::optional<GraphSpec> {
        if (error != nullptr) *error = source + ": " + msg;
        return std::nullopt;
    };
    GraphSpec spec;
    spec.source = source;
    bool have_nodes = false;
    std::istringstream in{text};
    std::string line;
    u32 line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        if (const auto hash = line.find('#'); hash != std::string::npos)
            line.resize(hash);
        std::istringstream ls{line};
        std::string kw;
        if (!(ls >> kw)) continue; // blank / comment-only line
        const std::string at = " (line " + std::to_string(line_no) + ")";
        if (kw == "nodes") {
            std::string tok;
            if (have_nodes || !(ls >> tok)) return fail("bad nodes line" + at);
            const auto n = parse_graph_u32(tok);
            if (!n || *n == 0 || *n > kMaxNodes)
                return fail("node count must be in [1, " +
                            std::to_string(kMaxNodes) + "]" + at);
            spec.nodes = *n;
            have_nodes = true;
        } else if (kw == "edge") {
            if (!have_nodes)
                return fail("edge before the nodes line" + at);
            std::string ta, tb;
            if (!(ls >> ta >> tb)) return fail("bad edge line" + at);
            const auto a = parse_graph_u32(ta);
            const auto b = parse_graph_u32(tb);
            if (!a || !b || *a >= spec.nodes || *b >= spec.nodes)
                return fail("edge endpoint out of range" + at);
            if (*a == *b) return fail("self-loop edge" + at);
            spec.edges.emplace_back(*a, *b);
        } else {
            return fail("unknown keyword '" + kw + "'" + at);
        }
        std::string rest;
        if (ls >> rest) return fail("trailing tokens" + at);
    }
    if (!have_nodes) return fail("missing nodes line");
    // Validate connectivity and edge uniqueness by building once; the
    // TableGraph constructor performs both checks.
    try {
        TableGraph check{spec};
        (void)check;
    } catch (const std::invalid_argument& e) {
        return fail(e.what());
    }
    return spec;
}

std::unique_ptr<Topology> make_topology(
    TopologyKind kind, u32 width, u32 height,
    const std::shared_ptr<const GraphSpec>& graph) {
    switch (kind) {
        case TopologyKind::Mesh:
            return std::make_unique<Mesh2D>(width, height);
        case TopologyKind::Torus:
            return std::make_unique<Torus2D>(width, height);
        case TopologyKind::Table:
            if (!graph)
                throw std::invalid_argument{
                    "make_topology: table topology needs a graph"};
            return std::make_unique<TableGraph>(*graph);
    }
    throw std::invalid_argument{"make_topology: unknown kind"};
}

} // namespace tgsim::ic
