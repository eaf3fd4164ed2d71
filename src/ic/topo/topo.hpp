// Topology abstraction for the ×pipes fabric (docs/topology.md).
//
// A Topology owns the node/link adjacency of the network and the
// deterministic routing function; XpipesNetwork (routers, NIs, the active
// worklist) and analytic::Evaluator (route walking, per-link offered load)
// are written against this interface and never against XY coordinates.
// Three implementations ship:
//
//   * Mesh2D  — the original XY-routed 2D mesh. Port numbering, route
//     check order and link endpoints reproduce the pre-abstraction
//     XpipesNetwork bit-for-bit (the golden reference, property-tested by
//     tests/topo_test.cpp and pinned by bench/mesh_gating.cpp);
//   * Torus2D — 2D torus with wrap links and minimal dimension-ordered
//     routing (deterministic tie-break at half-ring distances). Wrap links
//     close channel-dependency cycles, so the torus runs two dateline
//     virtual channels per protocol plane (vcs/next_vc) — the standard
//     deadlock-freedom construction for wormhole rings;
//   * TableGraph — arbitrary connected graph loaded from a small text
//     format, routed by all-pairs shortest-path next-hop tables
//     (garnet-style, BFS with deterministic tie-breaking).
//
// Routing determinism is part of the interface contract: route() and
// link() are pure functions of (topology, node, dest/port) — never of
// simulation state — so sweep results stay bit-identical at any --jobs and
// any --shard split.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/types.hpp"

namespace tgsim::ic {

enum class TopologyKind : u8 { Mesh, Torus, Table };

/// Largest node count of any fabric: node ids travel as u16 in flit
/// headers and NI state, so a bigger mesh, torus or graph would alias ids.
inline constexpr u32 kMaxNodes = 0xFFFF;

[[nodiscard]] const char* to_string(TopologyKind kind) noexcept;

/// Parsed table-graph description (docs/topology.md documents the file
/// format: "nodes N" then undirected "edge A B" lines, '#' comments).
/// Immutable once built; sweeps share one instance across worker threads
/// via shared_ptr<const GraphSpec>.
struct GraphSpec {
    u32 nodes = 0;
    std::vector<std::pair<u32, u32>> edges; ///< undirected, validated
    std::string source; ///< path or label, folded into campaign identity
};

/// Parses the graph text format. Returns nullopt with a diagnostic in
/// *error on any malformed, out-of-range, duplicate or disconnected input
/// (routing tables require a connected graph).
[[nodiscard]] std::optional<GraphSpec> parse_graph(const std::string& text,
                                                   const std::string& source,
                                                   std::string* error);

/// One end of a link: the neighbouring router and the input port the flit
/// arrives on there.
struct TopoLink {
    u32 node = 0;
    u16 port = 0;
};

class Topology {
public:
    virtual ~Topology() = default;

    [[nodiscard]] virtual TopologyKind kind() const noexcept = 0;
    [[nodiscard]] virtual u32 node_count() const noexcept = 0;

    /// Inter-router ports per router (uniform across nodes: the maximum
    /// degree). The consumer appends its local NI ports after these, so
    /// port indices [0, neighbor_ports()) are links and everything above
    /// is node-local.
    [[nodiscard]] virtual u32 neighbor_ports() const noexcept = 0;

    /// Deterministic next-hop output port at `node` toward `dest`, or -1
    /// when node == dest (eject locally). Must return a port with a live
    /// link (link(node, port) engaged) and make progress: repeated
    /// route/link steps reach dest in finite hops.
    [[nodiscard]] virtual int route(u32 node, u32 dest) const noexcept = 0;

    /// Link leaving `node` through `port`: the neighbour and its arrival
    /// port. nullopt for unconnected ports (mesh edges, low-degree table
    /// nodes) — routes never select those.
    [[nodiscard]] virtual std::optional<TopoLink> link(u32 node,
                                                      int port) const noexcept = 0;

    /// True when the topology's links close channel-dependency cycles
    /// (torus wrap links, arbitrary graphs) and the router allocation must
    /// apply the bubble rule (docs/topology.md). Always false for the
    /// mesh, which keeps its behaviour bit-identical to pre-abstraction.
    [[nodiscard]] virtual bool needs_bubble() const noexcept = 0;

    /// Virtual channels per protocol plane (docs/topology.md). 1 means the
    /// fabric's two request/response planes are the only virtual networks
    /// (mesh, table); the torus returns 2 and uses next_vc() to implement
    /// dateline VC switching, the construction that makes minimal
    /// dimension-ordered wormhole routing on wrap rings deadlock-free.
    [[nodiscard]] virtual u32 vcs() const noexcept { return 1; }

    /// VC a flit occupies after leaving `node` through `out_port`, given
    /// it arrived on `in_port` (a local NI port at the injection router)
    /// carrying `vc`. Must be < vcs() and a pure function of its inputs —
    /// every flit of a packet takes the same transitions as its head, so
    /// the wormhole stays contiguous per VC FIFO. Identity when vcs()==1.
    [[nodiscard]] virtual int next_vc(u32 node, int in_port, int out_port,
                                      int vc) const noexcept {
        (void)node;
        (void)in_port;
        (void)out_port;
        return vc;
    }
};

/// XY-routed 2D mesh: ports N=0, S=1, E=2, W=3; route checks E, W, S, N in
/// that order — the exact decision procedure of the original
/// XpipesNetwork::route, preserved as the golden reference.
class Mesh2D final : public Topology {
public:
    Mesh2D(u32 width, u32 height);

    [[nodiscard]] TopologyKind kind() const noexcept override {
        return TopologyKind::Mesh;
    }
    [[nodiscard]] u32 node_count() const noexcept override {
        return width_ * height_;
    }
    [[nodiscard]] u32 neighbor_ports() const noexcept override { return 4; }
    [[nodiscard]] int route(u32 node, u32 dest) const noexcept override;
    [[nodiscard]] std::optional<TopoLink> link(u32 node,
                                              int port) const noexcept override;
    [[nodiscard]] bool needs_bubble() const noexcept override { return false; }

private:
    u32 width_;
    u32 height_;
};

/// 2D torus: the mesh's port numbering plus wrap links. Minimal
/// dimension-ordered (X then Y) routing; at exactly half the ring the two
/// directions tie and the route deterministically prefers East/South.
/// Deadlock freedom comes from dateline virtual channels (vcs() == 2,
/// docs/topology.md): a packet enters each ring on VC0 and switches to
/// VC1 when it crosses that ring's wrap link; minimal routing crosses a
/// wrap at most once per dimension, so no VC's channel dependencies ever
/// close the ring.
class Torus2D final : public Topology {
public:
    Torus2D(u32 width, u32 height);

    [[nodiscard]] TopologyKind kind() const noexcept override {
        return TopologyKind::Torus;
    }
    [[nodiscard]] u32 node_count() const noexcept override {
        return width_ * height_;
    }
    [[nodiscard]] u32 neighbor_ports() const noexcept override { return 4; }
    [[nodiscard]] int route(u32 node, u32 dest) const noexcept override;
    [[nodiscard]] std::optional<TopoLink> link(u32 node,
                                              int port) const noexcept override;
    [[nodiscard]] bool needs_bubble() const noexcept override { return false; }
    [[nodiscard]] u32 vcs() const noexcept override { return 2; }
    [[nodiscard]] int next_vc(u32 node, int in_port, int out_port,
                              int vc) const noexcept override;

private:
    u32 width_;
    u32 height_;
};

/// Arbitrary connected graph with precomputed all-pairs next-hop tables.
/// Ports at a node index its neighbour list in ascending node order; ties
/// between equal-cost next hops break toward the smallest neighbour id, so
/// the tables — and every simulation over them — are deterministic.
class TableGraph final : public Topology {
public:
    explicit TableGraph(const GraphSpec& spec);

    [[nodiscard]] TopologyKind kind() const noexcept override {
        return TopologyKind::Table;
    }
    [[nodiscard]] u32 node_count() const noexcept override { return nodes_; }
    [[nodiscard]] u32 neighbor_ports() const noexcept override {
        return max_degree_;
    }
    [[nodiscard]] int route(u32 node, u32 dest) const noexcept override;
    [[nodiscard]] std::optional<TopoLink> link(u32 node,
                                              int port) const noexcept override;
    [[nodiscard]] bool needs_bubble() const noexcept override { return true; }

private:
    u32 nodes_ = 0;
    u32 max_degree_ = 0;
    std::vector<std::vector<u32>> adj_;     ///< per node, ascending neighbours
    std::vector<std::vector<u16>> arrival_; ///< adj_ mirrored: arrival port
    std::vector<i32> table_; ///< next-hop port per (node * nodes_ + dest)
};

/// Builds the topology for one fabric configuration. Mesh/Torus take the
/// (already resolved, nonzero) width x height; Table requires a GraphSpec.
/// Throws std::invalid_argument on inconsistent inputs.
[[nodiscard]] std::unique_ptr<Topology> make_topology(
    TopologyKind kind, u32 width, u32 height,
    const std::shared_ptr<const GraphSpec>& graph);

} // namespace tgsim::ic
