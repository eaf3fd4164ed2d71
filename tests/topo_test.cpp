// Tests for the topology abstraction (src/ic/topo/): the mesh golden
// reference (route/link property-tested against an independent XY model),
// torus minimal-wrap routing with its deterministic tie-break, table-graph
// port numbering / BFS next-hop determinism, the graph text format's
// error surface — and the cross-layer acceptance gates: torus and table
// fabrics run every traffic pattern with the accountability invariant
// intact, a topology-axis sweep survives shard/merge/resume
// byte-identically, mixed-topology merges are rejected, and the analytic
// funnel on a torus keeps top-1 agreement with the cycle tier.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <queue>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "apps/apps.hpp"
#include "fuzz_util.hpp"
#include "ic/topo/topo.hpp"
#include "sweep/shard.hpp"
#include "sweep/sweep.hpp"
#include "tg/patterns.hpp"

namespace tgsim {
namespace {

using ic::GraphSpec;
using ic::Topology;
using ic::TopologyKind;

// Port constants, kept in sync with docs/xpipes.md by the mesh tests.
constexpr int kNorth = 0;
constexpr int kSouth = 1;
constexpr int kEast = 2;
constexpr int kWest = 3;

/// Follows route()/link() from src to dest and returns the hop count
/// (inter-router links traversed). EXPECTs progress within `limit` hops.
u32 walk_hops(const Topology& topo, u32 src, u32 dest, u32 limit = 4096) {
    u32 node = src;
    u32 hops = 0;
    while (node != dest) {
        const int port = topo.route(node, dest);
        EXPECT_GE(port, 0) << "premature eject at node " << node;
        EXPECT_LT(static_cast<u32>(port), topo.neighbor_ports());
        const auto link = topo.link(node, port);
        EXPECT_TRUE(link.has_value()) << "route onto a dead port at " << node;
        if (!link) return hops;
        node = link->node;
        if (++hops > limit) {
            ADD_FAILURE() << "routing loop from " << src << " to " << dest;
            return hops;
        }
    }
    EXPECT_EQ(topo.route(node, dest), -1); // arrived: eject locally
    return hops;
}

/// Every engaged link must be the exact reverse of its far end: leaving n
/// through p arrives at (m, q) such that leaving m through q arrives back
/// at (n, p). The router wiring (xpipes.cpp) relies on this.
void expect_link_reciprocity(const Topology& topo) {
    for (u32 n = 0; n < topo.node_count(); ++n)
        for (u32 p = 0; p < topo.neighbor_ports(); ++p) {
            const auto fwd = topo.link(n, static_cast<int>(p));
            if (!fwd) continue;
            const auto back = topo.link(fwd->node, fwd->port);
            ASSERT_TRUE(back.has_value());
            EXPECT_EQ(back->node, n);
            EXPECT_EQ(back->port, p);
        }
}

// --- Mesh2D: the golden reference -------------------------------------------

TEST(Mesh2D, RouteMatchesIndependentXYReference) {
    // The exact pre-refactor decision procedure, written out independently:
    // E before W before S before N, coordinates row-major.
    for (const auto& [w, h] : {std::pair<u32, u32>{4, 4}, {5, 4}, {8, 4},
                               {3, 2}, {1, 6}, {6, 1}}) {
        const ic::Mesh2D mesh{w, h};
        ASSERT_EQ(mesh.node_count(), w * h);
        EXPECT_EQ(mesh.neighbor_ports(), 4u);
        EXPECT_FALSE(mesh.needs_bubble());
        for (u32 n = 0; n < w * h; ++n)
            for (u32 d = 0; d < w * h; ++d) {
                int want = -1;
                if (d % w > n % w) want = kEast;
                else if (d % w < n % w) want = kWest;
                else if (d / w > n / w) want = kSouth;
                else if (d / w < n / w) want = kNorth;
                EXPECT_EQ(mesh.route(n, d), want)
                    << w << "x" << h << " node " << n << " dest " << d;
            }
    }
}

TEST(Mesh2D, WalkLengthIsManhattanAndBordersAreDisengaged) {
    const ic::Mesh2D mesh{5, 4};
    for (u32 n = 0; n < 20; ++n)
        for (u32 d = 0; d < 20; ++d) {
            const u32 manhattan =
                (n % 5 > d % 5 ? n % 5 - d % 5 : d % 5 - n % 5) +
                (n / 5 > d / 5 ? n / 5 - d / 5 : d / 5 - n / 5);
            EXPECT_EQ(walk_hops(mesh, n, d), manhattan);
        }
    EXPECT_FALSE(mesh.link(0, kNorth).has_value());  // top row
    EXPECT_FALSE(mesh.link(0, kWest).has_value());   // left column
    EXPECT_FALSE(mesh.link(19, kSouth).has_value()); // bottom row
    EXPECT_FALSE(mesh.link(19, kEast).has_value());  // right column
    EXPECT_FALSE(mesh.link(0, 4).has_value());       // local ports: no link
    const auto east = mesh.link(0, kEast);
    ASSERT_TRUE(east.has_value());
    EXPECT_EQ(east->node, 1u);
    EXPECT_EQ(east->port, static_cast<u16>(kWest));
    expect_link_reciprocity(mesh);
}

// --- Torus2D ----------------------------------------------------------------

TEST(Torus2D, WalkLengthIsMinimalWrappedDistance) {
    for (const auto& [w, h] :
         {std::pair<u32, u32>{4, 4}, {5, 4}, {3, 3}, {8, 4}}) {
        const ic::Torus2D torus{w, h};
        // Deadlock freedom on wrap rings comes from the dateline VC pair,
        // not the bubble heuristic (docs/topology.md).
        EXPECT_FALSE(torus.needs_bubble());
        EXPECT_EQ(torus.vcs(), 2u);
        for (u32 n = 0; n < w * h; ++n)
            for (u32 d = 0; d < w * h; ++d) {
                const u32 ex = (d % w + w - n % w) % w; // hops going east
                const u32 ey = (d / w + h - n / w) % h; // hops going south
                const u32 want = std::min(ex, ex == 0 ? 0 : w - ex) +
                                 std::min(ey, ey == 0 ? 0 : h - ey);
                EXPECT_EQ(walk_hops(torus, n, d), want)
                    << w << "x" << h << " node " << n << " dest " << d;
            }
        expect_link_reciprocity(torus);
    }
}

TEST(Torus2D, HalfRingTiesBreakEastAndSouth) {
    const ic::Torus2D torus{4, 4};
    EXPECT_EQ(torus.route(0, 2), kEast);  // dx = 2 = width/2: tie -> East
    EXPECT_EQ(torus.route(2, 0), kEast);  // symmetric tie, same winner
    EXPECT_EQ(torus.route(0, 8), kSouth); // dy = 2 = height/2: tie -> South
    EXPECT_EQ(torus.route(8, 0), kSouth);
    EXPECT_EQ(torus.route(0, 3), kWest);  // wrap is 1 hop, direct is 3
    EXPECT_EQ(torus.route(0, 12), kNorth); // wrap up
    // Wrap links exist where the mesh has none, and they wrap correctly.
    const auto north = torus.link(0, kNorth);
    ASSERT_TRUE(north.has_value());
    EXPECT_EQ(north->node, 12u);
    EXPECT_EQ(north->port, static_cast<u16>(kSouth));
    const auto west = torus.link(0, kWest);
    ASSERT_TRUE(west.has_value());
    EXPECT_EQ(west->node, 3u);
    EXPECT_EQ(west->port, static_cast<u16>(kEast));
}

// Dateline invariant behind the deadlock-freedom argument: along any
// route a packet crosses each ring's wrap link at most once, rides VC0
// until that crossing and VC1 after it, and re-enters VC0 when routing
// turns into the other dimension. With both VC dependency chains thus
// ordered along the ring (the dateline breaks the cycle), wormhole
// allocation cannot deadlock (docs/topology.md).
TEST(Torus2D, DatelineVcCrossesEachRingAtMostOnce) {
    for (const auto& [w, h] :
         {std::pair<u32, u32>{4, 4}, {5, 4}, {3, 3}, {8, 8}}) {
        const ic::Torus2D torus{w, h};
        for (u32 n = 0; n < w * h; ++n)
            for (u32 d = 0; d < w * h; ++d) {
                u32 cur = n;
                int in_port = 4; // injected from the local master NI port
                int vc = 0;
                u32 wraps_x = 0;
                u32 wraps_y = 0;
                for (int out = torus.route(cur, d); out >= 0;
                     out = torus.route(cur, d)) {
                    const bool x_dim = out == kEast || out == kWest;
                    const u32 before = x_dim ? cur % w : cur / w;
                    vc = torus.next_vc(cur, in_port, out, vc);
                    ASSERT_GE(vc, 0);
                    ASSERT_LT(vc, static_cast<int>(torus.vcs()));
                    const auto link = torus.link(cur, out);
                    ASSERT_TRUE(link.has_value());
                    const u32 after = x_dim ? link->node % w : link->node / w;
                    const bool wrapped = // coordinate jumped across the edge
                        before + 1 != after && after + 1 != before;
                    (x_dim ? wraps_x : wraps_y) += wrapped ? 1u : 0u;
                    EXPECT_LE(wraps_x, 1u) << w << "x" << h << " " << n
                                           << "->" << d;
                    EXPECT_LE(wraps_y, 1u) << w << "x" << h << " " << n
                                           << "->" << d;
                    // VC1 exactly on and after the dateline of this ring.
                    EXPECT_EQ(vc, (x_dim ? wraps_x : wraps_y) > 0 ? 1 : 0)
                        << w << "x" << h << " " << n << "->" << d
                        << " at node " << cur;
                    cur = link->node;
                    in_port = link->port;
                }
                EXPECT_EQ(cur, d);
            }
    }
}

// --- TableGraph -------------------------------------------------------------

/// 6-node test graph: a ring 0-1-2-3-4-5-0 with a 0-3 chord.
GraphSpec ring6_with_chord() {
    GraphSpec spec;
    spec.nodes = 6;
    spec.edges = {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {0, 3}};
    spec.source = "ring6";
    return spec;
}

TEST(TableGraph, PortsIndexAscendingNeighboursAndWalksAreShortest) {
    const ic::TableGraph g{ring6_with_chord()};
    EXPECT_EQ(g.node_count(), 6u);
    EXPECT_EQ(g.neighbor_ports(), 3u); // max degree: node 0 and node 3
    EXPECT_TRUE(g.needs_bubble());
    // Node 0's neighbours sorted ascending: 1 (port 0), 3 (port 1),
    // 5 (port 2); arrival port is 0's index in each neighbour's list.
    EXPECT_EQ(g.link(0, 0)->node, 1u);
    EXPECT_EQ(g.link(0, 1)->node, 3u);
    EXPECT_EQ(g.link(0, 2)->node, 5u);
    EXPECT_FALSE(g.link(1, 2).has_value()); // degree 2: port 2 disengaged
    expect_link_reciprocity(g);

    // Independent BFS distances; every walk must match them exactly.
    for (u32 src = 0; src < 6; ++src) {
        std::vector<u32> dist(6, 0xFFFFFFFFu);
        std::queue<u32> q;
        dist[src] = 0;
        q.push(src);
        const std::vector<std::vector<u32>> adj = {
            {1, 3, 5}, {0, 2}, {1, 3}, {0, 2, 4}, {3, 5}, {0, 4}};
        while (!q.empty()) {
            const u32 n = q.front();
            q.pop();
            for (const u32 m : adj[n])
                if (dist[m] == 0xFFFFFFFFu) {
                    dist[m] = dist[n] + 1;
                    q.push(m);
                }
        }
        for (u32 d = 0; d < 6; ++d)
            EXPECT_EQ(walk_hops(g, src, d), dist[d]) << src << "->" << d;
    }
}

TEST(TableGraph, TiesBreakTowardTheSmallestNeighbourId) {
    // Plain 4-cycle: 0->2 is 2 hops via 1 or via 3. The BFS tie-break
    // must pick the smallest-id neighbour — deterministically, on every
    // rebuild — or sweep results would depend on table construction order.
    GraphSpec spec;
    spec.nodes = 4;
    spec.edges = {{0, 1}, {1, 2}, {2, 3}, {3, 0}};
    spec.source = "cycle4";
    const ic::TableGraph g{spec};
    EXPECT_EQ(g.link(0, g.route(0, 2))->node, 1u);
    EXPECT_EQ(g.link(1, g.route(1, 3))->node, 0u);
    EXPECT_EQ(g.link(2, g.route(2, 0))->node, 1u);
    EXPECT_EQ(g.link(3, g.route(3, 1))->node, 0u);
}

TEST(TableGraph, RejectsMalformedSpecs) {
    GraphSpec bad = ring6_with_chord();
    bad.edges.push_back({0, 3}); // duplicate
    EXPECT_THROW(ic::TableGraph{bad}, std::invalid_argument);
    bad = ring6_with_chord();
    bad.edges.push_back({2, 2}); // self-loop
    EXPECT_THROW(ic::TableGraph{bad}, std::invalid_argument);
    bad = ring6_with_chord();
    bad.edges.push_back({0, 6}); // out of range
    EXPECT_THROW(ic::TableGraph{bad}, std::invalid_argument);
    bad = ring6_with_chord();
    bad.edges.clear(); // disconnected (6 isolated nodes)
    EXPECT_THROW(ic::TableGraph{bad}, std::invalid_argument);
    EXPECT_THROW(ic::TableGraph{GraphSpec{}}, std::invalid_argument);
    EXPECT_THROW(
        (void)ic::make_topology(TopologyKind::Table, 0, 0, nullptr),
        std::invalid_argument);
}

// --- graph text format ------------------------------------------------------

TEST(ParseGraph, AcceptsCommentsBlanksAndWhitespace) {
    const std::string text =
        "# a ring of six with a chord\n"
        "nodes 6\n"
        "\n"
        "edge 0 1\nedge 1 2\nedge 2 3   # chordless side\n"
        "edge 3 4\nedge 4 5\nedge 5 0\n"
        "  edge 0 3\n";
    std::string err;
    const auto spec = ic::parse_graph(text, "test.graph", &err);
    ASSERT_TRUE(spec.has_value()) << err;
    EXPECT_EQ(spec->nodes, 6u);
    EXPECT_EQ(spec->edges.size(), 7u);
    EXPECT_EQ(spec->source, "test.graph");
}

TEST(ParseGraph, DiagnosesEveryMalformedInput) {
    const auto expect_fail = [](const std::string& text,
                                const std::string& needle) {
        std::string err;
        const auto spec = ic::parse_graph(text, "t", &err);
        EXPECT_FALSE(spec.has_value()) << text;
        EXPECT_NE(err.find(needle), std::string::npos)
            << "got '" << err << "', wanted substring '" << needle << "'";
    };
    expect_fail("", "missing nodes line");
    expect_fail("edge 0 1\n", "edge before the nodes line (line 1)");
    expect_fail("nodes 2\nnodes 3\n", "bad nodes line (line 2)");
    expect_fail("nodes 0\n", "node count must be in [1, 65535]");
    expect_fail("nodes 65536\n", "node count must be in [1, 65535]");
    expect_fail("nodes two\n", "node count must be in [1, 65535]");
    expect_fail("nodes 4\nedge 0\n", "bad edge line (line 2)");
    expect_fail("nodes 4\nedge 0 4\n", "edge endpoint out of range (line 2)");
    expect_fail("nodes 4\nedge -1 2\n", "edge endpoint out of range");
    expect_fail("nodes 4\nedge 1 1\n", "self-loop edge (line 2)");
    expect_fail("nodes 4\nlink 0 1\n", "unknown keyword 'link' (line 2)");
    expect_fail("nodes 4 6\n", "trailing tokens (line 1)");
    expect_fail("nodes 4\nedge 0 1 2\n", "trailing tokens (line 2)");
    expect_fail("nodes 4\nedge 0 1\nedge 0 1\n", "duplicate edge");
    expect_fail("nodes 4\nedge 0 1\nedge 2 3\n", "disconnected graph");
}

TEST(GraphReaderFuzz, AnyInputYieldsAGraphOrAnError) {
    // What --topology=file:PATH does with a file: every mutant must parse to
    // a graph the table router accepts, or be refused with an error that
    // names the source and, for a line's fault, the line -- never crash,
    // hang or throw. The mutator inserts no digits, so node counts stay
    // near the corpus's and each parse stays cheap.
    const auto read_file = [](const std::string& path) {
        std::ifstream in{path};
        std::ostringstream ss;
        ss << in.rdbuf();
        return ss.str();
    };
    const std::string seeds[] = {
        read_file(std::string{TGSIM_SOURCE_DIR} + "/examples/graphs/ring18.graph"),
        test::read_test_data("graphs/mesh3x3.graph"),
        test::read_test_data("graphs/tree7.graph")};
    for (const std::string& seed : seeds) {
        std::string err;
        ASSERT_TRUE(ic::parse_graph(seed, "seed", &err)) << err;
    }
    // Faults of the whole file rather than of one line.
    const std::string whole_file[] = {"missing nodes line", "TableGraph: duplicate edge",
                                      "TableGraph: disconnected graph"};
    std::mt19937_64 rng{0x6A9F};
    std::size_t accepted = 0;
    std::size_t rejected = 0;
    for (int i = 0; i < 3000 && !::testing::Test::HasFailure(); ++i) {
        std::string input = seeds[i % std::size(seeds)];
        test::mutate(input, rng, "# \n\tedgnos-");
        std::string err;
        std::optional<GraphSpec> spec;
        ASSERT_NO_THROW(spec = ic::parse_graph(input, "fuzz.graph", &err)) << input;
        if (spec) {
            ++accepted;
            EXPECT_EQ(spec->source, "fuzz.graph");
            ASSERT_NO_THROW((void)ic::TableGraph{*spec}) << input;
            continue;
        }
        ++rejected;
        ASSERT_TRUE(err.starts_with("fuzz.graph: ")) << err;
        const std::string what = err.substr(12);
        const auto at = what.find(" (line ");
        if (at == std::string::npos) {
            EXPECT_NE(std::find(std::begin(whole_file), std::end(whole_file), what),
                      std::end(whole_file))
                << err;
            continue;
        }
        const auto line = std::stoul(what.substr(at + 7));
        const auto lines = 1 + std::count(input.begin(), input.end(), '\n');
        EXPECT_GE(line, 1u) << err;
        EXPECT_LE(line, static_cast<unsigned long>(lines)) << err;
    }
    EXPECT_GT(accepted, 100u);
    EXPECT_GT(rejected, 1000u);
}

// --- cross-layer: simulation on torus and table fabrics ---------------------

/// A pattern payload on a WxH logical core grid.
tg::PatternConfig grid_pattern(tg::Pattern p, u32 w, u32 h, double rate,
                               u64 packets) {
    tg::PatternConfig pc;
    pc.pattern = p;
    pc.width = w;
    pc.height = h;
    pc.injection_rate = rate;
    pc.packets_per_core = packets;
    pc.read_fraction = 0.5;
    return pc;
}

sweep::Candidate fabric_candidate(const ic::XpipesConfig& fabric,
                                  double rate) {
    sweep::Candidate c;
    c.cfg.ic = platform::IcKind::Xpipes;
    c.cfg.xpipes = fabric;
    c.cfg.xpipes.collect_latency = true;
    c.source.rate = rate;
    c.name = sweep::describe_fabric(c.cfg) + " r=" + std::to_string(rate);
    return c;
}

ic::XpipesConfig torus_fabric(u32 w, u32 h, u32 fifo) {
    ic::XpipesConfig f;
    f.width = w;
    f.height = h;
    f.fifo_depth = fifo;
    f.topology = TopologyKind::Torus;
    return f;
}

/// Table fabric for a 2x2 core grid: 4 cores + 2 shared slaves on the
/// 6-node ring-with-chord.
ic::XpipesConfig ring6_fabric(u32 fifo) {
    ic::XpipesConfig f;
    f.width = 0;
    f.height = 0;
    f.fifo_depth = fifo;
    f.topology = TopologyKind::Table;
    f.graph = std::make_shared<const GraphSpec>(ring6_with_chord());
    return f;
}

apps::Workload empty_context(const char* name) {
    apps::Workload w;
    w.name = name;
    return w;
}

/// Accountability gate: every pattern completes, passes the replay checks,
/// delivers every injected packet and loses none — on fabrics whose links
/// close dependency cycles (the bubble rule at work).
void run_all_patterns(const ic::XpipesConfig& fabric, u32 grid_w, u32 grid_h) {
    for (const tg::Pattern p :
         {tg::Pattern::UniformRandom, tg::Pattern::BitComplement,
          tg::Pattern::Transpose, tg::Pattern::Shuffle, tg::Pattern::Tornado,
          tg::Pattern::Neighbor, tg::Pattern::Hotspot}) {
        const tg::PatternConfig pc =
            grid_pattern(p, grid_w, grid_h, 0.02, 30);
        const apps::Workload ctx = empty_context("topo_test patterns");
        const sweep::SweepDriver driver{pc, ctx};
        const std::vector<sweep::Candidate> grid = {
            fabric_candidate(fabric, 0.02)};
        const auto rows = driver.run(grid, {});
        ASSERT_EQ(rows.size(), 1u);
        const sweep::SweepResult& r = rows[0];
        EXPECT_TRUE(r.ok()) << tg::to_string(p) << ": " << r.error;
        EXPECT_TRUE(r.completed) << tg::to_string(p);
        EXPECT_TRUE(r.checks_ok) << tg::to_string(p);
        EXPECT_EQ(r.packets, u64{grid_w} * grid_h * 30) << tg::to_string(p);
        EXPECT_EQ(r.error_packets, 0u) << tg::to_string(p);
    }
}

TEST(TorusSim, AllPatternsCompleteWithAccountability) {
    run_all_patterns(torus_fabric(5, 4, 4), 4, 4); // 16 cores + 2 slaves
}

TEST(TableSim, AllPatternsCompleteWithAccountability) {
    run_all_patterns(ring6_fabric(4), 2, 2); // 4 cores + 2 slaves on ring6
}

/// parse_graph has no degree cap, so neither may the router: a 91-node
/// graph whose hub (node 90) has 72 neighbours. The 16 cores (nodes 0-15)
/// and the two shared slaves (16-17) each hang off a relay (72-89), and
/// every relay plus 54 filler leaves (18-71) attaches to the hub. The
/// relays are the hub's highest-numbered neighbours, so all traffic turns
/// through hub ports 54-71 — past any 64-slot request mask.
GraphSpec hub72() {
    GraphSpec spec;
    spec.nodes = 91;
    spec.source = "hub72";
    for (u32 n = 0; n < 18; ++n) spec.edges.push_back({n, 72 + n});
    for (u32 n = 18; n < 90; ++n) spec.edges.push_back({n, 90});
    return spec;
}

TEST(TableSim, SeventyTwoPortHubRoutesAndCompletes) {
    const GraphSpec spec = hub72();
    const ic::TableGraph g{spec};
    ASSERT_EQ(g.neighbor_ports(), 72u);
    for (u32 s = 0; s < 18; ++s)
        for (u32 d = 0; d < 18; ++d)
            EXPECT_EQ(walk_hops(g, s, d), s == d ? 0u : 4u) << s << "->" << d;

    ic::XpipesConfig fabric;
    fabric.width = 0;
    fabric.height = 0;
    fabric.fifo_depth = 4;
    fabric.topology = TopologyKind::Table;
    fabric.graph = std::make_shared<const GraphSpec>(spec);
    run_all_patterns(fabric, 4, 4);

    // Saturating uniform random traffic: every hub output has many
    // competing input ports. The worklist and the full scan must agree.
    const tg::PatternConfig pc =
        grid_pattern(tg::Pattern::UniformRandom, 4, 4, 0.5, 40);
    const apps::Workload ctx = empty_context("topo_test hub72");
    const sweep::SweepDriver driver{pc, ctx};
    // Traffic is reseeded by grid index, so each mode runs as index 0.
    ic::XpipesConfig full = fabric;
    full.router_gating = false;
    std::vector<sweep::SweepResult> rows;
    for (const ic::XpipesConfig& f : {fabric, full}) {
        const auto one = driver.run({fabric_candidate(f, 0.5)}, {});
        ASSERT_EQ(one.size(), 1u);
        const sweep::SweepResult& r = one[0];
        EXPECT_TRUE(r.ok()) << r.error;
        EXPECT_TRUE(r.completed);
        EXPECT_EQ(r.packets, u64{16} * 40);
        rows.push_back(r);
    }
    EXPECT_EQ(rows[0].cycles, rows[1].cycles);
    EXPECT_EQ(rows[0].lat_mean, rows[1].lat_mean);
}

TEST(TorusSim, ResultsAreBitIdenticalAtAnyJobsAndGating) {
    // The any-jobs/any-gating contract (docs/sweep.md) extends to the new
    // topologies: worker count and the active-router worklist are
    // scheduling details, never simulation semantics.
    const tg::PatternConfig pc =
        grid_pattern(tg::Pattern::Transpose, 4, 4, 0.04, 40);
    const apps::Workload ctx = empty_context("topo_test gating");
    const sweep::SweepDriver driver{pc, ctx};
    // Two grids with the same index layout (per-candidate reseeding is by
    // index, so grids must match positionally for identical traffic): one
    // gated, one full-scan.
    std::vector<sweep::Candidate> gated, ungated;
    for (const double r : {0.01, 0.04, 0.16}) {
        gated.push_back(fabric_candidate(torus_fabric(5, 4, 4), r));
        ic::XpipesConfig full = torus_fabric(5, 4, 4);
        full.router_gating = false;
        ungated.push_back(fabric_candidate(full, r));
    }
    sweep::SweepOptions serial, parallel;
    serial.jobs = 1;
    parallel.jobs = 4;
    const auto a = driver.run(gated, serial);
    const auto b = driver.run(gated, parallel);
    const auto c = driver.run(ungated, serial);
    ASSERT_EQ(a.size(), b.size());
    ASSERT_EQ(a.size(), c.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_TRUE(sweep::bit_identical(a[i], b[i])) << a[i].name;
        // Worklist gating is a scheduling detail: the full scan measures
        // the exact same fabric behaviour.
        EXPECT_EQ(a[i].cycles, c[i].cycles) << a[i].name;
        EXPECT_EQ(a[i].lat_mean, c[i].lat_mean) << a[i].name;
        EXPECT_EQ(a[i].packets, c[i].packets) << a[i].name;
    }
}

// --- cross-layer: topology axis through shard/merge/resume ------------------

struct TopoCampaign {
    tg::PatternConfig pc = grid_pattern(tg::Pattern::Transpose, 4, 4, 0.01, 30);
    apps::Workload context = empty_context("topo_test campaign");
    sweep::SweepDriver driver{pc, context};
    std::vector<sweep::Candidate> grid = make_grid();

    /// Mesh and torus rows in one campaign: 2 fabrics x 3 rates.
    static std::vector<sweep::Candidate> make_grid() {
        std::vector<sweep::Candidate> out;
        ic::XpipesConfig mesh;
        mesh.width = 5;
        mesh.height = 4;
        mesh.fifo_depth = 2;
        for (const double rate : {0.01, 0.02, 0.04}) {
            out.push_back(fabric_candidate(mesh, rate));
            out.push_back(fabric_candidate(torus_fabric(5, 4, 2), rate));
        }
        return out;
    }

    sweep::SweepMeta meta(const sweep::SweepOptions& opts) const {
        sweep::SweepMeta m;
        m.app = context.name + std::string{" topo=mesh,torus"};
        m.n_cores = driver.n_cores();
        m.jobs = opts.jobs;
        m.max_cycles = opts.max_cycles;
        m.tier = opts.tier;
        m.seed = opts.seed;
        m.n_candidates = static_cast<u32>(grid.size());
        m.shard = opts.shard;
        return m;
    }

    std::string canonical_text(const sweep::SweepOptions& opts) const {
        sweep::SweepMeta m = meta(opts);
        std::vector<sweep::SweepResult> rows = driver.run(grid, opts);
        sweep::canonicalize(m, rows);
        return sweep::json_report(rows, m);
    }
};

TEST(TopoShard, MergedShardsAreByteIdenticalToUnshardedRun) {
    const TopoCampaign c;
    const std::string want = c.canonical_text({});
    std::vector<sweep::ParsedReport> shards;
    for (u32 k = 0; k < 3; ++k) {
        sweep::SweepOptions so;
        so.shard = {k, 3};
        so.jobs = k + 1; // worker count must not matter
        const std::string text =
            sweep::json_report(c.driver.run(c.grid, so), c.meta(so));
        std::string err;
        auto parsed = sweep::parse_report_text(text, &err);
        ASSERT_TRUE(parsed.has_value()) << err;
        shards.push_back(std::move(*parsed));
    }
    std::string err;
    const auto merged = sweep::merge_reports(std::move(shards), &err);
    ASSERT_TRUE(merged.has_value()) << err;
    EXPECT_EQ(sweep::json_report(merged->rows, merged->meta), want);
}

TEST(TopoShard, MixedTopologyCampaignsRefuseToMerge) {
    // The topology axis is campaign identity: a torus shard must never
    // merge into a mesh campaign. Identity rides meta.app (the " topo="
    // suffix tgsim_sweep appends), which meta_diff hard-checks.
    const TopoCampaign c;
    std::vector<sweep::ParsedReport> shards;
    for (u32 k = 0; k < 2; ++k) {
        sweep::SweepOptions so;
        so.shard = {k, 2};
        std::string err;
        auto parsed = sweep::parse_report_text(
            sweep::json_report(c.driver.run(c.grid, so), c.meta(so)), &err);
        ASSERT_TRUE(parsed.has_value()) << err;
        shards.push_back(std::move(*parsed));
    }
    shards[1].meta.app = c.context.name; // same campaign, no topology axis
    std::string err;
    EXPECT_FALSE(sweep::merge_reports(std::move(shards), &err).has_value());
    EXPECT_NE(err.find("app"), std::string::npos) << err;
}

TEST(TopoShard, ResumeFromJournalIsByteIdenticalToCleanRun) {
    const TopoCampaign c;
    const std::string want = c.canonical_text({});
    const std::string path = ::testing::TempDir() + "topo_test_resume.jsonl";
    std::remove(path.c_str());

    // First attempt journals every row, then "crashes" (we just reload).
    {
        sweep::JournalWriter journal;
        std::string err;
        sweep::SweepOptions opts;
        ASSERT_TRUE(journal.open(path, c.meta(opts), 1, &err)) << err;
        opts.journal = &journal;
        (void)c.driver.run(c.grid, opts);
        ASSERT_TRUE(journal.close());
    }
    std::string err;
    const auto journal = sweep::load_journal(path, &err);
    ASSERT_TRUE(journal.has_value()) << err;
    EXPECT_EQ(journal->rows.size(), c.grid.size());

    // Resume with every row journaled: nothing re-evaluates, and the
    // canonical report is byte-identical to the clean run.
    sweep::SweepOptions resume_opts;
    resume_opts.resume = &journal->rows;
    sweep::SweepMeta m = c.meta({});
    std::vector<sweep::SweepResult> rows = c.driver.run(c.grid, resume_opts);
    sweep::canonicalize(m, rows);
    EXPECT_EQ(sweep::json_report(rows, m), want);
    std::remove(path.c_str());
}

// --- cross-layer: the analytic tier on a torus ------------------------------

TEST(TorusFunnel, Top1MatchesAllCycleRun) {
    // The funnel acceptance gate on a torus grid: the candidate the funnel
    // crowns is the one an exhaustive cycle sweep would crown.
    const tg::PatternConfig pc =
        grid_pattern(tg::Pattern::Tornado, 4, 4, 0.01, 60);
    const apps::Workload ctx = empty_context("topo_test funnel");
    const sweep::SweepDriver driver{pc, ctx};
    std::vector<sweep::Candidate> grid;
    for (const double r : {0.01, 0.02, 0.04, 0.08})
        for (const u32 fifo : {2u, 4u}) {
            grid.push_back(fabric_candidate(torus_fabric(5, 4, fifo), r));
            grid.push_back(fabric_candidate(torus_fabric(6, 3, fifo), r));
        }

    const auto best_of = [](const std::vector<sweep::SweepResult>& rows,
                            bool cycle_only) {
        u32 best = 0;
        bool have = false;
        for (u32 i = 0; i < rows.size(); ++i) {
            if (!rows[i].ok() || (cycle_only && rows[i].analytic)) continue;
            if (!have || rows[i].cycles < rows[best].cycles) {
                best = i;
                have = true;
            }
        }
        EXPECT_TRUE(have);
        return best;
    };

    const auto truth = driver.run(grid, {});
    sweep::SweepOptions funnel_opts;
    funnel_opts.tier = sweep::Tier::Funnel;
    funnel_opts.funnel_top = 6;
    const auto funneled = driver.run(grid, funnel_opts);
    EXPECT_EQ(best_of(funneled, true), best_of(truth, false));
}

TEST(TableFunnel, TableFabricsPassThroughToCycleTier) {
    // Table graphs are outside the analytic envelope (docs/analytic.md):
    // the funnel must cycle-evaluate them whatever the survivor budget,
    // exactly like faulted candidates.
    const tg::PatternConfig pc =
        grid_pattern(tg::Pattern::Transpose, 2, 2, 0.01, 30);
    const apps::Workload ctx = empty_context("topo_test passthrough");
    const sweep::SweepDriver driver{pc, ctx};
    std::vector<sweep::Candidate> grid;
    for (const double r : {0.01, 0.02, 0.04})
        grid.push_back(fabric_candidate(ring6_fabric(4), r));
    sweep::SweepOptions opts;
    opts.tier = sweep::Tier::Funnel;
    opts.funnel_top = 1; // smaller than the grid: passthrough must override
    const auto rows = driver.run(grid, opts);
    ASSERT_EQ(rows.size(), grid.size());
    for (const sweep::SweepResult& r : rows) {
        EXPECT_TRUE(r.ok()) << r.error;
        EXPECT_FALSE(r.analytic) << r.name; // cycle-measured, not screened
        EXPECT_TRUE(r.completed);
    }
}

} // namespace
} // namespace tgsim
