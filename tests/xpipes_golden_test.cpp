// Loaded-fabric goldens for the ×pipes router path (src/ic/xpipes/).
//
// Each case drives a saturated or near-saturated fabric and folds every
// observable it produced into one FNV digest: the XpipesStats counters,
// the raw packet/net/source-queue latency samples in record order, the
// reliability accounting (retry latency samples included), the run or
// handshake results and the memory images. The constants below were
// captured from the deque-based router (one FIFO = one std::deque, with an
// input rescan per output channel) before the ring-arena rewrite, so they
// pin the rewrite — and any later hot-path change — to the exact same
// flit schedule. Each case has one golden per router_gating mode: the two
// modes commit the same moves, but the gated phase applies them in
// worklist order rather than router-index order, so latency samples land
// in a different (equally deterministic) order. router_visits, the one
// counter gating exists to change, is left out of the digest.
//
// Coverage: the mesh at FIFO depth 2 and 3 (3 is not a power of two, so
// ring indices wrap mid-array), the torus with its dateline VCs and the
// fault pre-pass, the bubble rule on a table-routed graph, and an
// open-loop source with the latency split collected.
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "ic/topo/topo.hpp"
#include "ic/xpipes/xpipes.hpp"
#include "mem/memory.hpp"
#include "platform/platform.hpp"
#include "tg/patterns.hpp"
#include "test_util.hpp"

namespace tgsim::test {
namespace {

class Digest {
public:
    void add(u64 w) noexcept { h_ = (h_ ^ w) * 0x100000001b3ull; }
    void add_all(const std::vector<u64>& v) noexcept {
        add(v.size());
        for (const u64 x : v) add(x);
    }
    void add_memory(const mem::MemorySlave& m) {
        for (u32 a = 0; a < m.size_bytes(); a += 4) add(m.peek(m.base() + a));
    }
    /// Everything the fabric counted except router_visits, which is the
    /// one statistic allowed to differ between the two gating modes.
    void add_fabric(const ic::XpipesNetwork& net) {
        const ic::XpipesStats& s = net.stats();
        for (const u64 v :
             {s.busy_cycles, s.flits_routed, s.packets_sent, s.decode_errors,
              s.router_phase_cycles, s.req_packets_delivered,
              s.resp_packets_delivered, s.resp_err_packets, s.pending_peak,
              s.last_delivery, net.contention_cycles()})
            add(v);
        add_all(s.master_wait_cycles);
        add_all(s.packet_latency.samples());
        add_all(s.net_latency.samples());
        add_all(s.source_q_latency.samples());
        const stats::ReliabilityStats& r = s.reliability;
        for (const u64 v :
             {r.injected, r.delivered, r.err_delivered, r.recovered, r.lost,
              r.retries, r.flits_corrupted, r.packets_dropped, r.stall_events,
              r.stall_cycles, r.checksum_fails, r.stale_discarded,
              r.dup_requests})
            add(v);
        add_all(r.retry_latency.samples());
    }
    [[nodiscard]] u64 value() const noexcept { return h_; }

private:
    u64 h_ = 0xcbf29ce484222325ull;
};

/// 8x8 all-to-all on scripted masters (test::load_all_to_all, the
/// mesh_gating bench's loaded shape).
u64 mesh_all_to_all(u32 fifo, bool gating) {
    ic::XpipesConfig cfg;
    cfg.width = 8;
    cfg.height = 8;
    cfg.fifo_depth = fifo;
    cfg.router_gating = gating;
    cfg.collect_latency = true;
    MeshRig rig{cfg};
    load_all_to_all(rig, 8, 8, 20);
    EXPECT_TRUE(rig.run_to_idle());

    Digest d;
    for (const auto& m : rig.masters)
        for (const TestMaster::Done& x : m->results()) {
            for (const u64 v : {x.t_assert, x.t_accept, x.t_resp_first,
                                x.t_resp_last})
                d.add(v);
            for (const u32 w : x.rdata) d.add(w);
            for (const ocp::Resp r : x.resps) d.add(static_cast<u64>(r));
        }
    for (const auto& mem : rig.mems) d.add_memory(*mem);
    d.add_fabric(rig.ic);
    return d.value();
}

/// A 16-core synthetic-pattern run (4x4 logical grid) built the product
/// way, tg::compile_patterns -> Platform::load_stochastic, with latency
/// collection on.
struct PatternCase {
    tg::Pattern pattern = tg::Pattern::UniformRandom;
    double rate = 0.1;
    tg::SourceMode mode = tg::SourceMode::Closed;
    u64 txns_per_core = 200;
    double burst_fraction = 0.0;
    ic::XpipesConfig fabric;
};

u64 pattern_run(PatternCase pcase, bool gating) {
    constexpr u32 kCores = 16;
    tg::PatternConfig pc;
    pc.pattern = pcase.pattern;
    pc.width = 4;
    pc.height = 4;
    pc.injection_rate = pcase.rate;
    pc.packets_per_core = pcase.txns_per_core;
    pc.burst_fraction = pcase.burst_fraction;
    tg::SourceConfig source;
    source.mode = pcase.mode;
    std::vector<tg::StochasticConfig> configs = tg::compile_patterns(pc, source);
    for (u32 core = 0; core < kCores; ++core)
        configs[core].seed = 0x5EED0000u + core * 7919u;

    platform::PlatformConfig cfg;
    cfg.n_cores = kCores;
    cfg.ic = platform::IcKind::Xpipes;
    cfg.xpipes = pcase.fabric;
    cfg.xpipes.router_gating = gating;
    cfg.xpipes.collect_latency = true;
    apps::Workload context;
    context.cores.resize(kCores);
    platform::Platform p{cfg};
    p.load_stochastic(configs, context, source);
    const platform::RunResult res = p.run(kMaxCycles);
    EXPECT_TRUE(res.completed);

    Digest d;
    d.add(res.completed ? 1 : 0);
    d.add(res.cycles);
    d.add_all(res.per_core);
    for (u32 core = 0; core < kCores; ++core) d.add_memory(p.private_mem(core));
    d.add_memory(p.shared_mem());
    const auto& net = dynamic_cast<const ic::XpipesNetwork&>(p.interconnect());
    d.add_fabric(net);
    return d.value();
}

/// 4x5 fabric for the 16-core grid plus the two shared slaves.
ic::XpipesConfig fabric_4x5(ic::TopologyKind kind, u32 fifo) {
    ic::XpipesConfig f;
    f.width = 4;
    f.height = platform::xpipes_height_for(16, 4);
    f.fifo_depth = fifo;
    f.topology = kind;
    return f;
}

std::shared_ptr<const ic::GraphSpec> load_ring18() {
    const std::string path =
        std::string{TGSIM_SOURCE_DIR} + "/examples/graphs/ring18.graph";
    std::ifstream in{path};
    EXPECT_TRUE(in) << "cannot open " << path;
    std::stringstream text;
    text << in.rdbuf();
    std::string err;
    auto spec = ic::parse_graph(text.str(), path, &err);
    EXPECT_TRUE(spec.has_value()) << err;
    return spec ? std::make_shared<const ic::GraphSpec>(std::move(*spec))
                : nullptr;
}

/// Goldens of one case: worklist-gated and full-scan router phase.
struct Golden {
    u64 gated;
    u64 full_scan;
};

/// Runs `run` in both router_gating modes against their goldens.
template <typename Run>
void expect_golden(const char* name, Golden golden, Run&& run) {
    for (const bool gating : {true, false}) {
        const u64 got = run(gating);
        EXPECT_EQ(got, gating ? golden.gated : golden.full_scan)
            << name << (gating ? " (gated)" : " (full scan)") << ": digest 0x"
            << std::hex << got;
    }
}

TEST(XpipesGolden, MeshAllToAllFifo2) {
    expect_golden("8x8 mesh all-to-all, fifo 2",
                  {0x7c9209591a0b9785ull, 0x5f51d5f3ca0b9fadull},
                  [](bool g) { return mesh_all_to_all(2, g); });
}

TEST(XpipesGolden, MeshAllToAllFifo3) {
    expect_golden("8x8 mesh all-to-all, fifo 3",
                  {0xb574f5a8986e5ec5ull, 0x01b9185d7df914cbull},
                  [](bool g) { return mesh_all_to_all(3, g); });
}

TEST(XpipesGolden, TorusTransposeWithFaults) {
    PatternCase c;
    c.pattern = tg::Pattern::Transpose;
    c.rate = 0.10;
    c.txns_per_core = 300;
    c.fabric = fabric_4x5(ic::TopologyKind::Torus, 4);
    c.fabric.fault.corrupt_rate = 0.001;
    c.fabric.fault.drop_rate = 0.001;
    c.fabric.fault.stall_rate = 0.001;
    c.fabric.fault.seed = 0xFA017;
    expect_golden("4x5 torus transpose, faults 0.003",
                  {0x9ffb54c92a7c29b8ull, 0x46387deff21506a2ull},
                  [&](bool g) { return pattern_run(c, g); });
}

TEST(XpipesGolden, Ring18GraphUniformRandom) {
    PatternCase c;
    c.pattern = tg::Pattern::UniformRandom;
    c.rate = 0.10;
    c.txns_per_core = 200;
    c.fabric.width = 0;
    c.fabric.height = 0;
    c.fabric.fifo_depth = 3;
    c.fabric.topology = ic::TopologyKind::Table;
    c.fabric.graph = load_ring18();
    ASSERT_NE(c.fabric.graph, nullptr);
    expect_golden("ring18 uniform random, fifo 3",
                  {0xff8ae8d76716e6d5ull, 0x5326c5cbde8bb543ull},
                  [&](bool g) { return pattern_run(c, g); });
}

TEST(XpipesGolden, OpenLoopUniformRandomMesh) {
    PatternCase c;
    c.pattern = tg::Pattern::UniformRandom;
    c.rate = 0.30;
    c.mode = tg::SourceMode::Open;
    c.txns_per_core = 400;
    c.fabric = fabric_4x5(ic::TopologyKind::Mesh, 8);
    expect_golden("4x5 open-loop uniform random 0.30, fifo 8",
                  {0x10fa9e36cf667ff8ull, 0xe51213085038a300ull},
                  [&](bool g) { return pattern_run(c, g); });
}

// Bursts pin the NI's multi-beat write collection (CollectWrite) under
// open-loop sources and under fault recovery.
TEST(XpipesGolden, OpenLoopUniformRandomMeshBursts) {
    PatternCase c;
    c.pattern = tg::Pattern::UniformRandom;
    c.rate = 0.30;
    c.mode = tg::SourceMode::Open;
    c.txns_per_core = 400;
    c.burst_fraction = 0.3;
    c.fabric = fabric_4x5(ic::TopologyKind::Mesh, 8);
    expect_golden("4x5 open-loop uniform random 0.30, bursts 0.3, fifo 8",
                  {0x146d18564c687f04ull, 0x190b30877ebd9b38ull},
                  [&](bool g) { return pattern_run(c, g); });
}

TEST(XpipesGolden, TorusTransposeWithFaultsBursts) {
    PatternCase c;
    c.pattern = tg::Pattern::Transpose;
    c.rate = 0.10;
    c.txns_per_core = 300;
    c.burst_fraction = 0.3;
    c.fabric = fabric_4x5(ic::TopologyKind::Torus, 4);
    c.fabric.fault.corrupt_rate = 0.003;
    c.fabric.fault.drop_rate = 0.003;
    c.fabric.fault.stall_rate = 0.001;
    c.fabric.fault.seed = 0xFA017;
    expect_golden("4x5 torus transpose, faults 0.007, bursts 0.3",
                  {0x2c8a5009880eefa2ull, 0x70f9af291720abb4ull},
                  [&](bool g) { return pattern_run(c, g); });
}

} // namespace
} // namespace tgsim::test
