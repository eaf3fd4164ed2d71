// Property tests for the activity-driven ×pipes router phase
// (src/ic/xpipes/): with router gating enabled (the default), only routers
// holding flits or a wormhole binding are visited each cycle, through the
// sparse allocator (occupancy bitsets, Head routes computed at FIFO write)
// — and the result must be observationally indistinguishable from the
// dense full-scan oracle (router_gating = false): identical handshake
// timestamps, read data, response codes, memory images and behavioural
// statistics. Only stats().router_visits may differ (that is the point),
// and latency samples may be recorded in another order. Coverage spans
// the mesh, the torus's dateline VCs, the fault pre-pass (corrupt, drop
// and stall) and open-loop pending queues.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <tuple>
#include <utility>
#include <vector>

#include "ic/xpipes/xpipes.hpp"
#include "mem/memory.hpp"
#include "platform/platform.hpp"
#include "tg/patterns.hpp"
#include "test_util.hpp"

namespace tgsim::test {
namespace {

using mem::SlaveTiming;

/// Deterministic random op list per master: reads and burst writes to the
/// slave windows, with scattered start times so flows overlap, collide and
/// drain (the worklist must grow and shrink many times per run).
std::vector<TestMaster::Op> random_ops(u32 seed, u32 n_slaves, u32 n_ops) {
    std::mt19937 rng{seed};
    std::vector<TestMaster::Op> ops;
    for (u32 i = 0; i < n_ops; ++i) {
        TestMaster::Op op;
        const u32 slave = rng() % n_slaves;
        const u32 offset = (rng() % 64) * 4;
        op.addr = 0x100000u * slave + offset;
        op.burst = static_cast<u16>(1 + rng() % 12);
        op.not_before = rng() % 400;
        switch (rng() % 3) {
            case 0:
                op.cmd = op.burst > 1 ? ocp::Cmd::BurstRead : ocp::Cmd::Read;
                break;
            default:
                op.cmd = op.burst > 1 ? ocp::Cmd::BurstWrite : ocp::Cmd::Write;
                for (u16 b = 0; b < op.burst; ++b)
                    op.wdata.push_back(rng());
                break;
        }
        ops.push_back(std::move(op));
    }
    return ops;
}

struct MeshObservation {
    std::vector<TestMaster::Done> results; ///< all masters, concatenated
    std::vector<u32> mem_image;            ///< all slave windows, concatenated
    u64 busy = 0, flits = 0, packets = 0, decode_errors = 0, contention = 0;
    std::vector<u64> wait;
    std::vector<u64> reliability; ///< every ReliabilityStats counter
    u64 router_visits = 0;
    u64 router_phase_cycles = 0;
};

std::vector<u64> reliability_counters(const stats::ReliabilityStats& r) {
    return {r.injected,       r.delivered,       r.err_delivered,
            r.recovered,      r.lost,            r.retries,
            r.flits_corrupted, r.packets_dropped, r.stall_events,
            r.stall_cycles,   r.checksum_fails,  r.stale_discarded,
            r.dup_requests};
}

/// Builds the fabric `cfg` describes (masters on even nodes, slaves on odd
/// nodes), drives the seeded random traffic, and collects everything
/// externally observable.
MeshObservation run_mesh(ic::XpipesConfig cfg, bool gating, u32 seed,
                         u32 ops_per_master) {
    cfg.router_gating = gating;
    MeshRig rig{cfg};
    const u32 nodes = cfg.width * cfg.height;
    std::vector<TestMaster*> ms;
    u32 n_slaves = 0;
    for (u32 n = 0; n < nodes; ++n) {
        if (n % 2 == 0) {
            ms.push_back(&rig.add_master(static_cast<int>(n)));
        } else {
            rig.add_mem(0x100000u * n_slaves, 0x1000,
                        SlaveTiming{1 + n % 3, 1 + n % 2, 1},
                        static_cast<int>(n));
            ++n_slaves;
        }
    }
    for (u32 i = 0; i < ms.size(); ++i)
        for (auto& op : random_ops(seed + i, n_slaves, ops_per_master))
            ms[i]->push(std::move(op));
    EXPECT_TRUE(rig.run_to_idle());

    MeshObservation o;
    for (TestMaster* m : ms)
        for (const auto& d : m->results()) o.results.push_back(d);
    for (auto& mem : rig.mems)
        for (u32 a = 0; a < 0x1000; a += 4)
            o.mem_image.push_back(mem->peek(mem->base() + a));
    const ic::XpipesStats& s = rig.ic.stats();
    o.busy = s.busy_cycles;
    o.flits = s.flits_routed;
    o.packets = s.packets_sent;
    o.decode_errors = s.decode_errors;
    o.contention = rig.ic.contention_cycles();
    o.wait = s.master_wait_cycles;
    o.reliability = reliability_counters(s.reliability);
    o.router_visits = s.router_visits;
    o.router_phase_cycles = s.router_phase_cycles;
    return o;
}

void expect_identical(const MeshObservation& a, const MeshObservation& b) {
    ASSERT_EQ(a.results.size(), b.results.size());
    for (std::size_t i = 0; i < a.results.size(); ++i) {
        const auto& x = a.results[i];
        const auto& y = b.results[i];
        EXPECT_EQ(x.t_assert, y.t_assert) << i;
        EXPECT_EQ(x.t_accept, y.t_accept) << i;
        EXPECT_EQ(x.t_resp_first, y.t_resp_first) << i;
        EXPECT_EQ(x.t_resp_last, y.t_resp_last) << i;
        EXPECT_EQ(x.rdata, y.rdata) << i;
        EXPECT_EQ(x.resps, y.resps) << i;
    }
    EXPECT_EQ(a.mem_image, b.mem_image);
    EXPECT_EQ(a.busy, b.busy);
    EXPECT_EQ(a.flits, b.flits);
    EXPECT_EQ(a.packets, b.packets);
    EXPECT_EQ(a.decode_errors, b.decode_errors);
    EXPECT_EQ(a.contention, b.contention);
    EXPECT_EQ(a.wait, b.wait);
    EXPECT_EQ(a.reliability, b.reliability);
    // Both schedules run the router phase on the same cycles; only the
    // per-cycle visit set shrinks.
    EXPECT_EQ(a.router_phase_cycles, b.router_phase_cycles);
}

TEST(XpipesRouterGating, RandomTrafficBitIdentical) {
    struct Shape {
        u32 w, h, fifo, ops;
        ic::TopologyKind topo = ic::TopologyKind::Mesh;
        /// Per fault kind (corrupt, drop, stall); 0 = fault-free.
        double fault_rate = 0.0;
    };
    constexpr auto kTorus = ic::TopologyKind::Torus;
    const Shape shapes[] = {
        {2, 2, 4, 30}, {3, 3, 2, 30}, {4, 4, 4, 25}, {8, 2, 3, 20},
        // Dateline VCs: the VC0 -> VC1 plane transition on wrap links.
        {4, 5, 2, 25, kTorus}, {8, 2, 3, 20, kTorus},
        // VCs plus the fault pre-pass, every fault kind live at once.
        {4, 5, 3, 25, kTorus, 0.004}, {3, 3, 2, 30, kTorus, 0.006},
    };
    for (const Shape& sh : shapes) {
        for (const u32 seed : {11u, 42u, 77u}) {
            ic::XpipesConfig fabric{sh.w, sh.h, sh.fifo};
            fabric.topology = sh.topo;
            fabric.fault.corrupt_rate = sh.fault_rate;
            fabric.fault.drop_rate = sh.fault_rate;
            fabric.fault.stall_rate = sh.fault_rate;
            fabric.fault.seed = 0xFA0000u + seed;
            const auto gated = run_mesh(fabric, true, seed, sh.ops);
            const auto full = run_mesh(fabric, false, seed, sh.ops);
            SCOPED_TRACE(testing::Message()
                         << sh.w << "x" << sh.h << " " << to_string(sh.topo)
                         << " fifo" << sh.fifo << " faults " << sh.fault_rate
                         << " seed " << seed);
            expect_identical(gated, full);
            // The worklist may only ever shrink the visit set.
            EXPECT_LE(gated.router_visits, full.router_visits);
            if (sh.fault_rate > 0.0) {
                // Every fault kind must actually have fired:
                // flits_corrupted, packets_dropped, stall_events.
                EXPECT_GT(gated.reliability[6], 0u);
                EXPECT_GT(gated.reliability[7], 0u);
                EXPECT_GT(gated.reliability[8], 0u);
            }
        }
    }
}

/// Open-loop and fault-injected pattern runs through the product path
/// (tg::compile_patterns -> Platform::load_stochastic) on a 4x4 core grid.
struct PatternObservation {
    platform::RunResult res;
    std::vector<u32> mem_image;
    std::vector<u64> counters; ///< XpipesStats counters and master waits
    u64 pending_peak = 0;
    std::vector<u64> reliability;
    /// Latency samples sorted: the gated phase applies moves in worklist
    /// order, so the same samples may be recorded in another order.
    std::vector<u64> packet, net, source_q, retry;
};

PatternObservation run_pattern(tg::Pattern pattern, double rate,
                               tg::SourceMode mode, ic::XpipesConfig fabric,
                               bool gating, u32 seed) {
    constexpr u32 kCores = 16;
    tg::PatternConfig pc;
    pc.pattern = pattern;
    pc.width = 4;
    pc.height = 4;
    pc.injection_rate = rate;
    pc.packets_per_core = 150;
    tg::SourceConfig source;
    source.mode = mode;
    source.pending_limit = 8; // small enough that pending queues fill
    std::vector<tg::StochasticConfig> configs =
        tg::compile_patterns(pc, source);
    for (u32 core = 0; core < kCores; ++core)
        configs[core].seed = seed * 7919u + core;

    platform::PlatformConfig cfg;
    cfg.n_cores = kCores;
    cfg.ic = platform::IcKind::Xpipes;
    cfg.xpipes = fabric;
    cfg.xpipes.height = platform::xpipes_height_for(kCores, fabric.width);
    cfg.xpipes.router_gating = gating;
    cfg.xpipes.collect_latency = true;
    apps::Workload context;
    context.cores.resize(kCores);
    platform::Platform p{cfg};
    p.load_stochastic(configs, context, source);

    PatternObservation o;
    o.res = p.run(kMaxCycles);
    EXPECT_TRUE(o.res.completed);
    const auto image = [&o](const mem::MemorySlave& m) {
        for (u32 a = 0; a < m.size_bytes(); a += 4)
            o.mem_image.push_back(m.peek(m.base() + a));
    };
    for (u32 core = 0; core < kCores; ++core) image(p.private_mem(core));
    image(p.shared_mem());
    const auto& net = dynamic_cast<const ic::XpipesNetwork&>(p.interconnect());
    const ic::XpipesStats& s = net.stats();
    o.counters = {s.busy_cycles,           s.flits_routed,
                  s.packets_sent,          s.decode_errors,
                  s.router_phase_cycles,   s.req_packets_delivered,
                  s.resp_packets_delivered, s.resp_err_packets,
                  s.last_delivery,         net.contention_cycles()};
    for (const u64 v : s.master_wait_cycles) o.counters.push_back(v);
    o.pending_peak = s.pending_peak;
    o.reliability = reliability_counters(s.reliability);
    const auto sorted = [](std::vector<u64> v) {
        std::sort(v.begin(), v.end());
        return v;
    };
    o.packet = sorted(s.packet_latency.samples());
    o.net = sorted(s.net_latency.samples());
    o.source_q = sorted(s.source_q_latency.samples());
    o.retry = sorted(s.reliability.retry_latency.samples());
    return o;
}

TEST(XpipesRouterGating, PatternTrafficMatchesDenseOracle) {
    struct Case {
        const char* name;
        tg::Pattern pattern;
        double rate;
        tg::SourceMode mode;
        ic::TopologyKind topo;
        u32 fifo;
        double fault_rate; ///< per fault kind
    };
    constexpr auto kOpen = tg::SourceMode::Open;
    constexpr auto kClosed = tg::SourceMode::Closed;
    constexpr auto kMesh = ic::TopologyKind::Mesh;
    constexpr auto kTorus = ic::TopologyKind::Torus;
    const Case cases[] = {
        // Open-loop sources past the knee: pending queues hit their bound.
        {"open UR mesh", tg::Pattern::UniformRandom, 0.40, kOpen, kMesh, 4, 0},
        {"open UR torus", tg::Pattern::UniformRandom, 0.40, kOpen, kTorus, 2,
         0},
        {"open transpose torus", tg::Pattern::Transpose, 0.30, kOpen, kTorus,
         3, 0},
        // Dateline VCs plus every fault kind, recovery protocol included.
        {"faulted transpose torus", tg::Pattern::Transpose, 0.15, kClosed,
         kTorus, 3, 0.003},
        {"faulted UR torus", tg::Pattern::UniformRandom, 0.20, kClosed, kTorus,
         2, 0.003},
    };
    for (const Case& c : cases) {
        for (const u32 seed : {1u, 2u}) {
            SCOPED_TRACE(testing::Message() << c.name << " seed " << seed);
            ic::XpipesConfig fabric;
            fabric.width = 4;
            fabric.fifo_depth = c.fifo;
            fabric.topology = c.topo;
            fabric.fault.corrupt_rate = c.fault_rate;
            fabric.fault.drop_rate = c.fault_rate;
            fabric.fault.stall_rate = c.fault_rate;
            fabric.fault.seed = 0xFA0170u + seed;
            const auto gated =
                run_pattern(c.pattern, c.rate, c.mode, fabric, true, seed);
            const auto dense =
                run_pattern(c.pattern, c.rate, c.mode, fabric, false, seed);
            EXPECT_EQ(gated.res.cycles, dense.res.cycles);
            EXPECT_EQ(gated.res.per_core, dense.res.per_core);
            EXPECT_EQ(gated.mem_image, dense.mem_image);
            EXPECT_EQ(gated.counters, dense.counters);
            EXPECT_EQ(gated.pending_peak, dense.pending_peak);
            EXPECT_EQ(gated.reliability, dense.reliability);
            EXPECT_EQ(gated.packet, dense.packet);
            EXPECT_EQ(gated.net, dense.net);
            EXPECT_EQ(gated.source_q, dense.source_q);
            EXPECT_EQ(gated.retry, dense.retry);
            EXPECT_FALSE(gated.packet.empty());
            if (c.mode == kOpen) {
                EXPECT_EQ(gated.pending_peak, 8u); // queues hit their bound
            } else {
                // flits_corrupted, packets_dropped, stall_events.
                EXPECT_GT(gated.reliability[6], 0u);
                EXPECT_GT(gated.reliability[7], 0u);
                EXPECT_GT(gated.reliability[8], 0u);
            }
        }
    }
}

/// One master (corner 0) -> one slave (far corner) on a 16x16 mesh; returns
/// {last response cycle, router visits}.
std::pair<Cycle, u64> run_single_flow_visits(bool gating) {
    ic::XpipesConfig cfg{16, 16, 4};
    cfg.router_gating = gating;
    MeshRig rig{cfg};
    auto& m = rig.add_master(0);
    rig.add_mem(0x0, 0x1000, SlaveTiming{1, 1, 1}, 255);
    push_burst_flow(m, 10);
    EXPECT_TRUE(rig.run_to_idle());
    return {m.results().back().t_resp_last, rig.ic.stats().router_visits};
}

TEST(XpipesRouterGating, SingleFlowVisitsScaleWithPathNotMesh) {
    // One flow on a 16x16 mesh: the worklist must touch only the XY path
    // between the two corner nodes, not all 256 routers.
    const auto gated = run_single_flow_visits(true);
    const auto full = run_single_flow_visits(false);
    EXPECT_EQ(gated.first, full.first); // identical completion time
    ASSERT_GT(full.second, 0u);
    // Path length is 31 routers; allow slack for worklist residency, but the
    // bound must be far below the 256-per-cycle full scan.
    EXPECT_LT(gated.second * 4, full.second);
}

TEST(XpipesRouterGating, DecodeErrorsIdenticalAcrossModes) {
    for (const bool gating : {true, false}) {
        ic::XpipesConfig cfg{3, 3, 4};
        cfg.router_gating = gating;
        MeshRig rig{cfg};
        auto& m = rig.add_master(0);
        rig.add_mem(0x0, 0x1000, SlaveTiming{1, 1, 1}, 8);
        m.push({ocp::Cmd::Read, 0xEE000000, 1, {}, 0});
        m.push({ocp::Cmd::BurstWrite, 0xEE000000, 4, {1, 2, 3, 4}, 0});
        m.push({ocp::Cmd::Read, 0x0, 1, {}, 0});
        ASSERT_TRUE(rig.run_to_idle());
        EXPECT_EQ(rig.ic.stats().decode_errors, 2u);
        EXPECT_EQ(m.results().size(), 3u);
        EXPECT_EQ(m.results().at(0).resps.at(0), ocp::Resp::Err);
        EXPECT_EQ(m.results().at(2).resps.at(0), ocp::Resp::Dva);
    }
}

// Platform-level: the full CPU flow on the mesh fabric, gated router phase
// against full scan — completion cycles, per-core times and the shared
// memory image must match bit-for-bit.
TEST(XpipesRouterGating, PlatformFlowBitIdentical) {
    const auto run = [](bool gating) {
        platform::PlatformConfig cfg;
        cfg.n_cores = 3;
        cfg.ic = platform::IcKind::Xpipes;
        cfg.xpipes = ic::XpipesConfig{0, 0, 4};
        cfg.xpipes.router_gating = gating;
        platform::Platform p{cfg};
        p.load_workload(apps::make_mp_matrix({3, 10}));
        const auto res = p.run(kMaxCycles);
        EXPECT_TRUE(res.completed);
        std::vector<u32> shared;
        for (u32 a = 0; a < 0x2000; a += 4)
            shared.push_back(p.peek(platform::kSharedBase + a));
        return std::tuple{res.cycles, res.per_core, shared,
                          p.interconnect().busy_cycles(),
                          p.interconnect().contention_cycles()};
    };
    EXPECT_EQ(run(true), run(false));
}

} // namespace
} // namespace tgsim::test
