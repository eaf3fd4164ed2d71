// Goldens for the OCP master that no other golden covers: the stochastic
// generator closed loop with bursts on the AMBA bus and on the crossbar.
// (The ×pipes goldens already pin StochasticTg on the mesh; the Table-2
// and ChannelStore goldens pin TgCore and CpuCore.)
//
// Each case runs in both kernel modes — clock-gated and fully clocked —
// against one set of constants: the two schedules must agree, and both
// must agree with the values below, which were captured before the masters
// moved onto the shared ocp::MasterPort. A mismatch means a master changed
// what it drives or when it samples.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "ic/amba/ahb_bus.hpp"
#include "ic/crossbar/crossbar.hpp"
#include "mem/memory.hpp"
#include "ocp/monitor.hpp"
#include "tg/stochastic.hpp"
#include "tg/trace.hpp"

namespace tgsim::test {
namespace {

constexpr u32 kMemBase = 0x20000000;
constexpr u32 kMemSize = 0x4000;
constexpr u32 kSlowBase = 0x30000000;
constexpr u32 kSlowSize = 0x1000;
constexpr u32 kUnmapped = 0x50000000; ///< decodes nowhere: ERR responses

u64 fnv_text(u64 h, const std::string& s) {
    for (const char c : s)
        h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
    return h;
}

u64 fnv_memory(const mem::MemorySlave& m) {
    u64 h = 0xcbf29ce484222325ull;
    for (u32 a = 0; a < m.size_bytes(); a += 4)
        h = (h ^ m.peek(m.base() + a)) * 0x100000001b3ull;
    return h;
}

// --- StochasticTg on AMBA and the crossbar -----------------------------------

constexpr u32 kStochMasters = 3;

struct StochObservation {
    std::vector<Cycle> halts;
    std::vector<u64> issued;
    u64 busy = 0;
    u64 contention = 0;
    u64 trace_fnv = 0;
    u64 mem_fnv = 0;
};

template <class Fabric>
StochObservation run_stochastic(bool gating) {
    sim::Kernel k;
    k.set_gating(gating);
    ocp::ChannelStore wires;
    Fabric fabric;
    std::vector<std::unique_ptr<tg::StochasticTg>> masters;
    const tg::ArrivalProcess procs[kStochMasters] = {tg::ArrivalProcess::Uniform,
                                                     tg::ArrivalProcess::Poisson,
                                                     tg::ArrivalProcess::Bursty};
    std::vector<ocp::ChannelRef> master_ch;
    for (u32 i = 0; i < kStochMasters; ++i) {
        tg::StochasticConfig c;
        c.seed = 11 + i;
        c.process = procs[i];
        c.read_fraction = 0.55;
        c.burst_fraction = 0.4;
        c.burst_len = static_cast<u16>(4 << i); // 4, 8, 16 beats
        c.max_gap = 25;
        c.rate = 0.1;
        c.train_len = 5;
        c.inter_gap = 120;
        c.total_transactions = 250;
        c.targets = {{kMemBase + 0x1000 * i, 0x1000, 4},
                     {kSlowBase, kSlowSize, 2},
                     {kUnmapped, 0x100, 1}};
        master_ch.push_back(wires.allocate());
        masters.push_back(std::make_unique<tg::StochasticTg>(master_ch.back(), c));
        fabric.connect_master(master_ch.back(), -1);
    }
    const ocp::ChannelRef mem_ch = wires.allocate();
    const ocp::ChannelRef slow_ch = wires.allocate();
    mem::MemorySlave mem{mem_ch, mem::SlaveTiming{2, 1, 1}, kMemBase, kMemSize, "m"};
    mem::MemorySlave slow{slow_ch, mem::SlaveTiming{4, 2, 2}, kSlowBase, kSlowSize,
                          "slow"};
    fabric.connect_slave(mem_ch, kMemBase, kMemSize, -1);
    fabric.connect_slave(slow_ch, kSlowBase, kSlowSize, -1);

    std::vector<tg::Trace> traces(kStochMasters);
    std::vector<std::unique_ptr<ocp::ChannelMonitor>> monitors;
    for (u32 i = 0; i < kStochMasters; ++i) {
        traces[i].core_id = i;
        monitors.push_back(
            std::make_unique<ocp::ChannelMonitor>(k, master_ch[i], traces[i]));
    }
    for (auto& m : masters) k.add(*m, sim::kStageMaster);
    k.add(mem, sim::kStageSlave);
    k.add(slow, sim::kStageSlave);
    k.add(fabric, sim::kStageInterconnect);
    for (auto& m : monitors) k.add(*m, sim::kStageObserver);
    EXPECT_TRUE(k.run_until(
        [&] {
            for (const auto& m : masters)
                if (!m->done()) return false;
            return true;
        },
        10'000'000));

    StochObservation o;
    for (const auto& m : masters) {
        o.halts.push_back(m->halt_cycle());
        o.issued.push_back(m->issued());
    }
    o.busy = fabric.busy_cycles();
    o.contention = fabric.contention_cycles();
    u64 h = 0xcbf29ce484222325ull;
    for (const tg::Trace& t : traces) h = fnv_text(h, tg::to_text(t));
    o.trace_fnv = h;
    o.mem_fnv = fnv_memory(mem) ^ fnv_memory(slow);
    return o;
}

struct StochGolden {
    std::vector<Cycle> halts;
    std::vector<u64> issued;
    u64 busy;
    u64 contention;
    u64 trace_fnv;
    u64 mem_fnv;
};

template <class Fabric>
void expect_stochastic_golden(const StochGolden& g, const char* name) {
    for (const bool gating : {true, false}) {
        const StochObservation o = run_stochastic<Fabric>(gating);
        const std::string what = std::string(name) + (gating ? "/gated" : "/clocked");
        EXPECT_EQ(o.halts, g.halts) << what;
        EXPECT_EQ(o.issued, g.issued) << what;
        EXPECT_EQ(o.busy, g.busy) << what;
        EXPECT_EQ(o.contention, g.contention) << what;
        EXPECT_EQ(o.trace_fnv, g.trace_fnv)
            << what << ": trace 0x" << std::hex << o.trace_fnv;
        EXPECT_EQ(o.mem_fnv, g.mem_fnv)
            << what << ": memory 0x" << std::hex << o.mem_fnv;
    }
}

TEST(MasterGolden, StochasticBurstsOnAmba) {
    expect_stochastic_golden<ic::AhbBus>(
        {{6865, 6201, 11148}, {250, 250, 250}, 7148, 4898, 0x77da3d9460cf1997ull,
         0xbf1748c3b76ef75aull},
        "amba");
}

TEST(MasterGolden, StochasticBurstsOnCrossbar) {
    expect_stochastic_golden<ic::Crossbar>(
        {{5595, 5044, 10377}, {250, 250, 250}, 6025, 1632, 0x44a2b467b525479aull,
         0xbf1748c3b76ef75aull},
        "crossbar");
}

} // namespace
} // namespace tgsim::test
