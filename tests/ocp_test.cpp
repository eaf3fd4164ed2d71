// Unit tests for OCP types, channel wire bundle and the transaction monitor.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "ic/amba/ahb_bus.hpp"
#include "mem/memory.hpp"
#include "ocp/monitor.hpp"
#include "test_util.hpp"
#include "tg/program.hpp"
#include "tg/tg_core.hpp"

namespace tgsim::test {
namespace {

TEST(OcpTypes, Classification) {
    using ocp::Cmd;
    EXPECT_TRUE(ocp::is_read(Cmd::Read));
    EXPECT_TRUE(ocp::is_read(Cmd::BurstRead));
    EXPECT_FALSE(ocp::is_read(Cmd::Write));
    EXPECT_TRUE(ocp::is_write(Cmd::Write));
    EXPECT_TRUE(ocp::is_write(Cmd::BurstWrite));
    EXPECT_FALSE(ocp::is_write(Cmd::Idle));
    EXPECT_TRUE(ocp::is_burst(Cmd::BurstRead));
    EXPECT_TRUE(ocp::is_burst(Cmd::BurstWrite));
    EXPECT_FALSE(ocp::is_burst(Cmd::Read));
}

TEST(OcpTypes, Names) {
    EXPECT_EQ(ocp::to_string(ocp::Cmd::Read), "RD");
    EXPECT_EQ(ocp::to_string(ocp::Cmd::BurstWrite), "BWR");
    EXPECT_EQ(ocp::to_string(ocp::Resp::Dva), "DVA");
    EXPECT_EQ(ocp::to_string(ocp::Resp::Err), "ERR");
    EXPECT_EQ(ocp::to_string(ocp::Resp::None), "NULL");
}

TEST(Channel, ClearResetsWireGroups) {
    ocp::Channel ch;
    ch.m_cmd() = ocp::Cmd::Write;
    ch.m_addr() = 0x123;
    ch.m_resp_accept() = true;
    ch.s_cmd_accept() = true;
    ch.s_resp() = ocp::Resp::Dva;
    ch.clear_request();
    EXPECT_EQ(ch.m_cmd(), ocp::Cmd::Idle);
    EXPECT_FALSE(ch.m_resp_accept());
    EXPECT_TRUE(ch.s_cmd_accept()); // response side untouched
    ch.clear_response();
    EXPECT_FALSE(ch.s_cmd_accept());
    EXPECT_EQ(ch.s_resp(), ocp::Resp::None);
}

// --- ChannelStore (structure-of-arrays wire state) ---

TEST(ChannelStore, AllocatesIdleChannelsWithDenseIndices) {
    ocp::ChannelStore store;
    const ocp::ChannelRef a = store.allocate();
    const ocp::ChannelRef b = store.allocate();
    const ocp::ChannelRef c = store.allocate();
    EXPECT_EQ(store.size(), 3u);
    EXPECT_EQ(a.index(), 0u);
    EXPECT_EQ(b.index(), 1u);
    EXPECT_EQ(c.index(), 2u);
    for (const ocp::ChannelRef& r : {a, b, c}) {
        EXPECT_TRUE(r.request_is_idle());
        EXPECT_TRUE(r.response_is_idle());
        EXPECT_EQ(r.m_gen(), 0u);
        EXPECT_EQ(r.s_gen(), 0u);
    }
}

TEST(ChannelStore, RefsSurviveStoreGrowth) {
    // ChannelRefs are store + index, so allocating more channels (which may
    // reallocate the field arrays) must not invalidate earlier handles.
    ocp::ChannelStore store;
    const ocp::ChannelRef first = store.allocate();
    first.m_addr() = 0xABCD;
    for (int i = 0; i < 1000; ++i) store.allocate();
    EXPECT_EQ(first.m_addr(), 0xABCDu);
    first.m_cmd() = ocp::Cmd::Read;
    EXPECT_EQ(store.m_cmd[0], ocp::Cmd::Read);
}

TEST(ChannelStore, ChannelsAreIndependent) {
    ocp::ChannelStore store;
    const ocp::ChannelRef a = store.allocate();
    const ocp::ChannelRef b = store.allocate();
    a.m_cmd() = ocp::Cmd::Write;
    a.m_data() = 7;
    a.touch_m();
    EXPECT_TRUE(b.request_is_idle());
    EXPECT_EQ(b.m_gen(), 0u);
    EXPECT_FALSE(a.request_is_idle());
}

TEST(ChannelStore, TidyRequestBumpsMasterGenOnlyWhenDriven) {
    ocp::ChannelStore store;
    const ocp::ChannelRef ch = store.allocate();
    // Idle wires: tidy is a no-op and must not bump (spurious wakes cost
    // time; the contract only forbids missed bumps).
    EXPECT_FALSE(ch.tidy_request());
    EXPECT_EQ(ch.m_gen(), 0u);
    ch.m_cmd() = ocp::Cmd::BurstWrite;
    ch.m_burst() = 4;
    EXPECT_TRUE(ch.tidy_request());
    EXPECT_EQ(ch.m_gen(), 1u);
    EXPECT_EQ(ch.s_gen(), 0u); // per-side: slave gen untouched
    EXPECT_TRUE(ch.request_is_idle());
}

TEST(ChannelStore, TidyResponseBumpsSlaveGenOnlyWhenDriven) {
    ocp::ChannelStore store;
    const ocp::ChannelRef ch = store.allocate();
    EXPECT_FALSE(ch.tidy_response());
    EXPECT_EQ(ch.s_gen(), 0u);
    ch.s_resp() = ocp::Resp::Dva;
    ch.s_data() = 0x55;
    ch.s_resp_last() = true;
    EXPECT_TRUE(ch.tidy_response());
    EXPECT_EQ(ch.s_gen(), 1u);
    EXPECT_EQ(ch.m_gen(), 0u);
    EXPECT_TRUE(ch.response_is_idle());
}

TEST(ChannelStore, WatchRangesAreContiguousSlices) {
    ocp::ChannelStore store;
    store.reserve(4);
    const ocp::ChannelRef a = store.allocate();
    const ocp::ChannelRef b = store.allocate();
    store.allocate();
    const sim::WatchRange r = store.m_gen_range(0, 3);
    ASSERT_EQ(r.count, 3u);
    a.touch_m();
    b.touch_m();
    b.touch_m();
    EXPECT_EQ(r.first[0], 1u);
    EXPECT_EQ(r.first[1], 2u);
    EXPECT_EQ(r.first[2], 0u);
    // Single-channel watch points at the same slot.
    EXPECT_EQ(b.m_gen_watch().first, r.first + 1);
    EXPECT_EQ(b.m_gen_watch().count, 1u);
}

TEST(ChannelStore, FieldArraysBackRefAccessors) {
    // The SoA arrays and the ref accessors are the same storage.
    ocp::ChannelStore store;
    const ocp::ChannelRef a = store.allocate();
    const ocp::ChannelRef b = store.allocate();
    a.m_cmd() = ocp::Cmd::Read;
    b.m_cmd() = ocp::Cmd::Write;
    EXPECT_EQ(store.m_cmd[0], ocp::Cmd::Read);
    EXPECT_EQ(store.m_cmd[1], ocp::Cmd::Write);
    store.m_addr[1] = 0x40;
    EXPECT_EQ(b.m_addr(), 0x40u);
}

struct MonitorRig {
    sim::Kernel kernel;
    ocp::Channel ch;
    TestMaster master{kernel, ch};
    mem::MemorySlave slave{ch, mem::SlaveTiming{1, 1, 1}, 0x0, 0x1000};
    tg::Trace trace;
    const std::vector<tg::TraceEvent>& records = trace.events;
    ocp::ChannelMonitor monitor{kernel, ch, trace};

    MonitorRig() {
        kernel.add(master, sim::kStageMaster);
        kernel.add(slave, sim::kStageSlave);
        kernel.add(monitor, sim::kStageObserver);
    }
    void run_to_idle() {
        kernel.run_until([&] { return master.idle(); }, 10000);
        kernel.run(2);
    }
};

TEST(Monitor, ReconstructsSingleRead) {
    MonitorRig rig;
    rig.slave.poke(0x40, 0xCAFEBABEu);
    rig.master.push({ocp::Cmd::Read, 0x40, 1, {}, 2});
    rig.run_to_idle();
    ASSERT_EQ(rig.records.size(), 1u);
    const auto& r = rig.records[0];
    EXPECT_EQ(r.cmd, ocp::Cmd::Read);
    EXPECT_EQ(r.addr, 0x40u);
    EXPECT_EQ(r.burst, 1u);
    EXPECT_EQ(r.t_assert, 2u);
    ASSERT_EQ(r.beat_count, 1u);
    EXPECT_EQ(rig.trace.beats_of(r)[0], 0xCAFEBABEu);
    EXPECT_EQ(r.t_resp_first, r.t_resp_last);
    EXPECT_GT(r.t_resp_last, r.t_accept);
}

TEST(Monitor, ReconstructsSingleWriteAtAccept) {
    MonitorRig rig;
    rig.master.push({ocp::Cmd::Write, 0x10, 1, {77}, 0});
    rig.run_to_idle();
    ASSERT_EQ(rig.records.size(), 1u);
    const auto& r = rig.records[0];
    EXPECT_EQ(r.cmd, ocp::Cmd::Write);
    ASSERT_EQ(r.beat_count, 1u);
    EXPECT_EQ(rig.trace.beats_of(r)[0], 77u);
    EXPECT_EQ(r.t_resp_last, 0u); // writes complete at accept
}

TEST(Monitor, ReconstructsBurstReadBeats) {
    MonitorRig rig;
    for (u32 i = 0; i < 4; ++i) rig.slave.poke(4 * i, i + 10);
    rig.master.push({ocp::Cmd::BurstRead, 0x0, 4, {}, 0});
    rig.run_to_idle();
    ASSERT_EQ(rig.records.size(), 1u);
    const auto& r = rig.records[0];
    EXPECT_EQ(r.burst, 4u);
    ASSERT_EQ(r.beat_count, 4u);
    EXPECT_EQ(rig.trace.beats_of(r)[3], 13u);
}

TEST(Monitor, ReconstructsBurstWriteBeats) {
    MonitorRig rig;
    rig.master.push({ocp::Cmd::BurstWrite, 0x20, 3, {5, 6, 7}, 0});
    rig.run_to_idle();
    ASSERT_EQ(rig.records.size(), 1u);
    EXPECT_TRUE(std::ranges::equal(rig.trace.beats_of(rig.records[0]),
                                   std::vector<u32>{5, 6, 7}));
    EXPECT_EQ(rig.trace.beats, (std::vector<u32>{5, 6, 7})); // flat, no copy
}

TEST(Monitor, SeparatesBackToBackTransactions) {
    MonitorRig rig;
    rig.master.push({ocp::Cmd::Write, 0x0, 1, {1}, 0});
    rig.master.push({ocp::Cmd::Write, 0x4, 1, {2}, 0});
    rig.master.push({ocp::Cmd::Read, 0x0, 1, {}, 0});
    rig.run_to_idle();
    ASSERT_EQ(rig.records.size(), 3u);
    EXPECT_EQ(rig.monitor.transactions(), 3u);
    EXPECT_EQ(rig.records[0].addr, 0x0u);
    EXPECT_EQ(rig.records[1].addr, 0x4u);
    EXPECT_EQ(rig.records[2].cmd, ocp::Cmd::Read);
}

TEST(Monitor, AssertTimeReflectsStalledAccept) {
    MonitorRig rig;
    // write_latency=1 keeps the slave busy after the first write; the second
    // write's assert-to-accept gap must be visible in the record.
    rig.master.push({ocp::Cmd::Write, 0x0, 1, {1}, 0});
    rig.master.push({ocp::Cmd::Write, 0x4, 1, {2}, 0});
    rig.run_to_idle();
    ASSERT_EQ(rig.records.size(), 2u);
    EXPECT_GT(rig.records[1].t_accept, rig.records[1].t_assert);
}

TEST(Monitor, CountsBusyCycles) {
    MonitorRig rig;
    rig.master.push({ocp::Cmd::Read, 0x0, 1, {}, 0});
    rig.run_to_idle();
    EXPECT_GT(rig.monitor.busy_cycles(), 0u);
}

TEST(Monitor, ParkedMidTransactionRecordsWhatAClockedOneDoes) {
    // Two TG masters contend for an AHB bus in front of a slow memory, so
    // each waits for its grant, its accept and its response. The bus and a
    // TG bump a channel's wires only when they change, so the gated
    // monitors park inside those waits and must record the same events,
    // beats and busy cycles as monitors evaluated every cycle.
    struct Out {
        tg::Trace trace[2];
        u64 busy[2] = {};
        std::size_t parked_max = 0;
    };
    const auto run = [](bool gating) {
        Out out;
        sim::Kernel kernel;
        kernel.set_gating(gating);
        ocp::Channel ch[2], mem_ch;
        mem::MemorySlave slave{mem_ch, mem::SlaveTiming{6, 5, 3}, 0x0, 0x1000};
        ic::AhbBus bus;
        std::vector<std::unique_ptr<tg::TgCore>> masters;
        std::vector<std::unique_ptr<ocp::ChannelMonitor>> monitors;
        for (u32 i = 0; i < 2; ++i) {
            bus.connect_master(ch[i], -1);
            masters.push_back(std::make_unique<tg::TgCore>(ch[i]));
            monitors.push_back(std::make_unique<ocp::ChannelMonitor>(kernel, ch[i], out.trace[i]));
            kernel.add(*masters.back(), sim::kStageMaster);
            kernel.add(*monitors.back(), sim::kStageObserver);
        }
        bus.connect_slave(mem_ch, 0x0, 0x1000, -1);
        kernel.add(slave, sim::kStageSlave);
        kernel.add(bus, sim::kStageInterconnect);
        ParkedSampler sampler{kernel};
        kernel.add(sampler, sim::kStageObserver);
        tg::TgProgram p;
        p.reg_init[1] = 0x20;
        p.reg_init[2] = 7;
        p.instrs = {{.op = tg::TgOp::Write, .a = 1, .b = 2},
                    {.op = tg::TgOp::Write, .a = 1, .b = 2},
                    {.op = tg::TgOp::BurstRead, .a = 1, .imm = 4},
                    {.op = tg::TgOp::Idle, .imm = 5},
                    {.op = tg::TgOp::Read, .a = 1}};
        p.push_burst_write(1, std::vector<u32>{5, 6, 7});
        p.instrs.push_back({.op = tg::TgOp::Halt});
        for (auto& m : masters) {
            m->load(tg::assemble(p));
            for (const auto& [r, v] : p.reg_init) m->preset_reg(r, v);
        }
        // A coarse poll: parked components are settled only at a poll.
        EXPECT_TRUE(kernel.run_until(
            [&] { return masters[0]->done() && masters[1]->done(); }, 2000, 64));
        kernel.run(4);
        for (u32 i = 0; i < 2; ++i) out.busy[i] = monitors[i]->busy_cycles();
        out.parked_max = sampler.max;
        return out;
    };
    const Out gated = run(true);
    const Out clocked = run(false);
    EXPECT_GE(gated.parked_max, 3u);
    for (u32 i = 0; i < 2; ++i) {
        EXPECT_EQ(gated.trace[i].events.size(), 5u) << i;
        EXPECT_TRUE(gated.trace[i] == clocked.trace[i]) << i;
        EXPECT_EQ(gated.trace[i].beats, clocked.trace[i].beats) << i;
        EXPECT_GT(gated.busy[i], 10u) << i;
        EXPECT_EQ(gated.busy[i], clocked.busy[i]) << i;
    }
}

} // namespace
} // namespace tgsim::test
