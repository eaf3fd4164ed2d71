// Unit tests for memory and semaphore slaves: handshake timing, bursts,
// write-busy stalling (paper Fig. 2(a)) and test-and-set semantics
// (paper Fig. 2(b)), plus parameterized latency sweeps.
#include <gtest/gtest.h>

#include "mem/memory.hpp"
#include "mem/semaphore.hpp"
#include "test_util.hpp"

namespace tgsim::test {
namespace {

using mem::MemorySlave;
using mem::SemaphoreDevice;
using mem::SlaveTiming;

struct DirectRig {
    sim::Kernel kernel;
    ocp::Channel ch;
    TestMaster master{kernel, ch};

    void wire(sim::Clocked& slave) {
        kernel.add(master, sim::kStageMaster);
        kernel.add(slave, sim::kStageSlave);
    }
    void run_to_idle(Cycle max = 10000) {
        kernel.run_until([&] { return master.idle(); }, max);
        kernel.run(2);
    }
};

TEST(MemorySlave, SingleWriteThenReadBack) {
    DirectRig rig;
    MemorySlave m{rig.ch, SlaveTiming{1, 1, 1}, 0x1000, 0x100};
    rig.wire(m);
    rig.master.push({ocp::Cmd::Write, 0x1010, 1, {0xABCD1234u}, 0});
    rig.master.push({ocp::Cmd::Read, 0x1010, 1, {}, 0});
    rig.run_to_idle();
    ASSERT_EQ(rig.master.results().size(), 2u);
    EXPECT_EQ(rig.master.results()[1].rdata.at(0), 0xABCD1234u);
    EXPECT_EQ(m.peek(0x1010), 0xABCD1234u);
    EXPECT_EQ(m.reads_served(), 1u);
    EXPECT_EQ(m.writes_served(), 1u);
}

TEST(MemorySlave, DirectReadLatencyPinned) {
    // Direct connection, read_latency=1: accept at assert cycle, first beat
    // two cycles later (one for the latency countdown, one to drive).
    DirectRig rig;
    MemorySlave m{rig.ch, SlaveTiming{1, 1, 1}, 0x0, 0x100};
    rig.wire(m);
    rig.master.push({ocp::Cmd::Read, 0x0, 1, {}, 5});
    rig.run_to_idle();
    const auto& r = rig.master.results().at(0);
    EXPECT_EQ(r.t_assert, 5u);
    EXPECT_EQ(r.t_accept, 5u);
    EXPECT_EQ(r.t_resp_last, r.t_accept + 2);
}

TEST(MemorySlave, BurstReadStreamsBackToBack) {
    DirectRig rig;
    MemorySlave m{rig.ch, SlaveTiming{2, 1, 1}, 0x0, 0x100};
    rig.wire(m);
    for (u32 i = 0; i < 8; ++i) m.poke(4 * i, 0x100 + i);
    rig.master.push({ocp::Cmd::BurstRead, 0x0, 8, {}, 0});
    rig.run_to_idle();
    const auto& r = rig.master.results().at(0);
    ASSERT_EQ(r.rdata.size(), 8u);
    for (u32 i = 0; i < 8; ++i) EXPECT_EQ(r.rdata[i], 0x100 + i);
    // beat_interval=1: consecutive beats on consecutive cycles.
    EXPECT_EQ(r.t_resp_last - r.t_resp_first, 7u);
}

TEST(MemorySlave, BurstBeatIntervalSpacesBeats) {
    DirectRig rig;
    MemorySlave m{rig.ch, SlaveTiming{1, 1, 3}, 0x0, 0x100};
    rig.wire(m);
    rig.master.push({ocp::Cmd::BurstRead, 0x0, 4, {}, 0});
    rig.run_to_idle();
    const auto& r = rig.master.results().at(0);
    EXPECT_EQ(r.t_resp_last - r.t_resp_first, 9u); // 3 gaps x 3 cycles
}

TEST(MemorySlave, BurstWriteStoresAllBeats) {
    DirectRig rig;
    MemorySlave m{rig.ch, SlaveTiming{1, 1, 1}, 0x0, 0x100};
    rig.wire(m);
    rig.master.push({ocp::Cmd::BurstWrite, 0x20, 4, {1, 2, 3, 4}, 0});
    rig.run_to_idle();
    for (u32 i = 0; i < 4; ++i) EXPECT_EQ(m.peek(0x20 + 4 * i), i + 1);
}

TEST(MemorySlave, WriteBusyStallsFollowingRead) {
    // Paper Fig. 2(a): a RD closely following a WR is stalled at the slave.
    DirectRig rig;
    MemorySlave m{rig.ch, SlaveTiming{1, 6, 1}, 0x0, 0x100};
    rig.wire(m);
    rig.master.push({ocp::Cmd::Write, 0x0, 1, {7}, 0});
    rig.master.push({ocp::Cmd::Read, 0x0, 1, {}, 0});
    rig.run_to_idle();
    const auto& wr = rig.master.results().at(0);
    const auto& rd = rig.master.results().at(1);
    // The read is asserted right after the write completes but is only
    // accepted once the 6-cycle write-busy window has drained.
    EXPECT_GE(rd.t_accept, wr.t_accept + 6);
}

TEST(MemorySlave, OutOfRangeReadsPoison) {
    DirectRig rig;
    MemorySlave m{rig.ch, SlaveTiming{1, 1, 1}, 0x1000, 0x10};
    rig.wire(m);
    rig.master.push({ocp::Cmd::Read, 0x2000, 1, {}, 0});
    rig.run_to_idle();
    EXPECT_EQ(rig.master.results().at(0).rdata.at(0), ocp::kPoison);
    EXPECT_EQ(m.out_of_range_accesses(), 1u);
}

TEST(MemorySlave, PeekPokeLoadFill) {
    ocp::Channel ch;
    MemorySlave m{ch, SlaveTiming{}, 0x100, 0x40};
    m.fill(0x55AA55AAu);
    EXPECT_EQ(m.peek(0x100), 0x55AA55AAu);
    const std::vector<u32> img{1, 2, 3};
    m.load(0x104, img);
    EXPECT_EQ(m.peek(0x104), 1u);
    EXPECT_EQ(m.peek(0x10C), 3u);
    EXPECT_THROW((void)m.peek(0x200), std::out_of_range);
    EXPECT_THROW(m.poke(0x200, 1), std::out_of_range);
    EXPECT_THROW((MemorySlave{ch, SlaveTiming{}, 0, 0}), std::invalid_argument);
}

TEST(MemorySlave, ContainsRespectsWindow) {
    ocp::Channel ch;
    MemorySlave m{ch, SlaveTiming{}, 0x1000, 0x100};
    EXPECT_TRUE(m.contains(0x1000));
    EXPECT_TRUE(m.contains(0x10FC));
    EXPECT_FALSE(m.contains(0x1100));
    EXPECT_FALSE(m.contains(0xFFC));
}

// --- Semaphores ---

TEST(Semaphore, ReadAcquiresAndSecondReadFails) {
    DirectRig rig;
    SemaphoreDevice s{rig.ch, SlaveTiming{1, 0, 1}, 0x3000, 4};
    rig.wire(s);
    rig.master.push({ocp::Cmd::Read, 0x3000, 1, {}, 0});
    rig.master.push({ocp::Cmd::Read, 0x3000, 1, {}, 0});
    rig.run_to_idle();
    EXPECT_EQ(rig.master.results().at(0).rdata.at(0), 1u); // acquired
    EXPECT_EQ(rig.master.results().at(1).rdata.at(0), 0u); // busy
    EXPECT_EQ(s.acquisitions(), 1u);
    EXPECT_EQ(s.failed_polls(), 1u);
}

TEST(Semaphore, WriteReleases) {
    DirectRig rig;
    SemaphoreDevice s{rig.ch, SlaveTiming{1, 0, 1}, 0x3000, 4};
    rig.wire(s);
    rig.master.push({ocp::Cmd::Read, 0x3004, 1, {}, 0});  // acquire
    rig.master.push({ocp::Cmd::Write, 0x3004, 1, {1}, 0}); // release
    rig.master.push({ocp::Cmd::Read, 0x3004, 1, {}, 0});  // acquire again
    rig.run_to_idle();
    EXPECT_EQ(rig.master.results().at(0).rdata.at(0), 1u);
    EXPECT_EQ(rig.master.results().at(2).rdata.at(0), 1u);
    EXPECT_EQ(s.peek(1), 0u); // left locked
}

TEST(Semaphore, IndependentSlots) {
    ocp::Channel ch;
    SemaphoreDevice s{ch, SlaveTiming{}, 0x3000, 8};
    for (u32 i = 0; i < 8; ++i) EXPECT_EQ(s.peek(i), 1u);
    s.poke(3, 0);
    EXPECT_EQ(s.peek(3), 0u);
    EXPECT_EQ(s.peek(2), 1u);
}

// --- Parameterized latency sweep: response time must equal the configured
//     model for every (read_latency, beat_interval) pair ---

class MemTimingSweep
    : public ::testing::TestWithParam<std::tuple<u32, u32, u16>> {};

TEST_P(MemTimingSweep, ReadTimingFollowsModel) {
    const auto [latency, interval, burst] = GetParam();
    DirectRig rig;
    MemorySlave m{rig.ch, SlaveTiming{latency, 1, interval}, 0x0, 0x1000};
    rig.wire(m);
    rig.master.push({burst > 1 ? ocp::Cmd::BurstRead : ocp::Cmd::Read, 0x0,
                     burst, {}, 3});
    rig.run_to_idle(50000);
    ASSERT_EQ(rig.master.results().size(), 1u);
    const auto& r = rig.master.results().at(0);
    // First beat: accept + max(latency,1) + 1; remaining beats spaced by
    // `interval`.
    const Cycle expect_first = r.t_accept + std::max<u32>(latency, 1) + 1;
    EXPECT_EQ(r.t_resp_first, expect_first);
    EXPECT_EQ(r.t_resp_last, expect_first + (burst - 1) * interval);
}

INSTANTIATE_TEST_SUITE_P(
    LatencySweep, MemTimingSweep,
    ::testing::Combine(::testing::Values(1u, 2u, 5u, 9u),
                       ::testing::Values(1u, 2u, 4u),
                       ::testing::Values(u16{1}, u16{4}, u16{8})));

} // namespace
} // namespace tgsim::test
