// Unit tests for the interconnects: address decoding, AHB bus arbitration
// and forwarding, crossbar concurrency, and the ×pipes mesh NoC.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "ic/address_map.hpp"
#include "ic/amba/ahb_bus.hpp"
#include "ic/crossbar/crossbar.hpp"
#include "ic/xpipes/xpipes.hpp"
#include "mem/memory.hpp"
#include "test_util.hpp"

namespace tgsim::test {
namespace {

using mem::MemorySlave;
using mem::SlaveTiming;

/// Read-only slave that answers burst reads with Resp::Err on a chosen set
/// of beats (Dva elsewhere) — models a device failing mid-burst, which must
/// reach the requesting master as Resp::Err even across the mesh.
class ErrSlave final : public sim::Clocked {
public:
    ErrSlave(ocp::ChannelRef ch, std::vector<u16> err_beats)
        : ch_(ch), err_beats_(std::move(err_beats)) {}

    void eval() override {
        ch_.clear_response();
        if (st_ == St::Idle && ocp::is_read(ch_.m_cmd())) {
            burst_ = ocp::is_burst(ch_.m_cmd())
                         ? std::max<u16>(1, ch_.m_burst())
                         : u16{1};
            beat_ = 0;
            ch_.s_cmd_accept() = true;
            st_ = St::Respond;
        } else if (st_ == St::Respond) {
            const bool err =
                std::find(err_beats_.begin(), err_beats_.end(), beat_) !=
                err_beats_.end();
            ch_.s_resp() = err ? ocp::Resp::Err : ocp::Resp::Dva;
            ch_.s_data() = err ? 0u : 0x1000u + beat_;
            ch_.s_resp_last() = (beat_ + 1 == burst_);
        }
        ch_.touch_s();
    }
    void update() override {
        // m_resp_accept is read live: the consumer (NI or master) drives it
        // after our eval within this cycle, and tidies it when not accepting.
        if (st_ == St::Respond && ch_.m_resp_accept()) {
            ++beat_;
            if (beat_ == burst_) st_ = St::Idle;
        }
    }

private:
    enum class St : u8 { Idle, Respond };
    ocp::ChannelRef ch_;
    std::vector<u16> err_beats_;
    St st_ = St::Idle;
    u16 burst_ = 1;
    u16 beat_ = 0;
};

TEST(AddressMap, DecodesRanges) {
    ic::AddressMap m;
    EXPECT_EQ(m.add_range(0x1000, 0x100), 0u);
    EXPECT_EQ(m.add_range(0x2000, 0x100), 1u);
    EXPECT_EQ(m.decode(0x1000), 0u);
    EXPECT_EQ(m.decode(0x10FF), 0u);
    EXPECT_EQ(m.decode(0x2080), 1u);
    EXPECT_FALSE(m.decode(0x1100).has_value());
    EXPECT_FALSE(m.decode(0x0).has_value());
}

TEST(AddressMap, RejectsOverlapAndZeroSize) {
    ic::AddressMap m;
    m.add_range(0x1000, 0x100);
    EXPECT_THROW(m.add_range(0x10FF, 0x10), std::invalid_argument);
    EXPECT_THROW(m.add_range(0x0FFF, 0x2), std::invalid_argument);
    EXPECT_THROW(m.add_range(0x5000, 0), std::invalid_argument);
}

/// Rig with N test masters, M memory slaves and an interconnect.
template <typename Ic>
struct IcRig {
    sim::Kernel kernel;
    std::vector<std::unique_ptr<ocp::Channel>> chans;
    std::vector<std::unique_ptr<TestMaster>> masters;
    std::vector<std::unique_ptr<MemorySlave>> mems;
    Ic ic;

    template <typename... Args>
    explicit IcRig(Args&&... args) : ic(std::forward<Args>(args)...) {}

    TestMaster& add_master(int node = -1) {
        chans.push_back(std::make_unique<ocp::Channel>());
        masters.push_back(std::make_unique<TestMaster>(kernel, *chans.back()));
        ic.connect_master(*chans.back(), node);
        kernel.add(*masters.back(), sim::kStageMaster);
        return *masters.back();
    }
    MemorySlave& add_mem(u32 base, u32 size, SlaveTiming t = {1, 1, 1},
                         int node = -1) {
        chans.push_back(std::make_unique<ocp::Channel>());
        mems.push_back(
            std::make_unique<MemorySlave>(*chans.back(), t, base, size));
        ic.connect_slave(*chans.back(), base, size, node);
        kernel.add(*mems.back(), sim::kStageSlave);
        return *mems.back();
    }
    void finish_wiring() { kernel.add(ic, sim::kStageInterconnect); }
    bool run_to_idle(Cycle max = 100000) {
        const bool done = kernel.run_until(
            [&] {
                for (const auto& m : masters)
                    if (!m->idle()) return false;
                return true;
            },
            max);
        // Posted writes complete at the master before delivery (NoC NIs
        // buffer them); drain the fabric before inspecting memory.
        kernel.run(300);
        return done;
    }
};

// --- AHB bus ---

TEST(AhbBus, DrivesOnlyTheOwnerAndTargetChannels) {
    // The bus default-drives the response group of every master channel and
    // the request group of every slave channel, but only the owner's and
    // the target's can ever be non-idle: while master 0 bursts from slave 0,
    // the bus must not move s_gen of the other masters (one of them waiting
    // for the bus) nor m_gen of the other slave.
    IcRig<ic::AhbBus> rig{ic::Arbitration::FixedPriority};
    auto& owner = rig.add_master();
    auto& waiter = rig.add_master();
    rig.add_master(); // idle
    rig.add_mem(0x1000, 0x1000);
    rig.add_mem(0x2000, 0x1000);
    rig.finish_wiring();
    const ocp::ChannelRef owner_ch = *rig.chans[0];
    const ocp::ChannelRef target_ch = *rig.chans[3];
    const std::vector<ocp::ChannelRef> bystanders{*rig.chans[1], *rig.chans[2]};
    const ocp::ChannelRef other_slave = *rig.chans[4];
    owner.push({ocp::Cmd::BurstRead, 0x1000, 4, {}, 0});
    waiter.push({ocp::Cmd::Read, 0x2000, 1, {}, 0});

    const u32 owner_s = owner_ch.s_gen();
    const u32 target_m = target_ch.m_gen();
    std::vector<u32> bystander_s;
    for (const ocp::ChannelRef& c : bystanders) bystander_s.push_back(c.s_gen());
    const u32 other_m = other_slave.m_gen();
    Cycle busy = 0;
    while (!owner.idle() && busy < 1000) {
        rig.kernel.run(1);
        ++busy;
        for (std::size_t i = 0; i < bystanders.size(); ++i)
            ASSERT_EQ(bystanders[i].s_gen(), bystander_s[i]) << "cycle " << busy;
        ASSERT_EQ(other_slave.m_gen(), other_m) << "cycle " << busy;
    }
    ASSERT_TRUE(owner.idle());
    EXPECT_GT(rig.ic.stats().wait_cycles[1], 0u); // the waiter did contend
    EXPECT_NE(owner_ch.s_gen(), owner_s);
    EXPECT_NE(target_ch.m_gen(), target_m);
    ASSERT_TRUE(rig.run_to_idle());
    EXPECT_EQ(waiter.results().size(), 1u);
    // ...and everything the bus drove is idle again once the bus is.
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_TRUE(rig.chans[i]->response_is_idle()) << "master " << i;
    for (std::size_t i = 3; i < 5; ++i)
        EXPECT_TRUE(rig.chans[i]->request_is_idle()) << "slave " << i - 3;
}

TEST(AhbBus, SingleMasterWriteReadRoundTrip) {
    IcRig<ic::AhbBus> rig;
    auto& m = rig.add_master();
    auto& mem = rig.add_mem(0x1000, 0x1000);
    rig.finish_wiring();
    m.push({ocp::Cmd::Write, 0x1040, 1, {0xFEED}, 0});
    m.push({ocp::Cmd::Read, 0x1040, 1, {}, 0});
    ASSERT_TRUE(rig.run_to_idle());
    EXPECT_EQ(mem.peek(0x1040), 0xFEEDu);
    EXPECT_EQ(m.results().at(1).rdata.at(0), 0xFEEDu);
}

TEST(AhbBus, BurstReadBeatsStreamOncePerCycle) {
    IcRig<ic::AhbBus> rig;
    auto& m = rig.add_master();
    auto& mem = rig.add_mem(0x0, 0x1000);
    rig.finish_wiring();
    for (u32 i = 0; i < 8; ++i) mem.poke(4 * i, i);
    m.push({ocp::Cmd::BurstRead, 0x0, 8, {}, 0});
    ASSERT_TRUE(rig.run_to_idle());
    const auto& r = m.results().at(0);
    EXPECT_EQ(r.rdata.size(), 8u);
    EXPECT_EQ(r.t_resp_last - r.t_resp_first, 7u);
}

TEST(AhbBus, SerializesConcurrentMasters) {
    IcRig<ic::AhbBus> rig;
    auto& m0 = rig.add_master();
    auto& m1 = rig.add_master();
    rig.add_mem(0x0, 0x1000);
    rig.finish_wiring();
    m0.push({ocp::Cmd::Read, 0x0, 1, {}, 0});
    m1.push({ocp::Cmd::Read, 0x40, 1, {}, 0});
    ASSERT_TRUE(rig.run_to_idle());
    // One of them must have waited: completions strictly ordered.
    const Cycle e0 = m0.results().at(0).t_resp_last;
    const Cycle e1 = m1.results().at(0).t_resp_last;
    EXPECT_NE(e0, e1);
    EXPECT_GT(rig.ic.contention_cycles(), 0u);
}

TEST(AhbBus, RoundRobinSharesGrants) {
    IcRig<ic::AhbBus> rig{ic::Arbitration::RoundRobin};
    auto& m0 = rig.add_master();
    auto& m1 = rig.add_master();
    rig.add_mem(0x0, 0x10000);
    rig.finish_wiring();
    for (u32 i = 0; i < 20; ++i) {
        m0.push({ocp::Cmd::Write, 4 * i, 1, {i}, 0});
        m1.push({ocp::Cmd::Write, 0x8000 + 4 * i, 1, {i}, 0});
    }
    ASSERT_TRUE(rig.run_to_idle());
    EXPECT_EQ(rig.ic.stats().grants[0], 20u);
    EXPECT_EQ(rig.ic.stats().grants[1], 20u);
    // Fairness: neither master should finish long before the other.
    const Cycle e0 = m0.results().back().t_accept;
    const Cycle e1 = m1.results().back().t_accept;
    EXPECT_LT(std::llabs(static_cast<long long>(e0) -
                         static_cast<long long>(e1)),
              20);
}

TEST(AhbBus, FixedPriorityFavorsMasterZero) {
    IcRig<ic::AhbBus> rig{ic::Arbitration::FixedPriority};
    auto& m0 = rig.add_master();
    auto& m1 = rig.add_master();
    rig.add_mem(0x0, 0x10000);
    rig.finish_wiring();
    for (u32 i = 0; i < 20; ++i) {
        m0.push({ocp::Cmd::Write, 4 * i, 1, {i}, 0});
        m1.push({ocp::Cmd::Write, 0x8000 + 4 * i, 1, {i}, 0});
    }
    ASSERT_TRUE(rig.run_to_idle());
    // Master 0 must complete its stream strictly first.
    EXPECT_LT(m0.results().back().t_accept, m1.results().back().t_accept);
    EXPECT_GT(rig.ic.stats().wait_cycles[1], rig.ic.stats().wait_cycles[0]);
}

TEST(AhbBus, DecodeErrorReturnsErrBeats) {
    IcRig<ic::AhbBus> rig;
    auto& m = rig.add_master();
    rig.add_mem(0x1000, 0x100);
    rig.finish_wiring();
    m.push({ocp::Cmd::Read, 0xDEAD0000, 1, {}, 0});
    m.push({ocp::Cmd::Write, 0xDEAD0000, 1, {5}, 0}); // must not wedge
    m.push({ocp::Cmd::Read, 0x1000, 1, {}, 0});
    ASSERT_TRUE(rig.run_to_idle());
    EXPECT_EQ(rig.ic.stats().decode_errors, 2u);
    EXPECT_EQ(m.results().size(), 3u);
}

// A grant whose address decodes to no slave still owns the bus (the bridge
// answers Err with no slave attached): the two masters behind it must count
// their wait cycles through it, and the error grant counts as a grant.
TEST(AhbBus, DecodeErrorGrantCountsWaitsOfTheOthers) {
    IcRig<ic::AhbBus> rig{ic::Arbitration::RoundRobin};
    auto& bad = rig.add_master();
    auto& m1 = rig.add_master();
    auto& m2 = rig.add_master();
    rig.add_mem(0x1000, 0x1000);
    rig.finish_wiring();
    bad.push({ocp::Cmd::Read, 0xDEAD0000, 1, {}, 0});
    m1.push({ocp::Cmd::Read, 0x1000, 1, {}, 0});
    m2.push({ocp::Cmd::BurstRead, 0x1040, 4, {}, 0});
    ASSERT_TRUE(rig.run_to_idle());
    const ic::AhbStats& st = rig.ic.stats();
    EXPECT_EQ(st.decode_errors, 1u);
    EXPECT_EQ(st.grants, (std::vector<u64>{1, 1, 1}));
    EXPECT_EQ(st.wait_cycles, (std::vector<u64>{0, 3, 7}));
    EXPECT_EQ(st.slave_transactions, (std::vector<u64>{2}));
    EXPECT_EQ(bad.results().at(0).resps, (std::vector<ocp::Resp>{ocp::Resp::Err}));
    EXPECT_EQ(m2.results().at(0).rdata.size(), 4u);
}

TEST(AhbBus, WriteBusySlaveBackpressuresBus) {
    IcRig<ic::AhbBus> rig;
    auto& m = rig.add_master();
    rig.add_mem(0x0, 0x1000, SlaveTiming{1, 8, 1});
    rig.finish_wiring();
    m.push({ocp::Cmd::Write, 0x0, 1, {1}, 0});
    m.push({ocp::Cmd::Write, 0x4, 1, {2}, 0});
    ASSERT_TRUE(rig.run_to_idle());
    EXPECT_GE(m.results().at(1).t_accept, m.results().at(0).t_accept + 8);
}

// --- Crossbar ---

TEST(Crossbar, ConcurrentTransfersToDistinctSlaves) {
    IcRig<ic::Crossbar> xrig;
    auto& xm0 = xrig.add_master();
    auto& xm1 = xrig.add_master();
    xrig.add_mem(0x0, 0x1000);
    xrig.add_mem(0x10000, 0x1000);
    xrig.finish_wiring();
    xm0.push({ocp::Cmd::Read, 0x0, 1, {}, 0});
    xm1.push({ocp::Cmd::Read, 0x10000, 1, {}, 0});
    ASSERT_TRUE(xrig.run_to_idle());
    // No contention: both reads complete at the same cycle.
    EXPECT_EQ(xm0.results().at(0).t_resp_last, xm1.results().at(0).t_resp_last);
    EXPECT_EQ(xrig.ic.contention_cycles(), 0u);
}

TEST(Crossbar, SameSlaveStillSerializes) {
    IcRig<ic::Crossbar> rig;
    auto& m0 = rig.add_master();
    auto& m1 = rig.add_master();
    rig.add_mem(0x0, 0x1000);
    rig.finish_wiring();
    m0.push({ocp::Cmd::Read, 0x0, 1, {}, 0});
    m1.push({ocp::Cmd::Read, 0x40, 1, {}, 0});
    ASSERT_TRUE(rig.run_to_idle());
    EXPECT_NE(m0.results().at(0).t_resp_last, m1.results().at(0).t_resp_last);
    EXPECT_GT(rig.ic.contention_cycles(), 0u);
}

TEST(Crossbar, WriteDataIntegrityUnderContention) {
    IcRig<ic::Crossbar> rig;
    auto& m0 = rig.add_master();
    auto& m1 = rig.add_master();
    auto& mem = rig.add_mem(0x0, 0x10000);
    rig.finish_wiring();
    for (u32 i = 0; i < 30; ++i) {
        m0.push({ocp::Cmd::Write, 4 * i, 1, {1000 + i}, 0});
        m1.push({ocp::Cmd::Write, 0x8000 + 4 * i, 1, {2000 + i}, 0});
    }
    ASSERT_TRUE(rig.run_to_idle());
    for (u32 i = 0; i < 30; ++i) {
        EXPECT_EQ(mem.peek(4 * i), 1000 + i);
        EXPECT_EQ(mem.peek(0x8000 + 4 * i), 2000 + i);
    }
}

TEST(Crossbar, DecodeErrorDoesNotWedge) {
    IcRig<ic::Crossbar> rig;
    auto& m = rig.add_master();
    rig.add_mem(0x1000, 0x100);
    rig.finish_wiring();
    m.push({ocp::Cmd::BurstRead, 0xBAD00000, 4, {}, 0});
    m.push({ocp::Cmd::Read, 0x1000, 1, {}, 0});
    ASSERT_TRUE(rig.run_to_idle());
    EXPECT_EQ(m.results().size(), 2u);
    EXPECT_EQ(rig.ic.stats().decode_errors, 1u);
}

// --- ×pipes mesh ---

TEST(Xpipes, RejectsBadConfigurations) {
    EXPECT_THROW(ic::XpipesNetwork({0, 3, 4}), std::invalid_argument);
    EXPECT_THROW(ic::XpipesNetwork({3, 3, 1}), std::invalid_argument);
    // FIFOs are allocated eagerly, so the depth has a documented ceiling.
    EXPECT_THROW(ic::XpipesNetwork({3, 3, ic::kMaxFifoDepth + 1}),
                 std::invalid_argument);
    EXPECT_NO_THROW(ic::XpipesNetwork({2, 2, ic::kMaxFifoDepth}));
    // Node ids are 16-bit in flit headers: a mesh or torus past 65535
    // nodes would alias them, and 65536x65536 wraps a u32 product to 0.
    for (const auto kind : {ic::TopologyKind::Mesh, ic::TopologyKind::Torus})
        for (const u32 side : {256u, 300u, 65536u, 70000u}) {
            ic::XpipesConfig big;
            big.width = side;
            big.height = side;
            big.topology = kind;
            EXPECT_THROW(ic::XpipesNetwork{big}, std::invalid_argument)
                << side;
        }
    ic::XpipesNetwork net{{2, 2, 4}};
    ocp::Channel a, b;
    net.connect_master(a, 0);
    EXPECT_THROW(net.connect_master(b, 0), std::invalid_argument);
    EXPECT_THROW(net.connect_master(b, 9), std::invalid_argument);
}

TEST(Xpipes, WriteReadRoundTripAcrossMesh) {
    IcRig<ic::XpipesNetwork> rig{ic::XpipesConfig{3, 3, 4}};
    auto& m = rig.add_master(0);
    auto& mem = rig.add_mem(0x0, 0x1000, SlaveTiming{1, 1, 1}, 8); // far corner
    (void)mem;
    rig.finish_wiring();
    m.push({ocp::Cmd::Write, 0x40, 1, {0xA5A5}, 0});
    m.push({ocp::Cmd::Read, 0x40, 1, {}, 0});
    ASSERT_TRUE(rig.run_to_idle());
    EXPECT_EQ(mem.peek(0x40), 0xA5A5u);
    EXPECT_EQ(m.results().at(1).rdata.at(0), 0xA5A5u);
    EXPECT_GT(rig.ic.stats().flits_routed, 0u);
}

TEST(Xpipes, ReadLatencyGrowsWithHopDistance) {
    const auto latency = [](int slave_node) {
        IcRig<ic::XpipesNetwork> rig{ic::XpipesConfig{4, 4, 4}};
        auto& m = rig.add_master(0);
        (void)m;
        rig.add_mem(0x0, 0x1000, SlaveTiming{1, 1, 1}, slave_node);
        rig.finish_wiring();
        m.push({ocp::Cmd::Read, 0x0, 1, {}, 0});
        EXPECT_TRUE(rig.run_to_idle());
        return rig.masters[0]->results().at(0).t_resp_last;
    };
    const Cycle near = latency(1);   // 1 hop
    const Cycle far = latency(15);   // 6 hops
    EXPECT_GT(far, near + 8);        // 5 extra hops in each direction
}

TEST(Xpipes, CoLocatedMasterAndSlaveWork) {
    IcRig<ic::XpipesNetwork> rig{ic::XpipesConfig{2, 2, 4}};
    auto& m = rig.add_master(1);
    auto& mem = rig.add_mem(0x0, 0x1000, SlaveTiming{1, 1, 1}, 1);
    rig.finish_wiring();
    m.push({ocp::Cmd::Write, 0x0, 1, {7}, 0});
    m.push({ocp::Cmd::Read, 0x0, 1, {}, 0});
    ASSERT_TRUE(rig.run_to_idle());
    EXPECT_EQ(mem.peek(0x0), 7u);
}

TEST(Xpipes, BurstTransfersPreserveDataAndOrder) {
    IcRig<ic::XpipesNetwork> rig{ic::XpipesConfig{3, 2, 4}};
    auto& m = rig.add_master(0);
    auto& mem = rig.add_mem(0x0, 0x1000, SlaveTiming{1, 1, 1}, 5);
    rig.finish_wiring();
    std::vector<u32> beats;
    for (u32 i = 0; i < 16; ++i) beats.push_back(0x900 + i);
    m.push({ocp::Cmd::BurstWrite, 0x100, 16, beats, 0});
    m.push({ocp::Cmd::BurstRead, 0x100, 16, {}, 0});
    ASSERT_TRUE(rig.run_to_idle());
    EXPECT_EQ(m.results().at(1).rdata, beats);
    for (u32 i = 0; i < 16; ++i) EXPECT_EQ(mem.peek(0x100 + 4 * i), 0x900 + i);
}

TEST(Xpipes, ConcurrentMastersDistinctSlaves) {
    IcRig<ic::XpipesNetwork> rig{ic::XpipesConfig{3, 3, 4}};
    auto& m0 = rig.add_master(0);
    auto& m1 = rig.add_master(2);
    auto& memA = rig.add_mem(0x0, 0x1000, SlaveTiming{1, 1, 1}, 6);
    auto& memB = rig.add_mem(0x10000, 0x1000, SlaveTiming{1, 1, 1}, 8);
    rig.finish_wiring();
    for (u32 i = 0; i < 10; ++i) {
        m0.push({ocp::Cmd::Write, 4 * i, 1, {i + 1}, 0});
        m1.push({ocp::Cmd::Write, 0x10000 + 4 * i, 1, {i + 100}, 0});
    }
    ASSERT_TRUE(rig.run_to_idle());
    for (u32 i = 0; i < 10; ++i) {
        EXPECT_EQ(memA.peek(4 * i), i + 1);
        EXPECT_EQ(memB.peek(0x10000 + 4 * i), i + 100);
    }
}

TEST(Xpipes, TinyFifosStillDeliverEverything) {
    // Backpressure path: minimum-depth FIFOs, long bursts, two masters
    // hammering one slave. Nothing may be lost or reordered per master.
    IcRig<ic::XpipesNetwork> rig{ic::XpipesConfig{3, 3, 2}};
    auto& m0 = rig.add_master(0);
    auto& m1 = rig.add_master(8);
    rig.add_mem(0x0, 0x10000, SlaveTiming{2, 2, 1}, 4);
    rig.finish_wiring();
    std::vector<u32> beats;
    for (u32 i = 0; i < 32; ++i) beats.push_back(i);
    m0.push({ocp::Cmd::BurstWrite, 0x0, 32, beats, 0});
    m0.push({ocp::Cmd::BurstRead, 0x0, 32, {}, 0});
    m1.push({ocp::Cmd::BurstWrite, 0x8000, 32, beats, 0});
    m1.push({ocp::Cmd::BurstRead, 0x8000, 32, {}, 0});
    ASSERT_TRUE(rig.run_to_idle());
    EXPECT_EQ(m0.results().at(1).rdata, beats);
    EXPECT_EQ(m1.results().at(1).rdata, beats);
}

TEST(Xpipes, SlaveErrMidBurstPropagatesToMaster) {
    // Regression: a slave's Resp::Err used to be rewritten into a poison
    // *payload* at the slave NI and reported to the master as Dva — errors
    // silently vanished across the mesh. The error flag must survive
    // per beat: Err exactly where the slave erred, Dva elsewhere.
    IcRig<ic::XpipesNetwork> rig{ic::XpipesConfig{3, 3, 4}};
    auto& m = rig.add_master(0);
    rig.chans.push_back(std::make_unique<ocp::Channel>());
    ErrSlave errsl{*rig.chans.back(), {2, 5}};
    rig.ic.connect_slave(*rig.chans.back(), 0x2000, 0x1000, 8); // far corner
    rig.kernel.add(errsl, sim::kStageSlave);
    rig.finish_wiring();
    m.push({ocp::Cmd::BurstRead, 0x2000, 8, {}, 0});
    m.push({ocp::Cmd::Read, 0x2000, 1, {}, 0}); // beat 0 is clean
    ASSERT_TRUE(rig.run_to_idle());
    const auto& burst = m.results().at(0);
    ASSERT_EQ(burst.resps.size(), 8u);
    for (u16 i = 0; i < 8; ++i) {
        if (i == 2 || i == 5) {
            EXPECT_EQ(burst.resps[i], ocp::Resp::Err) << "beat " << i;
            EXPECT_EQ(burst.rdata[i], 0xDEADBEEFu) << "beat " << i;
        } else {
            EXPECT_EQ(burst.resps[i], ocp::Resp::Dva) << "beat " << i;
            EXPECT_EQ(burst.rdata[i], 0x1000u + i) << "beat " << i;
        }
    }
    const auto& single = m.results().at(1);
    ASSERT_EQ(single.resps.size(), 1u);
    EXPECT_EQ(single.resps[0], ocp::Resp::Dva);
    EXPECT_EQ(single.rdata[0], 0x1000u);
}

TEST(Xpipes, DecodeErrorSynthesizedLocally) {
    IcRig<ic::XpipesNetwork> rig{ic::XpipesConfig{2, 2, 4}};
    auto& m = rig.add_master(0);
    rig.add_mem(0x1000, 0x100, SlaveTiming{1, 1, 1}, 1);
    rig.finish_wiring();
    m.push({ocp::Cmd::Read, 0xEE000000, 1, {}, 0});
    m.push({ocp::Cmd::Read, 0x1000, 1, {}, 0});
    ASSERT_TRUE(rig.run_to_idle());
    EXPECT_EQ(m.results().size(), 2u);
    EXPECT_EQ(rig.ic.stats().decode_errors, 1u);
}

} // namespace
} // namespace tgsim::test
