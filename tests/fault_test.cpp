// Deterministic fault injection + end-to-end recovery (docs/faults.md):
// FaultModel draw properties, the zero-fault inertness guarantee, packet
// accountability across all traffic patterns (no transaction ever silently
// lost), data integrity through retry/checksum recovery, retry exhaustion,
// Resp::Err propagation under wormhole contention, the erred-packet latency
// exclusion, and the determinism contract (jobs / gating / seed) including
// the JSON report round-trip of the reliability columns.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "ic/fault.hpp"
#include "ic/xpipes/xpipes.hpp"
#include "mem/memory.hpp"
#include "sweep/shard.hpp"
#include "sweep/sweep.hpp"
#include "tg/patterns.hpp"
#include "test_util.hpp"

namespace tgsim::test {
namespace {

using ic::FaultConfig;
using ic::FaultKind;
using ic::FaultModel;

FaultConfig rates(double corrupt, double drop, double stall, u64 seed) {
    FaultConfig f;
    f.corrupt_rate = corrupt;
    f.drop_rate = drop;
    f.stall_rate = stall;
    f.seed = seed;
    return f;
}

// --- FaultModel unit properties ---

TEST(FaultModel, ValidatesConfig) {
    EXPECT_NO_THROW(FaultModel{FaultConfig{}});
    EXPECT_NO_THROW(FaultModel{rates(0.2, 0.3, 0.5, 1)});
    EXPECT_THROW(FaultModel{rates(-0.1, 0, 0, 1)}, std::invalid_argument);
    EXPECT_THROW(FaultModel{rates(1.1, 0, 0, 1)}, std::invalid_argument);
    EXPECT_THROW(FaultModel{rates(0.5, 0.4, 0.2, 1)}, std::invalid_argument);
    FaultConfig bad = rates(0.1, 0, 0, 1);
    bad.stall_max = 0;
    EXPECT_THROW(FaultModel{bad}, std::invalid_argument);
    bad = rates(0.1, 0, 0, 1);
    bad.retry_timeout = 0;
    EXPECT_THROW(FaultModel{bad}, std::invalid_argument);
}

TEST(FaultModel, DrawIsPureAndInBounds) {
    FaultConfig cfg = rates(1.0 / 3, 1.0 / 3, 1.0 / 3, 42);
    cfg.stall_max = 5;
    const FaultModel fm{cfg};
    u32 seen[4] = {0, 0, 0, 0};
    for (u32 router = 0; router < 4; ++router) {
        for (u64 serial = 1; serial <= 500; ++serial) {
            const auto d = fm.draw(router, serial);
            const auto again = fm.draw(router, serial);
            ASSERT_EQ(d.kind, again.kind); // pure function of (router, serial)
            ASSERT_EQ(d.mask, again.mask);
            ASSERT_EQ(d.stall, again.stall);
            ++seen[static_cast<u32>(d.kind)];
            if (d.kind == FaultKind::Corrupt) {
                ASSERT_NE(d.mask, 0u);
            }
            if (d.kind == FaultKind::Stall) {
                ASSERT_GE(d.stall, 1u);
                ASSERT_LE(d.stall, cfg.stall_max);
            }
        }
    }
    // Equal thirds: every kind actually fires.
    EXPECT_GT(seen[static_cast<u32>(FaultKind::Corrupt)], 0u);
    EXPECT_GT(seen[static_cast<u32>(FaultKind::Drop)], 0u);
    EXPECT_GT(seen[static_cast<u32>(FaultKind::Stall)], 0u);
}

TEST(FaultModel, ZeroRatesNeverFault) {
    FaultConfig cfg;
    cfg.seed = 1234; // a seed alone must not enable anything
    EXPECT_FALSE(cfg.enabled());
    const FaultModel fm{cfg};
    for (u64 s = 1; s <= 2000; ++s)
        ASSERT_EQ(fm.draw(0, s).kind, FaultKind::None);
}

TEST(FaultModel, SeedMovesFaultSites) {
    FaultConfig a = rates(0.1, 0.1, 0.1, 7);
    FaultConfig b = rates(0.1, 0.1, 0.1, 8);
    const FaultModel fa{a}, fb{b};
    u32 diff = 0;
    for (u64 s = 1; s <= 500; ++s)
        if (fa.draw(3, s).kind != fb.draw(3, s).kind) ++diff;
    EXPECT_GT(diff, 0u);
}

TEST(FaultChecksum, DetectsSingleWordCorruption) {
    const std::vector<u32> words{0x1, 0xDEAD, 0, 0xFFFFFFFF, 42};
    u32 clean = ic::csum_init();
    for (const u32 w : words) clean = ic::csum_step(clean, w);
    for (std::size_t i = 0; i < words.size(); ++i) {
        u32 bad = ic::csum_init();
        for (std::size_t j = 0; j < words.size(); ++j)
            bad = ic::csum_step(bad, j == i ? (words[j] ^ 0x40001u)
                                            : words[j]);
        EXPECT_NE(bad, clean) << "word " << i;
    }
}

// --- mesh-level rigs ---

/// Read-only slave answering burst reads with Resp::Err on a chosen set of
/// beats (Dva elsewhere) — the same device-failing-mid-burst model as the
/// ic_test suite, here driven through the recovery-enabled mesh.
class ErrSlaveStandin final : public sim::Clocked {
public:
    ErrSlaveStandin(ocp::ChannelRef ch, std::vector<u16> err_beats)
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
        if (st_ == St::Respond && ch_.m_resp_accept()) {
            ++beat_;
            if (beat_ == burst_) st_ = St::Idle;
        }
    }

private:
    enum class St : u8 { Idle, Respond };
    ocp::ChannelRef ch_;
    std::vector<u16> err_beats_;
    u16 burst_ = 1;
    u16 beat_ = 0;
    St st_ = St::Idle;
};

/// Runs the fault-mode drain: after the masters go idle the NIs may still
/// be retrying (a replay between timeouts has zero flits in flight), so
/// quiet_for() — not an arbitrary cycle budget — is the drain condition.
bool drain(MeshRig& rig, int tries = 200) {
    for (int i = 0; i < tries; ++i) {
        if (rig.ic.quiet_for() != 0) return true;
        rig.kernel.run(5000);
    }
    return rig.ic.quiet_for() != 0;
}

ic::XpipesConfig mesh33(const FaultConfig& f) {
    ic::XpipesConfig cfg;
    cfg.width = 3;
    cfg.height = 3;
    cfg.fifo_depth = 4;
    cfg.fault = f;
    return cfg;
}

TEST(FaultRecovery, ZeroFaultConfigIsInert) {
    // The property the whole PR hangs on: with all-zero rates the fault
    // subsystem must be bit-invisible — identical handshake timestamps,
    // data and wire statistics no matter what the dormant knobs are set to.
    auto run_one = [](const FaultConfig& f) {
        MeshRig rig{mesh33(f)};
        auto& m0 = rig.add_master(0);
        auto& m1 = rig.add_master(4);
        rig.add_mem(0x0, 0x1000, mem::SlaveTiming{1, 1, 1}, 8);
        push_burst_flow(m0, 12);
        push_burst_flow(m1, 12);
        EXPECT_TRUE(rig.run_to_idle());
        struct Shot {
            std::vector<TestMaster::Done> r0, r1;
            u64 flits, cycles_busy, req, resp;
        } s;
        s.r0 = m0.results();
        s.r1 = m1.results();
        s.flits = rig.ic.stats().flits_routed;
        s.cycles_busy = rig.ic.stats().busy_cycles;
        s.req = rig.ic.stats().req_packets_delivered;
        s.resp = rig.ic.stats().resp_packets_delivered;
        EXPECT_EQ(rig.ic.stats().reliability.injected, 0u);
        return s;
    };

    FaultConfig dormant; // zero rates, but every other knob perturbed
    dormant.seed = 0xFEEDu;
    dormant.stall_max = 3;
    dormant.retry_timeout = 17;
    dormant.max_retries = 1;
    ASSERT_FALSE(dormant.enabled());

    const auto a = run_one(FaultConfig{});
    const auto b = run_one(dormant);
    ASSERT_EQ(a.r0.size(), b.r0.size());
    for (std::size_t i = 0; i < a.r0.size(); ++i) {
        EXPECT_EQ(a.r0[i].t_assert, b.r0[i].t_assert);
        EXPECT_EQ(a.r0[i].t_accept, b.r0[i].t_accept);
        EXPECT_EQ(a.r0[i].t_resp_last, b.r0[i].t_resp_last);
        EXPECT_EQ(a.r0[i].rdata, b.r0[i].rdata);
    }
    ASSERT_EQ(a.r1.size(), b.r1.size());
    for (std::size_t i = 0; i < a.r1.size(); ++i)
        EXPECT_EQ(a.r1[i].t_resp_last, b.r1[i].t_resp_last);
    EXPECT_EQ(a.flits, b.flits);
    EXPECT_EQ(a.cycles_busy, b.cycles_busy);
    EXPECT_EQ(a.req, b.req);
    EXPECT_EQ(a.resp, b.resp);
}

TEST(FaultRecovery, DataIntegrityUnderFaults) {
    // Corruption + drops + stalls at a rate high enough that recovery runs
    // constantly — and every read must still return exactly what was
    // written, with every transaction accounted for.
    // An 8-beat burst round trip makes ~36 per-flit-hop draws, so even 1%
    // corrupt+drop fails ~30% of attempts; a deep retry budget keeps the
    // exhaustion probability (and with this seed, the count) at zero.
    FaultConfig f = rates(0.01, 0.01, 0.01, 91);
    f.retry_timeout = 256;
    f.max_retries = 8;
    MeshRig rig{mesh33(f)};
    auto& m0 = rig.add_master(0);
    auto& m1 = rig.add_master(4);
    rig.add_mem(0x0, 0x2000, mem::SlaveTiming{1, 1, 1}, 8);
    auto push_window = [](TestMaster& m, u32 base, u32 reps) {
        for (u32 i = 0; i < reps; ++i) {
            std::vector<u32> beats;
            for (u32 b = 0; b < 8; ++b)
                beats.push_back((base << 8) + i * 8 + b);
            const u32 addr = base + (i % 16) * 0x20;
            m.push({ocp::Cmd::BurstWrite, addr, 8, beats, 0});
            m.push({ocp::Cmd::BurstRead, addr, 8, {}, 0});
        }
    };
    push_window(m0, 0x0000, 25);
    push_window(m1, 0x1000, 25);
    ASSERT_TRUE(rig.run_to_idle());
    ASSERT_TRUE(drain(rig)) << "recovery layer failed to drain";

    for (const TestMaster* m : {&m0, &m1}) {
        ASSERT_EQ(m->results().size(), 50u);
        for (std::size_t i = 0; i + 1 < m->results().size(); i += 2) {
            const auto& wr = m->results()[i];
            const auto& rd = m->results()[i + 1];
            ASSERT_EQ(rd.rdata.size(), 8u);
            EXPECT_EQ(rd.rdata, wr.op.wdata) << "pair " << i / 2;
            for (const ocp::Resp r : rd.resps) EXPECT_EQ(r, ocp::Resp::Dva);
        }
    }
    const auto& rel = rig.ic.stats().reliability;
    EXPECT_EQ(rel.injected, 100u);
    EXPECT_EQ(rel.injected, rel.delivered + rel.err_delivered + rel.lost);
    EXPECT_EQ(rel.lost, 0u);
    EXPECT_EQ(rel.err_delivered, 0u);
    // The rig actually exercised the machinery it claims to test.
    EXPECT_GT(rel.flits_corrupted + rel.packets_dropped + rel.stall_events,
              0u);
    EXPECT_GT(rel.retries, 0u);
    EXPECT_EQ(rel.recovered, rel.retry_latency.count());
}

TEST(FaultRecovery, CorruptRequestBehindQueuedPacketsIsDiscardedAlone) {
    // Four masters stream burst writes into one slow slave, so its NI rx
    // holds complete packets while the next one arrives — and pops them
    // meanwhile. A request whose tail checksum fails must then be cut off
    // the back of rx alone. Cutting at the rx index its head had on
    // arrival would, after those pops, pad rx with empty flits (which the
    // NI replays as a never-accepted Idle command: the fabric hangs) or
    // truncate good packets.
    FaultConfig f = rates(0.02, 0.0, 0.0, 7);
    f.max_retries = 8;
    MeshRig rig{mesh33(f)};
    std::vector<TestMaster*> ms;
    for (const int node : {0, 2, 6, 4}) ms.push_back(&rig.add_master(node));
    rig.add_mem(0x0, 0x1000, mem::SlaveTiming{4, 4, 1}, 8);
    for (u32 i = 0; i < ms.size(); ++i)
        for (u32 k = 0; k < 20; ++k) {
            std::vector<u32> beats;
            for (u32 b = 0; b < 6; ++b) beats.push_back((i << 16) + k * 8 + b);
            const u32 addr = i * 0x400 + (k % 8) * 0x20;
            ms[i]->push({ocp::Cmd::BurstWrite, addr, 6, beats, 0});
            ms[i]->push({ocp::Cmd::BurstRead, addr, 6, {}, 0});
        }
    ASSERT_TRUE(rig.run_to_idle(2'000'000));
    ASSERT_TRUE(drain(rig));

    for (const TestMaster* m : ms) {
        ASSERT_EQ(m->results().size(), 40u);
        for (std::size_t i = 0; i < m->results().size(); i += 2)
            EXPECT_EQ(m->results()[i + 1].rdata, m->results()[i].op.wdata)
                << "pair " << i / 2;
    }
    const auto& rel = rig.ic.stats().reliability;
    EXPECT_GT(rel.checksum_fails, 0u);
    EXPECT_EQ(rel.injected, rel.delivered);
}

TEST(FaultRecovery, RetryExhaustionIsBoundedAndReported) {
    // drop_rate = 1: every head flit dies at its first router input. Reads
    // must complete with synthesized Err beats (never hang the master) and
    // every transaction must be counted lost after exactly max_retries
    // replays.
    FaultConfig f = rates(0.0, 1.0, 0.0, 5);
    f.retry_timeout = 32;
    f.max_retries = 2;
    MeshRig rig{mesh33(f)};
    auto& m = rig.add_master(0);
    rig.add_mem(0x0, 0x1000, mem::SlaveTiming{1, 1, 1}, 8);
    m.push({ocp::Cmd::Write, 0x100, 1, {7u}, 0});
    m.push({ocp::Cmd::BurstRead, 0x100, 4, {}, 0});
    ASSERT_TRUE(rig.run_to_idle());
    ASSERT_TRUE(drain(rig));

    ASSERT_EQ(m.results().size(), 2u);
    const auto& rd = m.results()[1];
    ASSERT_EQ(rd.resps.size(), 4u);
    for (u16 b = 0; b < 4; ++b) {
        EXPECT_EQ(rd.resps[b], ocp::Resp::Err) << "beat " << b;
        EXPECT_EQ(rd.rdata[b], 0xDEADBEEFu) << "beat " << b;
    }
    const auto& rel = rig.ic.stats().reliability;
    EXPECT_EQ(rel.injected, 2u);
    EXPECT_EQ(rel.lost, 2u);
    EXPECT_EQ(rel.delivered + rel.err_delivered, 0u);
    EXPECT_EQ(rel.retries, 2u * f.max_retries);
    // Original + each replay drops one head per transaction.
    EXPECT_EQ(rel.packets_dropped, 2u * (1u + f.max_retries));
}

TEST(FaultRecovery, RespErrSurvivesWormholeContention) {
    // Satellite: an errored response interleaved with healthy packets on
    // shared links. m0 bursts from the erroring slave in the far corner,
    // m1 hammers a healthy memory on the same column — every Err beat must
    // arrive exactly where the slave erred, and the healthy flow must stay
    // uncorrupted. Stall faults keep the recovery layer engaged (checksums
    // + acks) without injecting data corruption of their own.
    FaultConfig f = rates(0.0, 0.0, 0.05, 3);
    f.retry_timeout = 512;
    MeshRig rig{mesh33(f)};
    auto& m0 = rig.add_master(0);
    auto& m1 = rig.add_master(3);
    rig.add_mem(0x1000, 0x1000, mem::SlaveTiming{1, 1, 1}, 5);
    rig.chans.push_back(std::make_unique<ocp::Channel>());
    ErrSlaveStandin errsl{*rig.chans.back(), {2, 5}};
    rig.ic.connect_slave(*rig.chans.back(), 0x2000, 0x1000, 8);
    rig.kernel.add(errsl, sim::kStageSlave);
    for (u32 i = 0; i < 10; ++i) {
        m0.push({ocp::Cmd::BurstRead, 0x2000, 8, {}, 0});
        std::vector<u32> beats;
        for (u32 b = 0; b < 8; ++b) beats.push_back(i * 16 + b);
        m1.push({ocp::Cmd::BurstWrite, 0x1000 + i * 0x20, 8, beats, 0});
        m1.push({ocp::Cmd::BurstRead, 0x1000 + i * 0x20, 8, {}, 0});
    }
    ASSERT_TRUE(rig.run_to_idle());
    ASSERT_TRUE(drain(rig));

    for (const auto& done : m0.results()) {
        ASSERT_EQ(done.resps.size(), 8u);
        for (u16 b = 0; b < 8; ++b) {
            if (b == 2 || b == 5)
                EXPECT_EQ(done.resps[b], ocp::Resp::Err) << "beat " << b;
            else {
                EXPECT_EQ(done.resps[b], ocp::Resp::Dva) << "beat " << b;
                EXPECT_EQ(done.rdata[b], 0x1000u + b) << "beat " << b;
            }
        }
    }
    for (std::size_t i = 0; i + 1 < m1.results().size(); i += 2)
        EXPECT_EQ(m1.results()[i + 1].rdata, m1.results()[i].op.wdata);
    const auto& rel = rig.ic.stats().reliability;
    EXPECT_EQ(rel.injected, rel.delivered + rel.err_delivered + rel.lost);
    EXPECT_EQ(rel.lost, 0u);
    EXPECT_EQ(rel.err_delivered, 10u); // every ErrSlave burst, exactly once
    EXPECT_GT(rel.stall_events, 0u);
    EXPECT_EQ(rig.ic.stats().resp_err_packets, 10u);
}

TEST(FaultRecovery, ErroredPacketsExcludedFromLatency) {
    // Satellite: latency percentiles must not be skewed by Err turnarounds
    // — in both the plain and the fault-enabled mesh.
    for (const bool faults : {false, true}) {
        FaultConfig f;
        if (faults) {
            f = rates(0.0, 0.0, 0.01, 2);
            f.retry_timeout = 512;
        }
        ic::XpipesConfig cfg = mesh33(f);
        cfg.collect_latency = true;
        MeshRig rig{cfg};
        auto& m = rig.add_master(0);
        rig.add_mem(0x1000, 0x1000, mem::SlaveTiming{1, 1, 1}, 5);
        rig.chans.push_back(std::make_unique<ocp::Channel>());
        ErrSlaveStandin errsl{*rig.chans.back(), {1}}; // errs mid-burst
        rig.ic.connect_slave(*rig.chans.back(), 0x2000, 0x1000, 8);
        rig.kernel.add(errsl, sim::kStageSlave);
        const u32 kHealthy = 6, kErr = 4;
        for (u32 i = 0; i < kHealthy; ++i)
            m.push({ocp::Cmd::BurstRead, 0x1000, 4, {}, 0});
        for (u32 i = 0; i < kErr; ++i)
            m.push({ocp::Cmd::BurstRead, 0x2000, 4, {}, 0});
        ASSERT_TRUE(rig.run_to_idle());
        ASSERT_TRUE(drain(rig));
        const auto& xs = rig.ic.stats();
        EXPECT_EQ(xs.resp_err_packets, static_cast<u64>(kErr))
            << "faults=" << faults;
        // Request packets (all) + healthy response packets only.
        EXPECT_EQ(xs.packet_latency.count(),
                  static_cast<u64>(kHealthy + kErr) + kHealthy)
            << "faults=" << faults;
    }
}

TEST(FaultRecovery, GatingModesAreBitIdenticalUnderFaults) {
    // The worklist router schedule and the full scan must fire the exact
    // same faults and produce the same recovery trace: fault sites depend
    // only on (seed, router, serial), never on evaluation order.
    auto run_one = [](bool gating) {
        FaultConfig f = rates(0.02, 0.02, 0.02, 17);
        f.retry_timeout = 256;
        ic::XpipesConfig cfg = mesh33(f);
        cfg.router_gating = gating;
        MeshRig rig{cfg};
        auto& m0 = rig.add_master(0);
        auto& m1 = rig.add_master(4);
        rig.add_mem(0x0, 0x1000, mem::SlaveTiming{1, 1, 1}, 8);
        push_burst_flow(m0, 10);
        push_burst_flow(m1, 10);
        EXPECT_TRUE(rig.run_to_idle());
        EXPECT_TRUE(drain(rig));
        return std::tuple{m0.results().back().t_resp_last,
                          m1.results().back().t_resp_last,
                          rig.ic.stats().flits_routed,
                          rig.ic.stats().reliability};
    };
    const auto a = run_one(true);
    const auto b = run_one(false);
    EXPECT_EQ(std::get<0>(a), std::get<0>(b));
    EXPECT_EQ(std::get<1>(a), std::get<1>(b));
    EXPECT_EQ(std::get<2>(a), std::get<2>(b));
    const auto& ra = std::get<3>(a);
    const auto& rb = std::get<3>(b);
    EXPECT_EQ(ra.injected, rb.injected);
    EXPECT_EQ(ra.retries, rb.retries);
    EXPECT_EQ(ra.flits_corrupted, rb.flits_corrupted);
    EXPECT_EQ(ra.packets_dropped, rb.packets_dropped);
    EXPECT_EQ(ra.stall_events, rb.stall_events);
    EXPECT_EQ(ra.stall_cycles, rb.stall_cycles);
    EXPECT_EQ(ra.checksum_fails, rb.checksum_fails);
}

// --- sweep-level properties ---

sweep::SweepResult run_pattern_fault(tg::Pattern p, double fault_rate,
                                     u64 fault_seed, u32 jobs) {
    tg::PatternConfig pc;
    pc.pattern = p;
    pc.width = 4;
    pc.height = 4;
    pc.injection_rate = 0.05;
    pc.packets_per_core = 60;
    platform::PlatformConfig base;
    base.ic = platform::IcKind::Xpipes;
    base.xpipes.width = 4;
    base.xpipes.height = platform::xpipes_height_for(16, 4);
    base.xpipes.fault.corrupt_rate = fault_rate / 3.0;
    base.xpipes.fault.drop_rate = fault_rate / 3.0;
    base.xpipes.fault.stall_rate = fault_rate / 3.0;
    base.xpipes.fault.seed = fault_seed;
    apps::Workload context;
    context.name = "fault_pattern";
    const sweep::SweepDriver driver{pc, context};
    const auto cands = sweep::make_rate_sweep(base, {0.05});
    sweep::SweepOptions opts;
    opts.jobs = jobs;
    const auto results = driver.run(cands, opts);
    EXPECT_EQ(results.size(), 1u);
    return results.at(0);
}

TEST(FaultSweep, EveryPatternAccountsForEveryPacket) {
    // The headline robustness invariant, across all seven destination
    // functions on a 4x4 grid: injected == delivered + Err-reported + lost,
    // the run completes (no deadlock/livelock), and nothing is lost at this
    // fault rate and retry budget.
    using tg::Pattern;
    for (const Pattern p :
         {Pattern::UniformRandom, Pattern::BitComplement, Pattern::Transpose,
          Pattern::Shuffle, Pattern::Tornado, Pattern::Neighbor,
          Pattern::Hotspot}) {
        const auto r = run_pattern_fault(p, 0.03, 11, 1);
        ASSERT_TRUE(r.ok()) << r.error;
        ASSERT_TRUE(r.has_faults);
        EXPECT_EQ(r.fault_injected, 16u * 60u)
            << std::string{tg::to_string(p)};
        EXPECT_EQ(r.fault_injected, r.fault_delivered +
                                        r.fault_err_delivered + r.fault_lost)
            << std::string{tg::to_string(p)};
        EXPECT_EQ(r.fault_lost, 0u) << std::string{tg::to_string(p)};
        EXPECT_GT(r.fault_retries, 0u) << std::string{tg::to_string(p)};
        EXPECT_DOUBLE_EQ(r.delivered_ratio, 1.0)
            << std::string{tg::to_string(p)};
    }
}

TEST(FaultSweep, BitIdenticalAtAnyJobsAndSeedSensitive) {
    const auto base = run_pattern_fault(tg::Pattern::Transpose, 0.03, 21, 1);
    ASSERT_TRUE(base.ok()) << base.error;
    for (const u32 jobs : {2u, 3u}) {
        const auto r = run_pattern_fault(tg::Pattern::Transpose, 0.03, 21,
                                         jobs);
        EXPECT_TRUE(sweep::bit_identical(r, base)) << "jobs=" << jobs;
    }
    // A different fault seed is a different experiment.
    const auto other = run_pattern_fault(tg::Pattern::Transpose, 0.03, 22, 1);
    EXPECT_FALSE(std::tuple(base.fault_corrupted, base.fault_dropped,
                            base.fault_stalls) ==
                 std::tuple(other.fault_corrupted, other.fault_dropped,
                            other.fault_stalls));
}

TEST(FaultSweep, FabricStringAndReportRoundTrip) {
    platform::PlatformConfig cfg;
    cfg.ic = platform::IcKind::Xpipes;
    cfg.xpipes.width = 3;
    cfg.xpipes.height = 3;
    const std::string plain = sweep::describe_fabric(cfg);
    EXPECT_EQ(plain.find("fault"), std::string::npos);
    cfg.xpipes.fault = rates(0.01, 0.01, 0.01, 9);
    const std::string faulty = sweep::describe_fabric(cfg);
    EXPECT_NE(faulty.find("fault"), std::string::npos);
    EXPECT_NE(faulty.find("seed9"), std::string::npos);

    // The reliability columns survive the report/journal row format.
    const auto r = run_pattern_fault(tg::Pattern::Neighbor, 0.03, 33, 1);
    ASSERT_TRUE(r.ok()) << r.error;
    ASSERT_TRUE(r.has_faults);
    std::string line;
    sweep::append_result_row(line, r);
    sweep::SweepResult parsed;
    std::string err;
    ASSERT_TRUE(test::parse_row(line, &parsed, &err)) << err;
    // Round trip is exact on integers and stable (to the printed
    // precision) on doubles: re-serializing the parsed row reproduces the
    // original line byte for byte — the property shard merges rely on.
    std::string line2;
    sweep::append_result_row(line2, parsed);
    EXPECT_EQ(line2, line);
    EXPECT_TRUE(parsed.has_faults);
    EXPECT_EQ(parsed.error_packets, r.error_packets);
    EXPECT_EQ(parsed.fault_injected, r.fault_injected);
    EXPECT_EQ(parsed.fault_delivered, r.fault_delivered);
    EXPECT_EQ(parsed.fault_lost, r.fault_lost);
    EXPECT_EQ(parsed.fault_retries, r.fault_retries);
    EXPECT_EQ(parsed.fault_csum_fails, r.fault_csum_fails);
    EXPECT_EQ(parsed.retry_lat_count, r.retry_lat_count);
    EXPECT_EQ(parsed.retry_lat_p99, r.retry_lat_p99);
}

TEST(FaultSweep, MetaDiffNamesTheOffendingField) {
    sweep::SweepMeta a;
    a.app = "x";
    a.n_cores = 4;
    a.seed = 1;
    sweep::SweepMeta b = a;
    EXPECT_EQ(sweep::meta_diff(a, b), "");
    EXPECT_TRUE(sweep::meta_diff(a, b).empty());
    b.seed = 2;
    EXPECT_EQ(sweep::meta_diff(a, b), "seed");
    b = a;
    b.app = "y";
    EXPECT_EQ(sweep::meta_diff(a, b), "app");
    b = a;
    b.shard.count = 3;
    EXPECT_EQ(sweep::meta_diff(a, b), "shard_count");
    EXPECT_FALSE(sweep::meta_diff(a, b).empty());
}

// --- semaphores under faults: a replayed read must not re-take the lock ---

/// MP matrix (4 CPU cores, n=16) on an auto-sized torus with payload
/// corruption and packet drops.
platform::RunResult run_mp_matrix_faulted(u64 fault_seed, bool* checks_ok,
                                          std::string* msg,
                                          stats::ReliabilityStats* rel) {
    const apps::Workload w = apps::make_mp_matrix({4, 16});
    platform::PlatformConfig cfg;
    cfg.n_cores = 4;
    cfg.ic = platform::IcKind::Xpipes;
    cfg.xpipes.topology = ic::TopologyKind::Torus;
    cfg.xpipes.fault = rates(0.002, 0.001, 0.0, fault_seed);
    platform::Platform p{cfg};
    p.load_workload(w);
    const platform::RunResult r = p.run(3'000'000);
    *checks_ok = p.run_checks(w, msg);
    const auto* mesh = dynamic_cast<const ic::XpipesNetwork*>(&p.interconnect());
    *rel = mesh->stats().reliability;
    return r;
}

TEST(FaultRecovery, ReplayedSemaphoreReadDoesNotRetakeTheLock) {
    // Fault seeds 1 and 5 lose a semaphore read's response. The slave NI
    // used to re-execute the replayed read: the test-and-set bank answered
    // 0 the second time, and the core polled forever a lock nobody held.
    for (const u64 seed : {1u, 5u}) {
        bool ok = false;
        std::string msg;
        stats::ReliabilityStats rel;
        const platform::RunResult r = run_mp_matrix_faulted(seed, &ok, &msg, &rel);
        EXPECT_TRUE(r.completed) << "fault seed " << seed;
        EXPECT_LT(r.cycles, 100'000u) << "fault seed " << seed;
        EXPECT_TRUE(ok) << "fault seed " << seed << ": " << msg;
        EXPECT_GT(rel.dup_requests, 0u) << "fault seed " << seed;
        EXPECT_EQ(rel.lost, 0u) << "fault seed " << seed;
    }
}

} // namespace
} // namespace tgsim::test
