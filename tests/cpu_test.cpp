// Unit tests for the mini-RISC: ISA encode/decode, assembler, and the
// cycle-true ISS semantics (run on a single-core platform).
#include <gtest/gtest.h>

#include "apps/apps.hpp"
#include "cpu/assembler.hpp"
#include "platform/platform.hpp"
#include "sim/rng.hpp"
#include "test_util.hpp"

namespace tgsim::test {
namespace {

using cpu::Assembler;
using cpu::Op;
using cpu::Reg;

// --- ISA encode/decode ---

TEST(Isa, DecodeRecoversRegisterFields) {
    const u32 w = cpu::encode_rrr(Op::Add, Reg::R3, Reg::R7, Reg::R12);
    const auto d = cpu::decode(w);
    EXPECT_EQ(d.op, Op::Add);
    EXPECT_EQ(d.rd, 3);
    EXPECT_EQ(d.rs, 7);
    EXPECT_EQ(d.rt, 12);
}

TEST(Isa, SignedImmediatesSignExtend) {
    const auto d = cpu::decode(cpu::encode_rri(Op::Addi, Reg::R1, Reg::R2, -5));
    EXPECT_EQ(d.imm, -5);
    const auto j = cpu::decode(cpu::encode_j(Op::J, -100));
    EXPECT_EQ(j.imm, -100);
    const auto b =
        cpu::decode(cpu::encode_branch(Op::Beq, Reg::R1, Reg::R2, -7));
    EXPECT_EQ(b.imm, -7);
}

TEST(Isa, UnsignedImmediatesZeroExtend) {
    const auto d =
        cpu::decode(cpu::encode_rri(Op::Ori, Reg::R1, Reg::R2, 0xFFFF));
    EXPECT_EQ(d.imm, 0xFFFF);
    const auto l = cpu::decode(cpu::encode_ri16(Op::Lui, Reg::R1, 0xABCD));
    EXPECT_EQ(l.imm, 0xABCD);
}

TEST(Isa, MemEncodingPlacesDataRegister) {
    const auto ld = cpu::decode(cpu::encode_mem(Op::Ld, Reg::R5, Reg::R6, 16));
    EXPECT_EQ(ld.rd, 5);
    EXPECT_EQ(ld.rs, 6);
    const auto st = cpu::decode(cpu::encode_mem(Op::St, Reg::R5, Reg::R6, 16));
    EXPECT_EQ(st.rt, 5);
    EXPECT_EQ(st.rs, 6);
}

// --- Assembler ---

TEST(Assembler, ResolvesForwardAndBackwardLabels) {
    Assembler a;
    a.bind("start");
    a.addi(Reg::R1, Reg::R1, 1);
    a.beq(Reg::R1, Reg::R2, "end"); // forward
    a.j("start");                   // backward
    a.bind("end");
    a.halt();
    const auto code = a.finish();
    ASSERT_EQ(code.size(), 4u);
    EXPECT_EQ(cpu::decode(code[1]).imm, 3 - (1 + 1)); // "end" is at word 3
    EXPECT_EQ(cpu::decode(code[2]).imm, 0 - (2 + 1)); // "start" is at word 0
}

TEST(Assembler, ErrorsOnBadInput) {
    {
        Assembler a;
        a.bind("x");
        EXPECT_THROW(a.bind("x"), std::invalid_argument);
    }
    {
        Assembler a;
        a.j("nowhere");
        EXPECT_THROW((void)a.finish(), std::invalid_argument);
    }
    {
        Assembler a;
        EXPECT_THROW(a.addi(Reg::R1, Reg::R1, 1 << 20), std::out_of_range);
        EXPECT_THROW(a.ld(Reg::R1, Reg::R2, 5000), std::out_of_range);
        EXPECT_THROW(a.movi(Reg::R1, 70000), std::out_of_range);
    }
}

TEST(Assembler, LiExpandsByConstantSize) {
    Assembler a;
    a.li(Reg::R1, 42);         // movi
    const u32 after_small = a.here();
    a.li(Reg::R2, 0x12340000); // lui only
    const u32 after_hi = a.here();
    a.li(Reg::R3, 0x12345678); // lui + ori
    const u32 after_full = a.here();
    EXPECT_EQ(after_small, 1u);
    EXPECT_EQ(after_hi - after_small, 1u);
    EXPECT_EQ(after_full - after_hi, 2u);
}

// --- ISS semantics on a 1-core platform ---

struct CpuRig {
    apps::Workload w;
    std::unique_ptr<platform::Platform> p;

    /// Assembles `body` and runs it to completion.
    void run(const std::function<void(Assembler&)>& body,
             platform::PlatformConfig cfg = {}) {
        Assembler a;
        body(a);
        apps::CoreProgram prog;
        prog.code = a.finish();
        w.cores = {prog};
        cfg.n_cores = 1;
        p = std::make_unique<platform::Platform>(cfg);
        p->load_workload(w);
        const auto res = p->run(1'000'000);
        ASSERT_TRUE(res.completed) << "program did not halt";
    }
    [[nodiscard]] u32 reg(Reg r) const { return p->core(0).reg(r); }
    [[nodiscard]] Cycle cycles() const { return p->core(0).halt_cycle(); }
};

TEST(CpuExec, AluRegisterOps) {
    CpuRig rig;
    rig.run([](Assembler& a) {
        a.movi(Reg::R1, 100);
        a.movi(Reg::R2, 7);
        a.add(Reg::R3, Reg::R1, Reg::R2);
        a.sub(Reg::R4, Reg::R1, Reg::R2);
        a.and_(Reg::R5, Reg::R1, Reg::R2);
        a.or_(Reg::R6, Reg::R1, Reg::R2);
        a.xor_(Reg::R7, Reg::R1, Reg::R2);
        a.mul(Reg::R8, Reg::R1, Reg::R2);
        a.slt(Reg::R9, Reg::R2, Reg::R1);
        a.sltu(Reg::R10, Reg::R1, Reg::R2);
        a.halt();
    });
    EXPECT_EQ(rig.reg(Reg::R3), 107u);
    EXPECT_EQ(rig.reg(Reg::R4), 93u);
    EXPECT_EQ(rig.reg(Reg::R5), 100u & 7u);
    EXPECT_EQ(rig.reg(Reg::R6), 100u | 7u);
    EXPECT_EQ(rig.reg(Reg::R7), 100u ^ 7u);
    EXPECT_EQ(rig.reg(Reg::R8), 700u);
    EXPECT_EQ(rig.reg(Reg::R9), 1u);
    EXPECT_EQ(rig.reg(Reg::R10), 0u);
}

TEST(CpuExec, ShiftsAndSignedCompares) {
    CpuRig rig;
    rig.run([](Assembler& a) {
        a.movi(Reg::R1, -8);
        a.movi(Reg::R2, 2);
        a.sll(Reg::R3, Reg::R1, Reg::R2);
        a.srl(Reg::R4, Reg::R1, Reg::R2);
        a.sra(Reg::R5, Reg::R1, Reg::R2);
        a.slt(Reg::R6, Reg::R1, Reg::R0); // -8 < 0 signed
        a.sltu(Reg::R7, Reg::R1, Reg::R0); // huge unsigned, not < 0
        a.srai(Reg::R8, Reg::R1, 1);
        a.halt();
    });
    EXPECT_EQ(rig.reg(Reg::R3), static_cast<u32>(-8) << 2);
    EXPECT_EQ(rig.reg(Reg::R4), static_cast<u32>(-8) >> 2);
    EXPECT_EQ(rig.reg(Reg::R5), static_cast<u32>(-2));
    EXPECT_EQ(rig.reg(Reg::R6), 1u);
    EXPECT_EQ(rig.reg(Reg::R7), 0u);
    EXPECT_EQ(rig.reg(Reg::R8), static_cast<u32>(-4));
}

TEST(CpuExec, R0IsHardwiredZero) {
    CpuRig rig;
    rig.run([](Assembler& a) {
        a.movi(Reg::R0, 55);
        a.addi(Reg::R0, Reg::R0, 9);
        a.add(Reg::R1, Reg::R0, Reg::R0);
        a.halt();
    });
    EXPECT_EQ(rig.reg(Reg::R0), 0u);
    EXPECT_EQ(rig.reg(Reg::R1), 0u);
}

TEST(CpuExec, LoadStorePrivateRoundTrip) {
    CpuRig rig;
    const u32 buf = platform::priv_base(0) + platform::kPrivScratch;
    rig.run([buf](Assembler& a) {
        a.li(Reg::R1, buf);
        a.movi(Reg::R2, 1234);
        a.st(Reg::R2, Reg::R1, 0);
        a.st(Reg::R2, Reg::R1, 8);
        a.ld(Reg::R3, Reg::R1, 0);
        a.ld(Reg::R4, Reg::R1, 8);
        a.halt();
    });
    EXPECT_EQ(rig.reg(Reg::R3), 1234u);
    EXPECT_EQ(rig.reg(Reg::R4), 1234u);
    // Write-through: the value must be in backing memory, not only cache.
    EXPECT_EQ(rig.p->private_mem(0).peek(buf), 1234u);
}

TEST(CpuExec, SharedMemoryIsUncachedButCorrect) {
    CpuRig rig;
    const u32 buf = platform::kSharedBase + 0x100;
    rig.run([buf](Assembler& a) {
        a.li(Reg::R1, buf);
        a.movi(Reg::R2, -77);
        a.st(Reg::R2, Reg::R1, 0);
        a.ld(Reg::R3, Reg::R1, 0);
        a.halt();
    });
    EXPECT_EQ(rig.reg(Reg::R3), static_cast<u32>(-77));
    EXPECT_EQ(rig.p->core(0).dcache().hits() + rig.p->core(0).dcache().misses(),
              0u); // never consulted for shared addresses
}

TEST(CpuExec, SemaphoreLoadAcquires) {
    CpuRig rig;
    rig.run([](Assembler& a) {
        a.li(Reg::R1, platform::sem_addr(5));
        a.ld(Reg::R2, Reg::R1, 0); // acquire: 1
        a.ld(Reg::R3, Reg::R1, 0); // busy: 0
        a.halt();
    });
    EXPECT_EQ(rig.reg(Reg::R2), 1u);
    EXPECT_EQ(rig.reg(Reg::R3), 0u);
}

TEST(CpuExec, BranchesAndJumps) {
    CpuRig rig;
    rig.run([](Assembler& a) {
        a.movi(Reg::R1, 0);
        a.movi(Reg::R2, 5);
        a.bind("loop");
        a.addi(Reg::R1, Reg::R1, 1);
        a.blt(Reg::R1, Reg::R2, "loop");
        a.jal("sub");
        a.movi(Reg::R4, 99);
        a.halt();
        a.bind("sub");
        a.movi(Reg::R3, 42);
        a.jr(Reg::R15);
    });
    EXPECT_EQ(rig.reg(Reg::R1), 5u);
    EXPECT_EQ(rig.reg(Reg::R3), 42u);
    EXPECT_EQ(rig.reg(Reg::R4), 99u);
}

TEST(CpuExec, BgeHandlesNegative) {
    CpuRig rig;
    rig.run([](Assembler& a) {
        a.movi(Reg::R1, -3);
        a.movi(Reg::R2, 1);
        a.bge(Reg::R1, Reg::R0, "skip"); // -3 >= 0 is false
        a.movi(Reg::R2, 2);
        a.bind("skip");
        a.halt();
    });
    EXPECT_EQ(rig.reg(Reg::R2), 2u);
}

TEST(CpuExec, SingleCycleAluThroughput) {
    // CPI pin via a warm loop (identical I$ footprint for both runs): each
    // extra iteration of `addi; bne taken` costs exactly 1 + (1+penalty) = 3
    // cycles with the default taken-branch penalty of 1.
    const auto measure = [](u32 iters) {
        CpuRig rig;
        rig.run([iters](Assembler& a) {
            a.li(Reg::R1, iters);
            a.bind("loop");
            a.addi(Reg::R1, Reg::R1, -1);
            a.bne(Reg::R1, Reg::R0, "loop");
            a.halt();
        });
        return rig.cycles();
    };
    EXPECT_EQ(measure(2000) - measure(1000), 3000u);
}

TEST(CpuExec, MulStallCostsExtraCycles) {
    const auto measure = [](bool muls) {
        CpuRig rig;
        rig.run([muls](Assembler& a) {
            a.movi(Reg::R1, 3);
            for (u32 i = 0; i < 8; ++i) {
                if (muls)
                    a.mul(Reg::R2, Reg::R1, Reg::R1);
                else
                    a.add(Reg::R2, Reg::R1, Reg::R1);
            }
            a.halt();
        });
        return rig.cycles();
    };
    // Default mul_extra = 2: each MUL costs 2 extra cycles.
    EXPECT_EQ(measure(true) - measure(false), 8u * 2u);
}

TEST(CpuExec, TakenBranchPenaltyPinned) {
    // A taken branch costs 1 + branch_taken_extra cycles; not-taken costs 1.
    const auto measure = [](bool taken) {
        CpuRig rig;
        rig.run([taken](Assembler& a) {
            a.movi(Reg::R1, 1);
            for (u32 i = 0; i < 10; ++i) {
                if (taken) {
                    // Left-to-right build dodges GCC 12's -Wrestrict false
                    // positive on operator+(const char*, string&&).
                    std::string label{"t"};
                    label += std::to_string(i);
                    a.beq(Reg::R0, Reg::R0, label);
                    a.bind(label);
                } else {
                    a.beq(Reg::R1, Reg::R0, "never");
                }
            }
            a.bind("never");
            a.halt();
        });
        return rig.cycles();
    };
    EXPECT_EQ(measure(true) - measure(false), 10u);
}

TEST(CpuExec, CacheRefillsGoThroughBus) {
    CpuRig rig;
    const u32 buf = platform::priv_base(0) + platform::kPrivScratch;
    rig.run([buf](Assembler& a) {
        a.li(Reg::R1, buf);
        a.ld(Reg::R2, Reg::R1, 0);  // miss: 4-beat refill
        a.ld(Reg::R3, Reg::R1, 4);  // same line: hit
        a.ld(Reg::R4, Reg::R1, 12); // same line: hit
        a.ld(Reg::R5, Reg::R1, 64); // different line: miss
        a.halt();
    });
    const auto& d = rig.p->core(0).dcache();
    EXPECT_EQ(d.misses(), 2u);
    EXPECT_EQ(d.hits(), 2u);
}

TEST(CpuExec, InstructionCountMatchesStats) {
    CpuRig rig;
    rig.run([](Assembler& a) {
        for (int i = 0; i < 17; ++i) a.nop();
        a.halt();
    });
    EXPECT_EQ(rig.p->core(0).stats().instructions, 18u); // 17 nops + halt
}

// --- Parking on the fabric ---

/// Never parks; counts the cycles in which its kernel held a component
/// parked while `core` had not halted. Register it last, at the observer
/// stage, so it samples after the core parks or wakes.
class RunningParkCounter final : public sim::Clocked {
public:
    RunningParkCounter(const sim::Kernel& kernel, const cpu::CpuCore& core)
        : kernel_(kernel), core_(core) {}
    void eval() override {
        if (!core_.done() && kernel_.parked_count() > 0) ++cycles;
    }
    void update() override {}

    u64 cycles = 0;

private:
    const sim::Kernel& kernel_;
    const cpu::CpuCore& core_;
};

TEST(CpuCore, ParksWhileTheFabricHoldsItsRequestAndCountsEveryCycle) {
    // Gated, the core parks in MemWait while the slave neither accepts nor
    // responds, and wakes in the cycle it does; it must not park on a beat,
    // as the next identical beat comes without a bump. Every fetch is a
    // held burst refill; the program holds an uncached load, then a data
    // refill whose last three beats are one held word.
    constexpr u32 kUncached = 0x2000;
    constexpr u32 kLine = 0x800;
    Assembler a;
    a.li(Reg::R1, kUncached);
    a.ld(Reg::R2, Reg::R1, 0);
    a.li(Reg::R3, kLine);
    a.ld(Reg::R4, Reg::R3, 8);
    a.add(Reg::R5, Reg::R2, Reg::R4);
    a.halt();
    std::vector<u32> words = a.finish();
    words.resize(kUncached / 4 + 1);
    words[kUncached / 4] = 0x1200;
    for (u32 i = 0; i < 4; ++i) words[kLine / 4 + i] = i == 0 ? 7 : 0x34;

    struct Out {
        Cycle halt = 0;
        std::vector<u32> regs;
        std::vector<u64> stats;
        u64 parked_cycles = 0; ///< before the halt
    };
    const auto run = [&words](bool gating) {
        sim::Kernel kernel;
        kernel.set_gating(gating);
        ocp::Channel ch;
        cpu::CpuConfig cfg;
        cfg.cacheable = {{0, 0x1000}};
        cpu::CpuCore core{ch, cfg};
        SlowMemory slave{ch, words, 5};
        RunningParkCounter parked{kernel, core};
        kernel.add(core, sim::kStageMaster);
        kernel.add(slave, sim::kStageSlave);
        kernel.add(parked, sim::kStageObserver);
        core.reset(0);
        // A coarse poll: parked components are settled only at a poll.
        EXPECT_TRUE(kernel.run_until([&] { return core.done(); }, 10'000, 64));
        Out out;
        out.halt = core.halt_cycle();
        for (u8 r = 0; r < cpu::kNumRegs; ++r)
            out.regs.push_back(core.reg(static_cast<Reg>(r)));
        const cpu::CpuStats& st = core.stats();
        out.stats = {st.instructions,  st.loads,           st.stores,
                     st.stall_cycles, st.mem_wait_cycles, st.bus_errors};
        out.parked_cycles = parked.cycles;
        return out;
    };
    const Out gated = run(true);
    const Out clocked = run(false);
    // Only the core can park; it parks on the fabric alone (no stalls).
    EXPECT_EQ(gated.stats[3], 0u);
    EXPECT_GT(gated.parked_cycles, 30u);
    EXPECT_LT(gated.parked_cycles, gated.stats[4]);
    EXPECT_EQ(clocked.parked_cycles, 0u);
    EXPECT_EQ(gated.regs[5], 0x1234u);
    EXPECT_EQ(gated.halt, clocked.halt);
    EXPECT_EQ(gated.regs, clocked.regs);
    EXPECT_EQ(gated.stats, clocked.stats);
    EXPECT_GT(gated.stats[4], 30u); // mem_wait_cycles
}

// --- Cache unit behaviour ---

TEST(Cache, DirectMappedConflictEviction) {
    cpu::DirectCache c{{4, 8}}; // 8 lines of 16 bytes -> 128-byte stride
    const std::vector<u32> line{1, 2, 3, 4};
    c.fill(0x1000, line);
    EXPECT_TRUE(c.present(0x1000));
    c.fill(0x1000 + 128, line); // same index, different tag
    EXPECT_FALSE(c.present(0x1000));
    EXPECT_TRUE(c.present(0x1000 + 128));
}

TEST(Cache, WriteIfPresentOnlyUpdatesResident) {
    cpu::DirectCache c{{4, 8}};
    const std::vector<u32> line{1, 2, 3, 4};
    c.fill(0x0, line);
    EXPECT_TRUE(c.write_if_present(0x4, 99));
    EXPECT_EQ(c.read(0x4), 99u);
    EXPECT_FALSE(c.write_if_present(0x200, 5));
}

TEST(Cache, RejectsBadGeometry) {
    EXPECT_THROW((cpu::DirectCache{{3, 8}}), std::invalid_argument);
    EXPECT_THROW((cpu::DirectCache{{4, 0}}), std::invalid_argument);
}

// A refill is one OCP burst: a line longer than ocp::kMaxBurstLen words
// would be cut short by the fabric (and past 65535 words wrap the 16-bit
// burst count), so the core refuses it.
TEST(Cache, CoreRejectsLinesLongerThanABurst) {
    ocp::Channel ch;
    cpu::CpuConfig cfg;
    cfg.icache.line_words = ocp::kMaxBurstLen;
    cfg.dcache.line_words = ocp::kMaxBurstLen;
    EXPECT_NO_THROW((cpu::CpuCore{ch, cfg}));
    cfg.icache.line_words = 2 * ocp::kMaxBurstLen;
    EXPECT_THROW((cpu::CpuCore{ch, cfg}), std::invalid_argument);
    cfg.icache.line_words = ocp::kMaxBurstLen;
    cfg.dcache.line_words = 2 * ocp::kMaxBurstLen;
    EXPECT_THROW((cpu::CpuCore{ch, cfg}), std::invalid_argument);
}

} // namespace
} // namespace tgsim::test
