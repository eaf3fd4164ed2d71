// The traffic-generator processor (paper Sec. 4).
//
// A multi-cycle processor with an instruction memory (the assembled binary
// image), a 16-entry register file and no data memory. Executes one
// instruction per cycle; OCP instructions occupy the master port until the
// transaction completes (accept for posted writes, last response beat for
// blocking reads); Idle(n) stalls for n cycles. r0 (`rdreg`) receives the
// data of every read.
//
// The port is ocp::MasterPort, the same one the CPU model drives, so a TG
// replaces the CPU at an identical interface. TgCore keeps only the ISA and
// the idle timing; step() below is the TG interpreter.
//
// The deliberate simplicity — no fetch pipeline, no caches, no ALU — is the
// source of the paper's simulation speedup: emulating a core costs a few
// comparisons per cycle instead of a full ISS step.
#pragma once

#include <array>
#include <vector>

#include "ocp/master_port.hpp"
#include "sim/kernel.hpp"
#include "tg/tg_isa.hpp"

namespace tgsim::tg {

struct TgStats {
    u64 instructions = 0;
    u64 ocp_reads = 0;
    u64 ocp_writes = 0;
    u64 idle_cycles = 0;
    u64 mem_wait_cycles = 0;
    u64 bus_errors = 0;
};

/// The state one TG program runs on: its instruction memory (the binary
/// image), register file and program counter. TgCore runs one context
/// through step().
struct TgContext {
    std::vector<u32> image;
    std::array<u32, kTgNumRegs> regs{};
    u32 pc = 0;
};

/// What one instruction asks of the core that executes it.
struct TgStep {
    enum class Kind : u8 {
        Next, ///< go on with the next instruction next cycle
        Idle, ///< Idle(n), or an IdleUntil whose target lies ahead
        Mem,  ///< an OCP transaction was issued on the port
        Halt,
    };
    Kind kind = Kind::Next;
    u64 idle = 0; ///< Idle: cycles to stay idle after this one
};

/// Executes the instruction at ctx.pc, which must lie inside the image, in
/// the update of 0-based tick `now`. OCP instructions issue on `port`.
/// Inline: it is the TG's per-instruction hot path.
inline TgStep step(TgContext& ctx, ocp::MasterPort& port, Cycle now) {
    const std::vector<u32>& image = ctx.image;
    u32& pc = ctx.pc;
    const TgWord0 w = decode_w0(image[pc]);
    const u16 burst = static_cast<u16>(w.imm12 == 0 ? 1 : w.imm12);
    switch (w.op) {
        case TgOp::SetRegister:
            ctx.regs[w.a] = image[pc + 1];
            pc += 2;
            break;
        case TgOp::Idle: {
            const u32 n = image[pc + 1];
            pc += 2;
            return {TgStep::Kind::Idle, n > 1 ? n - 1 : 0};
        }
        case TgOp::IdleUntil: {
            const u64 target = image[pc + 1];
            pc += 2;
            if (target <= now) break;
            return {TgStep::Kind::Idle, target - now};
        }
        case TgOp::Read:
            port.issue(ocp::Cmd::Read, ctx.regs[w.a]);
            pc += 1;
            return {TgStep::Kind::Mem};
        case TgOp::BurstRead:
            port.issue(ocp::Cmd::BurstRead, ctx.regs[w.a], burst);
            pc += 1;
            return {TgStep::Kind::Mem};
        case TgOp::Write:
            port.issue(ocp::Cmd::Write, ctx.regs[w.a], 1, ctx.regs[w.b]);
            pc += 1;
            return {TgStep::Kind::Mem};
        case TgOp::BurstWrite: // the beats follow inline in the image
            port.issue(ocp::Cmd::BurstWrite, ctx.regs[w.a], burst, 0,
                       image.data() + pc + 1);
            pc += 1 + w.imm12;
            return {TgStep::Kind::Mem};
        case TgOp::If:
            pc = compare(w.cmp, ctx.regs[w.a], ctx.regs[w.b]) ? image[pc + 1] : pc + 2;
            break;
        case TgOp::IfImm:
            pc = compare(w.cmp, ctx.regs[w.a], image[pc + 1]) ? image[pc + 2] : pc + 3;
            break;
        case TgOp::Jump:
            pc = image[pc + 1];
            break;
        case TgOp::Halt:
            return {TgStep::Kind::Halt};
    }
    return {};
}

/// Samples `port` for the context's in-flight transaction; a completed
/// read leaves its last beat in rdreg.
inline ocp::Beat sample(TgContext& ctx, ocp::MasterPort& port) {
    const ocp::Beat b = port.sample();
    if (b.done && b.resp) ctx.regs[kRdReg] = b.data;
    return b;
}

class TgCore final : public sim::Clocked {
public:
    explicit TgCore(ocp::ChannelRef channel) : port_(channel) {}

    /// Loads a binary image (see tg/program.hpp) and resets.
    void load(std::vector<u32> image);
    /// Preloads the register file (REGISTER directives).
    void preset_reg(u8 reg, u32 value) {
        if (reg < kTgNumRegs) ctx_.regs[reg] = value;
    }
    void reset();

    void eval() override { port_.drive(); }
    void update() override;
    [[nodiscard]] Cycle quiet_for() const override;
    void advance(Cycle cycles) override;
    /// Only MemWait parks on an input: the port's slave side.
    void watch_inputs(std::vector<sim::WatchRange>& out) const override {
        port_.watch_slave(out);
    }

    [[nodiscard]] bool done() const noexcept { return state_ == State::Halted; }
    [[nodiscard]] Cycle halt_cycle() const noexcept { return halt_cycle_; }
    [[nodiscard]] const TgStats& stats() const noexcept { return stats_; }
    [[nodiscard]] u32 reg(u8 index) const noexcept { return ctx_.regs.at(index); }
    [[nodiscard]] u32 pc() const noexcept { return ctx_.pc; }

private:
    enum class State : u8 { Run, Idle, MemWait, Halted };

    void exec_one();

    ocp::MasterPort port_;
    TgContext ctx_;
    State state_ = State::Halted;
    u64 idle_left_ = 0;

    Cycle cycle_ = 0;
    Cycle halt_cycle_ = 0;
    TgStats stats_;
};

} // namespace tgsim::tg
