#include "cpu/core.hpp"

#include <span>
#include <stdexcept>

namespace tgsim::cpu {

CpuCore::CpuCore(ocp::ChannelRef channel, CpuConfig cfg)
    : port_(channel), cfg_(std::move(cfg)), icache_(cfg_.icache), dcache_(cfg_.dcache) {
    // A refill is one burst read of a whole line.
    if (cfg_.icache.line_words > ocp::kMaxBurstLen ||
        cfg_.dcache.line_words > ocp::kMaxBurstLen)
        throw std::invalid_argument{"CpuCore: cache line longer than an OCP burst"};
}

void CpuCore::reset(u32 entry_addr) {
    regs_.fill(0);
    pc_word_ = entry_addr / 4u;
    state_ = State::Run;
    stall_left_ = 0;
    memop_ = MemOp::None;
    cycle_ = 0;
    halt_cycle_ = 0;
    stats_ = CpuStats{};
    icache_.invalidate_all();
    dcache_.invalidate_all();
    port_.reset();
}

bool CpuCore::cacheable(u32 addr) const noexcept {
    for (const AddrRange& r : cfg_.cacheable)
        if (r.contains(addr)) return true;
    return false;
}

Cycle CpuCore::quiet_for() const {
    // Waiting on the fabric: quiet while the request (or the response wait)
    // stays on the wires and nothing has come back; the port's s_gen watch
    // wakes the core in the cycle the fabric answers.
    if (state_ == State::MemWait) return port_.waiting() ? sim::kQuietForever : 0;
    if (!port_.idle()) return 0; // wires not settled
    if (state_ == State::Halted) return sim::kQuietForever;
    if (state_ == State::Stall) return stall_left_ - 1;
    return 0;
}

void CpuCore::advance(Cycle cycles) {
    cycle_ += cycles;
    if (state_ == State::Stall) {
        stall_left_ -= static_cast<u32>(cycles);
        stats_.stall_cycles += cycles;
    } else if (state_ == State::MemWait) {
        stats_.mem_wait_cycles += cycles;
    }
}

void CpuCore::update() {
    ++cycle_;
    switch (state_) {
        case State::Halted:
            break;
        case State::Stall:
            ++stats_.stall_cycles;
            if (--stall_left_ == 0) state_ = State::Run;
            break;
        case State::MemWait:
            ++stats_.mem_wait_cycles;
            mem_progress();
            break;
        case State::Run:
            execute_one();
            break;
    }
}

void CpuCore::advance(u32 extra_stall) noexcept {
    if (extra_stall > 0) {
        state_ = State::Stall;
        stall_left_ = extra_stall;
    }
}

void CpuCore::start(MemOp kind, ocp::Cmd cmd, u32 addr, u16 burst, u32 data) {
    port_.issue(cmd, addr, burst, data);
    memop_ = kind;
    state_ = State::MemWait;
}

void CpuCore::execute_one() {
    const u32 fetch_addr = pc_word_ * 4u;
    if (!icache_.lookup(fetch_addr)) {
        start(MemOp::IFetch, ocp::Cmd::BurstRead, icache_.line_base(fetch_addr),
              static_cast<u16>(icache_.config().line_words));
        return;
    }
    execute(decode(icache_.read(fetch_addr)));
}

void CpuCore::execute(const DecodedInstr& d) {
    ++stats_.instructions;
    const u32 a = regs_[d.rs];
    const u32 b = regs_[d.rt];
    const auto next = [this] { ++pc_word_; };
    switch (d.op) {
        case Op::Add: write_reg(d.rd, a + b); next(); break;
        case Op::Sub: write_reg(d.rd, a - b); next(); break;
        case Op::And: write_reg(d.rd, a & b); next(); break;
        case Op::Or: write_reg(d.rd, a | b); next(); break;
        case Op::Xor: write_reg(d.rd, a ^ b); next(); break;
        case Op::Sll: write_reg(d.rd, a << (b & 31u)); next(); break;
        case Op::Srl: write_reg(d.rd, a >> (b & 31u)); next(); break;
        case Op::Sra:
            write_reg(d.rd, static_cast<u32>(static_cast<i32>(a) >> (b & 31u)));
            next();
            break;
        case Op::Mul:
            write_reg(d.rd, a * b);
            next();
            advance(cfg_.timing.mul_extra);
            break;
        case Op::Slt:
            write_reg(d.rd, static_cast<i32>(a) < static_cast<i32>(b) ? 1u : 0u);
            next();
            break;
        case Op::Sltu: write_reg(d.rd, a < b ? 1u : 0u); next(); break;

        case Op::Addi: write_reg(d.rd, a + static_cast<u32>(d.imm)); next(); break;
        case Op::Andi: write_reg(d.rd, a & static_cast<u32>(d.imm)); next(); break;
        case Op::Ori: write_reg(d.rd, a | static_cast<u32>(d.imm)); next(); break;
        case Op::Xori: write_reg(d.rd, a ^ static_cast<u32>(d.imm)); next(); break;
        case Op::Slli: write_reg(d.rd, a << (static_cast<u32>(d.imm) & 31u)); next(); break;
        case Op::Srli: write_reg(d.rd, a >> (static_cast<u32>(d.imm) & 31u)); next(); break;
        case Op::Srai:
            write_reg(d.rd, static_cast<u32>(static_cast<i32>(a) >>
                                             (static_cast<u32>(d.imm) & 31u)));
            next();
            break;
        case Op::Slti:
            write_reg(d.rd, static_cast<i32>(a) < d.imm ? 1u : 0u);
            next();
            break;

        case Op::Movi: write_reg(d.rd, static_cast<u32>(d.imm)); next(); break;
        case Op::Lui: write_reg(d.rd, static_cast<u32>(d.imm) << 16); next(); break;

        case Op::Ld: {
            ++stats_.loads;
            const u32 addr = a + static_cast<u32>(d.imm);
            pending_rd_ = d.rd;
            pending_addr_ = addr;
            if (cacheable(addr)) {
                if (dcache_.lookup(addr)) {
                    write_reg(d.rd, dcache_.read(addr));
                    next();
                } else {
                    start(MemOp::LoadRefill, ocp::Cmd::BurstRead, dcache_.line_base(addr),
                          static_cast<u16>(dcache_.config().line_words));
                }
            } else {
                start(MemOp::LoadUncached, ocp::Cmd::Read, addr, 1);
            }
            break;
        }
        case Op::St: {
            ++stats_.stores;
            const u32 addr = a + static_cast<u32>(d.imm);
            const u32 value = b;
            if (cacheable(addr)) dcache_.write_if_present(addr, value);
            start(MemOp::Store, ocp::Cmd::Write, addr, 1, value);
            break;
        }

        case Op::Beq:
        case Op::Bne:
        case Op::Blt:
        case Op::Bge: {
            bool taken = false;
            switch (d.op) {
                case Op::Beq: taken = a == b; break;
                case Op::Bne: taken = a != b; break;
                case Op::Blt: taken = static_cast<i32>(a) < static_cast<i32>(b); break;
                default: taken = static_cast<i32>(a) >= static_cast<i32>(b); break;
            }
            if (taken) {
                pc_word_ = static_cast<u32>(static_cast<i64>(pc_word_) + 1 + d.imm);
                advance(cfg_.timing.branch_taken_extra);
            } else {
                ++pc_word_;
            }
            break;
        }
        case Op::J:
            pc_word_ = static_cast<u32>(static_cast<i64>(pc_word_) + 1 + d.imm);
            advance(cfg_.timing.branch_taken_extra);
            break;
        case Op::Jal:
            write_reg(u8(kLr), pc_word_ + 1);
            pc_word_ = static_cast<u32>(static_cast<i64>(pc_word_) + 1 + d.imm);
            advance(cfg_.timing.branch_taken_extra);
            break;
        case Op::Jr:
            pc_word_ = a;
            advance(cfg_.timing.branch_taken_extra);
            break;

        case Op::Nop: next(); break;
        case Op::Halt:
            state_ = State::Halted;
            halt_cycle_ = cycle_;
            break;
    }
}

void CpuCore::mem_progress() {
    const ocp::Beat b = port_.sample();
    if (b.err) ++stats_.bus_errors;
    if (b.resp) line_[b.index] = b.data;
    if (!b.done) return;

    const std::span<const u32> line{line_.data(), port_.burst()};
    switch (memop_) {
        case MemOp::IFetch:
            icache_.fill(port_.addr(), line);
            // pc unchanged: the fetch retries next cycle and hits.
            break;
        case MemOp::LoadRefill:
            dcache_.fill(port_.addr(), line);
            write_reg(pending_rd_, line_[(pending_addr_ - port_.addr()) / 4u]);
            ++pc_word_;
            break;
        case MemOp::LoadUncached:
            write_reg(pending_rd_, line_[0]);
            ++pc_word_;
            break;
        case MemOp::Store: // posted: complete at command accept
            ++pc_word_;
            break;
        case MemOp::None:
            break;
    }
    memop_ = MemOp::None;
    state_ = State::Run;
}

} // namespace tgsim::cpu
