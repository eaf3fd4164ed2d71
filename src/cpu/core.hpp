// In-order single-pipeline mini-RISC core (the platform's "ARM" stand-in).
//
// The core executes one instruction per cycle when everything hits in the
// caches; instruction fetch goes through the I-cache and data accesses to
// cacheable regions through the D-cache, both refilling with OCP burst reads
// over the core's single master port. Loads are blocking; stores are posted
// (the core resumes at command accept). Non-cacheable regions (shared memory,
// semaphores) are accessed with single OCP transactions.
//
// The core exposes done()/halt_cycle() so the platform can implement the
// paper's "cumulative execution time" metric, and its traffic is observed
// externally by a ChannelMonitor — the same attach point used for TGs.
//
// The OCP protocol itself is ocp::MasterPort, the port the TG cores drive
// too; CpuCore keeps its caches and what each transaction is for (MemOp).
#pragma once

#include <array>
#include <vector>

#include "cpu/cache.hpp"
#include "cpu/isa.hpp"
#include "ocp/master_port.hpp"
#include "sim/kernel.hpp"

namespace tgsim::cpu {

struct CpuTiming {
    u32 mul_extra = 2;          ///< extra stall cycles for MUL
    u32 branch_taken_extra = 1; ///< pipeline bubble on a taken branch/jump
};

struct AddrRange {
    u32 base = 0;
    u32 size = 0;
    [[nodiscard]] bool contains(u32 addr) const noexcept {
        return addr >= base && addr - base < size;
    }
};

struct CpuConfig {
    u32 core_id = 0;
    /// line_words at most ocp::kMaxBurstLen: a refill is one burst.
    CacheConfig icache{};
    CacheConfig dcache{};
    CpuTiming timing{};
    /// Regions the caches are allowed to hold (typically the core's private
    /// memory). Everything else is accessed uncached.
    std::vector<AddrRange> cacheable;
};

struct CpuStats {
    u64 instructions = 0;
    u64 loads = 0;
    u64 stores = 0;
    u64 stall_cycles = 0;    ///< multi-cycle-op and branch bubbles
    u64 mem_wait_cycles = 0; ///< cycles blocked on the OCP port
    u64 bus_errors = 0;
};

class CpuCore final : public sim::Clocked {
public:
    CpuCore(ocp::ChannelRef channel, CpuConfig cfg);

    /// Starts execution at the given byte address (must be word aligned).
    void reset(u32 entry_addr);

    void eval() override { port_.drive(); }
    void update() override;
    [[nodiscard]] Cycle quiet_for() const override;
    void advance(Cycle cycles) override;
    /// Only MemWait parks on an input: the port's slave side.
    void watch_inputs(std::vector<sim::WatchRange>& out) const override {
        port_.watch_slave(out);
    }

    [[nodiscard]] bool done() const noexcept { return state_ == State::Halted; }
    /// Cycle count at which HALT completed (valid once done()).
    [[nodiscard]] Cycle halt_cycle() const noexcept { return halt_cycle_; }

    [[nodiscard]] const CpuStats& stats() const noexcept { return stats_; }
    [[nodiscard]] const DirectCache& icache() const noexcept { return icache_; }
    [[nodiscard]] const DirectCache& dcache() const noexcept { return dcache_; }
    [[nodiscard]] u32 core_id() const noexcept { return cfg_.core_id; }

    /// Register inspection (tests and diagnostics).
    [[nodiscard]] u32 reg(Reg r) const noexcept { return regs_[u8(r)]; }
    void set_reg(Reg r, u32 v) noexcept {
        if (r != Reg::R0) regs_[u8(r)] = v;
    }
    /// Current program counter as a byte address.
    [[nodiscard]] u32 pc() const noexcept { return pc_word_ * 4u; }

private:
    enum class State : u8 { Run, Stall, MemWait, Halted };
    enum class MemOp : u8 { None, IFetch, LoadRefill, LoadUncached, Store };

    void execute_one();
    void execute(const DecodedInstr& d);
    void mem_progress();
    void start(MemOp kind, ocp::Cmd cmd, u32 addr, u16 burst, u32 data = 0);
    void write_reg(u8 idx, u32 value) noexcept {
        if (idx != 0) regs_[idx] = value;
    }
    [[nodiscard]] bool cacheable(u32 addr) const noexcept;
    void advance(u32 extra_stall) noexcept;

    ocp::MasterPort port_;
    CpuConfig cfg_;
    DirectCache icache_;
    DirectCache dcache_;

    std::array<u32, kNumRegs> regs_{};
    u32 pc_word_ = 0;

    State state_ = State::Halted;
    u32 stall_left_ = 0;

    // In-flight OCP transaction: what it is for, and its response beats.
    MemOp memop_ = MemOp::None;
    u8 pending_rd_ = 0;  ///< destination register of an in-flight load
    u32 pending_addr_ = 0;

    Cycle cycle_ = 0;
    Cycle halt_cycle_ = 0;
    CpuStats stats_;
    /// Last: the per-cycle fields above share cache lines without it.
    std::array<u32, ocp::kMaxBurstLen> line_{}; ///< response beats
};

} // namespace tgsim::cpu
