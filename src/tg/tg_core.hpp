// The traffic-generator processor (paper Sec. 4).
//
// A multi-cycle processor with an instruction memory (the assembled binary
// image), a 16-entry register file and no data memory. Executes one
// instruction per cycle; OCP instructions occupy the master port until the
// transaction completes (accept for posted writes, last response beat for
// blocking reads); Idle(n) stalls for n cycles. r0 (`rdreg`) receives the
// data of every read.
//
// The deliberate simplicity — no fetch pipeline, no caches, no ALU — is the
// source of the paper's simulation speedup: emulating a core costs a few
// comparisons per cycle instead of a full ISS step.
#pragma once

#include <array>
#include <vector>

#include "ocp/channel.hpp"
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

class TgCore final : public sim::Clocked {
public:
    explicit TgCore(ocp::ChannelRef channel) : ch_(channel) {}

    /// Loads a binary image (see tg/program.hpp) and resets.
    void load(std::vector<u32> image);
    /// Preloads the register file (REGISTER directives).
    void preset_reg(u8 reg, u32 value) {
        if (reg < kTgNumRegs) regs_[reg] = value;
    }
    void reset();

    void eval() override;
    void update() override;
    [[nodiscard]] Cycle quiet_for() const override;
    void advance(Cycle cycles) override;
    /// The channel's s_gen, as a same-cycle watch: eval() reads no wire.
    void watch_inputs(std::vector<sim::WatchRange>& out) const override;

    [[nodiscard]] bool done() const noexcept { return state_ == State::Halted; }
    [[nodiscard]] Cycle halt_cycle() const noexcept { return halt_cycle_; }
    [[nodiscard]] const TgStats& stats() const noexcept { return stats_; }
    [[nodiscard]] u32 reg(u8 index) const noexcept { return regs_.at(index); }
    [[nodiscard]] u32 pc() const noexcept { return pc_; }

private:
    enum class State : u8 { Run, Idle, MemWait, Halted };

    void exec_one();
    void mem_progress();

    ocp::ChannelRef ch_;
    std::vector<u32> image_;
    std::array<u32, kTgNumRegs> regs_{};
    u32 pc_ = 0;
    State state_ = State::Halted;
    u64 idle_left_ = 0;

    struct Request {
        bool active = false;
        bool accepted = false;
        ocp::Cmd cmd = ocp::Cmd::Idle;
        u32 addr = 0;
        u16 burst = 1;
        u16 wbeats_done = 0; ///< accepted write beats
        u32 wdata_base = 0;  ///< image index of inline burst data
        u16 rbeats = 0;      ///< response beats received
        u32 last_data = 0;
    };
    Request req_;
    u32 single_wdata_ = 0; ///< data of an in-flight single Write

    /// Wire-drive cache (see CpuCore): skip redundant re-drives.
    enum class DriveState : u8 { Idle, Request, RespWait };
    /// What the wires should carry for the current request.
    [[nodiscard]] DriveState desired_drive() const noexcept;
    /// True when the wires already carry `desired` (eval() drives nothing).
    [[nodiscard]] bool wires_current(DriveState desired) const noexcept;
    DriveState driven_ = DriveState::Idle;
    u32 req_gen_ = 0;
    u32 driven_gen_ = 0;
    u16 driven_beat_ = 0; ///< burst-write beat last driven

    Cycle cycle_ = 0;
    Cycle halt_cycle_ = 0;
    TgStats stats_;
};

} // namespace tgsim::tg
