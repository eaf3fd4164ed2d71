// Generic OCP slave state machine.
//
// Implements the channel handshake (see ocp/channel.hpp) for a single
// outstanding transaction with configurable access latencies. Concrete
// devices (memory, semaphore bank) supply word-level read/write hooks; the
// read hook is non-const because some devices (hardware semaphores) have
// read side effects.
//
// Timing model, in kernel cycles:
//   * a Read/BurstRead command is accepted when the device is idle; the first
//     response beat is driven `read_latency + 1` cycles after the accept,
//     subsequent beats every `beat_interval` cycles;
//   * a Write/BurstWrite beat is accepted every cycle while collecting; after
//     the last beat the device stays busy for `write_latency` cycles, during
//     which further commands stall at the interface (the paper's Fig. 2(a)
//     "RD stalled at the slave" behaviour).
#pragma once

#include <array>

#include "ocp/channel.hpp"
#include "sim/kernel.hpp"

namespace tgsim::mem {

struct SlaveTiming {
    u32 read_latency = 1;  ///< cycles between command accept and first beat
    u32 write_latency = 1; ///< busy cycles after the last accepted write beat
    u32 beat_interval = 1; ///< cycles between successive burst response beats
};

class SlaveDevice : public sim::Clocked {
public:
    SlaveDevice(ocp::ChannelRef channel, SlaveTiming timing);

    void eval() override;
    void update() override;
    [[nodiscard]] Cycle quiet_for() const override {
        return (state_ == State::Idle && wires_clean_ &&
                ch_.m_cmd() == ocp::Cmd::Idle)
                   ? sim::kQuietForever
                   : 0;
    }
    /// While idle the device only reacts to its request wires.
    void watch_inputs(std::vector<sim::WatchRange>& out) const override {
        out.push_back(ch_.m_gen_watch());
    }

    /// True when the device is between transactions.
    [[nodiscard]] bool idle() const noexcept { return state_ == State::Idle; }

    [[nodiscard]] u64 reads_served() const noexcept { return reads_; }
    [[nodiscard]] u64 writes_served() const noexcept { return writes_; }
    [[nodiscard]] const SlaveTiming& timing() const noexcept { return timing_; }

    /// True when a read changes the device's state (a test-and-set
    /// semaphore), so reading twice is not the same as reading once. A
    /// fabric that replays lost requests must then not re-execute a read
    /// (ic::Interconnect::connect_slave).
    [[nodiscard]] virtual bool read_side_effects() const noexcept { return false; }

protected:
    /// Returns the word at `addr` (byte address, word aligned); may have side
    /// effects (called exactly once per read beat).
    virtual u32 read_word(u32 addr) = 0;
    /// Stores `data` at `addr` (called exactly once per write beat).
    virtual void write_word(u32 addr, u32 data) = 0;

private:
    enum class State : u8 { Idle, WriteCollect, ReadWait, Respond, WriteBusy };

    [[nodiscard]] bool driving_response() const noexcept;

    ocp::ChannelRef ch_;
    SlaveTiming timing_;

    State state_ = State::Idle;
    u32 cur_addr_ = 0;
    u16 cur_burst_ = 1;
    u16 beats_done_ = 0;
    u32 wait_left_ = 0;
    u32 gap_left_ = 0;
    std::array<u32, ocp::kMaxBurstLen> resp_buf_{};

    /// True when the response wires are known to be in their cleared state
    /// (idle fast-path bookkeeping).
    bool wires_clean_ = false;

    // Snapshot of the request wires as seen (and accepted) at eval() time.
    // An interconnect evaluating later in the same cycle may redrive the
    // request group; the accept we advertised binds to this snapshot.
    bool latched_accept_ = false;
    ocp::Cmd latched_cmd_ = ocp::Cmd::Idle;
    u32 latched_addr_ = 0;
    u32 latched_data_ = 0;
    u16 latched_burst_ = 1;

    u64 reads_ = 0;
    u64 writes_ = 0;
};

} // namespace tgsim::mem
