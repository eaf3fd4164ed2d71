// The master side of one OCP channel, shared by every master: TgCore,
// StochasticTg and CpuCore.
//
// The paper's TG replaces the CPU at exactly this interface, so both sides
// of that swap go through one implementation of it. A master hands the
// port one transaction at a time (issue()); the port drives the request
// group in the master's eval() (drive()) and samples the slave side in its
// update() (sample()). The port owns:
//
//   * the request: command, address, burst length and the write-beat
//     source;
//   * the drive cache: the wires persist between cycles, so drive() writes
//     them, and bumps m_gen, only when what they should carry changes — a
//     new request, the next write beat, the switch to the response wait,
//     or idle;
//   * write-beat accept counting and response-beat sampling, with an Err
//     beat read as kPoison;
//   * the parking rule while waiting() on the fabric: the master's
//     quiet_for() reports quiet, and watch_slave() wakes it in the cycle
//     the slave side moves.
//
// Masters keep only their policy: what to issue and when.
#pragma once

#include <vector>

#include "ocp/channel.hpp"

namespace tgsim::ocp {

/// What one sample() of the slave side saw.
struct Beat {
    bool resp = false; ///< a read response beat arrived
    bool err = false;  ///< ... and it was an Err beat
    bool done = false; ///< the transaction completed this cycle
    u16 index = 0;     ///< position of the response beat in the burst
    u32 data = 0;      ///< response data; kPoison for an Err beat
};

class MasterPort {
public:
    /// The port assumes the channel's request wires start idle; reset()
    /// idles them explicitly.
    explicit MasterPort(ChannelRef channel) noexcept : ch_(channel) {}

    /// Idles the request wires (bumping m_gen) and drops any transaction.
    void reset() noexcept {
        ch_.clear_request();
        ch_.touch_m();
        active_ = false;
        driven_ = Drive::Idle;
        gen_ = 0;
        driven_gen_ = 0;
        driven_beat_ = 0;
    }

    /// Starts a transaction of `burst` beats. Write beat k carries
    /// `beats[k]`, or `data + k` when `beats` is null; `beats` must stay
    /// valid until the transaction completes. Reads drive `data` on m_data.
    void issue(Cmd cmd, u32 addr, u16 burst = 1, u32 data = 0,
               const u32* beats = nullptr) noexcept {
        active_ = true;
        accepted_ = false;
        cmd_ = cmd;
        addr_ = addr;
        burst_ = burst;
        data_ = data;
        beats_ = beats;
        wbeats_ = 0;
        rbeats_ = 0;
        ++gen_;
    }

    /// Drops the transaction without waiting for it to complete (an
    /// open-loop read once its command is accepted).
    void release() noexcept { active_ = false; }

    /// eval(): puts the request, the response wait or the idle pattern on
    /// the wires, unless they already carry it.
    void drive() noexcept {
        const Drive want = desired();
        if (current(want)) return;
        switch (want) {
            case Drive::Idle:
                ch_.clear_request();
                break;
            case Drive::Request:
                ch_.m_cmd() = cmd_;
                ch_.m_addr() = addr_;
                ch_.m_data() = beats_ != nullptr ? beats_[wbeats_] : data_ + wbeats_;
                ch_.m_burst() = burst_;
                ch_.m_resp_accept() = is_read(cmd_);
                break;
            case Drive::RespWait:
                ch_.m_cmd() = Cmd::Idle;
                ch_.m_addr() = 0;
                ch_.m_data() = 0;
                ch_.m_burst() = 1;
                ch_.m_resp_accept() = true;
                break;
        }
        driven_ = want;
        driven_gen_ = gen_;
        driven_beat_ = wbeats_;
        ch_.touch_m();
    }

    /// update(), while a transaction is in flight: counts an accepted write
    /// beat, or notes a read's command accept and takes its response beat.
    Beat sample() noexcept {
        Beat b;
        if (!active_) return b;
        if (is_write(cmd_)) {
            if (ch_.s_cmd_accept() && ++wbeats_ == burst_) {
                active_ = false;
                b.done = true;
            }
            return b;
        }
        if (ch_.s_cmd_accept()) accepted_ = true;
        const Resp r = ch_.s_resp();
        if (r == Resp::None) return b;
        b.resp = true;
        b.err = r == Resp::Err;
        b.index = rbeats_++;
        b.data = b.err ? kPoison : ch_.s_data();
        if (ch_.s_resp_last() || rbeats_ == burst_) {
            active_ = false;
            b.done = true;
        }
        return b;
    }

    /// The in-flight read's command has been accepted.
    [[nodiscard]] bool accepted() const noexcept { return accepted_; }
    /// Command, address and burst length of the last issued transaction.
    [[nodiscard]] Cmd cmd() const noexcept { return cmd_; }
    [[nodiscard]] u32 addr() const noexcept { return addr_; }
    [[nodiscard]] u16 burst() const noexcept { return burst_; }
    /// The wires carry the idle pattern.
    [[nodiscard]] bool idle() const noexcept { return driven_ == Drive::Idle; }
    /// Quiet until the slave side moves: the wires already carry the
    /// in-flight transaction and the slave neither accepts nor responds.
    [[nodiscard]] bool waiting() const noexcept {
        return current(desired()) && !ch_.s_cmd_accept() &&
               ch_.s_resp() == Resp::None;
    }
    [[nodiscard]] ChannelRef channel() const noexcept { return ch_; }

    /// For a master's watch_inputs(): the channel's s_gen as a same-cycle
    /// watch (sim::WatchRange::in_update). A master parked while waiting()
    /// samples the slave side in update(), which the interconnect drives
    /// after the master's eval; drive() reads no wire, so the late eval is
    /// a no-op.
    void watch_slave(std::vector<sim::WatchRange>& out) const {
        sim::WatchRange r = ch_.s_gen_watch();
        r.in_update = true;
        out.push_back(r);
    }

private:
    enum class Drive : u8 { Idle, Request, RespWait };

    /// Writes stay on the wires until their last beat is accepted; a read
    /// drops its command once accepted and waits for its response.
    [[nodiscard]] Drive desired() const noexcept {
        if (!active_) return Drive::Idle;
        return is_write(cmd_) || !accepted_ ? Drive::Request : Drive::RespWait;
    }
    /// True when the wires already carry `want`.
    [[nodiscard]] bool current(Drive want) const noexcept {
        return want == driven_ &&
               (want != Drive::Request ||
                (driven_gen_ == gen_ && driven_beat_ == wbeats_));
    }

    ChannelRef ch_;
    bool active_ = false;
    bool accepted_ = false; ///< read command accepted
    Cmd cmd_ = Cmd::Idle;
    u32 addr_ = 0;
    u16 burst_ = 1;
    u16 wbeats_ = 0; ///< accepted write beats
    u16 rbeats_ = 0; ///< response beats received
    u32 data_ = 0;
    const u32* beats_ = nullptr;

    Drive driven_ = Drive::Idle;
    u32 gen_ = 0; ///< bumped by issue()
    u32 driven_gen_ = 0;
    u16 driven_beat_ = 0;
};

} // namespace tgsim::ocp
