// OCP channel monitor: reconstructs whole transactions from the wire-level
// handshake. This is the attach point for the paper's trace collection — the
// monitor watches one master interface and appends each completed
// transaction (command, address, data beats, assert/accept/response
// timestamps) straight into a tg::Trace.
#pragma once

#include <vector>

#include "ocp/channel.hpp"
#include "sim/kernel.hpp"
#include "tg/trace.hpp"

namespace tgsim::ocp {

/// Watches a Channel every cycle (observer stage) and appends each completed
/// transaction to `log`. Writes complete at their final accepted beat; reads
/// at their final response beat. Beats go straight into the log's flat beat
/// store, so capture allocates nothing per transaction.
class ChannelMonitor final : public sim::Clocked {
public:
    /// `log` must outlive the monitor.
    ChannelMonitor(const sim::Kernel& kernel, ChannelRef channel, tg::Trace& log)
        : kernel_(kernel), ch_(channel), log_(log) {}

    void eval() override;
    void update() override {}
    /// Quiet between transactions while the request group is idle, and
    /// inside one while the slave side neither accepts nor responds.
    [[nodiscard]] Cycle quiet_for() const override {
        const bool quiet = active_ ? !ch_.s_cmd_accept() && ch_.s_resp() == Resp::None
                                   : ch_.m_cmd() == Cmd::Idle;
        return quiet ? sim::kQuietForever : 0;
    }
    /// Counts the parked cycles into busy_cycles() when the request group
    /// was non-idle at the last eval (it cannot change while parked).
    void advance(Cycle cycles) override {
        if (busy_) busy_cycles_ += cycles;
    }
    /// A new transaction starts on the request group; one in flight moves
    /// on the slave side.
    void watch_inputs(std::vector<sim::WatchRange>& out) const override {
        out.push_back(ch_.m_gen_watch());
        out.push_back(ch_.s_gen_watch());
    }

    /// Total transactions observed.
    [[nodiscard]] u64 transactions() const noexcept { return log_.events.size(); }
    /// Cycles in which the request group was non-idle (utilisation proxy).
    [[nodiscard]] u64 busy_cycles() const noexcept { return busy_cycles_; }

private:
    void beat(u32 data);
    void emit();

    const sim::Kernel& kernel_;
    const ChannelRef ch_;
    tg::Trace& log_;

    bool active_ = false;        ///< a transaction is being assembled
    bool awaiting_resp_ = false; ///< read accepted, collecting responses
    tg::TraceEvent cur_;         ///< beat_count counts the beats seen so far
    bool busy_ = false;          ///< request group non-idle at the last eval
    u64 busy_cycles_ = 0;
};

} // namespace tgsim::ocp
