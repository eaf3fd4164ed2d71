#include "ocp/monitor.hpp"

#include <limits>
#include <stdexcept>

namespace tgsim::ocp {

void ChannelMonitor::eval() {
    const Cycle now = kernel_.now();
    busy_ = ch_.m_cmd() != Cmd::Idle;
    if (busy_) ++busy_cycles_;

    // Start of a new transaction: command wires go non-idle while we are not
    // already assembling one.
    if (!active_ && ch_.m_cmd() != Cmd::Idle) {
        active_ = true;
        awaiting_resp_ = false;
        cur_ = tg::TraceEvent{};
        cur_.cmd = ch_.m_cmd();
        cur_.addr = ch_.m_addr();
        cur_.burst = is_burst(ch_.m_cmd()) ? ch_.m_burst() : u16{1};
        cur_.t_assert = now;
        if (log_.beats.size() > std::numeric_limits<u32>::max())
            throw std::length_error{"ChannelMonitor: trace beat store full"};
        cur_.beat_off = static_cast<u32>(log_.beats.size());
    }
    if (!active_) return;

    // Request phase: watch accepted beats.
    if (!awaiting_resp_ && ch_.s_cmd_accept() && ch_.m_cmd() != Cmd::Idle) {
        if (is_write(cur_.cmd)) {
            beat(ch_.m_data());
            if (cur_.beat_count == cur_.burst) {
                cur_.t_accept = now;
                emit(); // posted write completes at last accepted beat
                return;
            }
        } else {
            cur_.t_accept = now;
            awaiting_resp_ = true;
        }
    }

    // Response phase (reads): watch consumed response beats.
    if (awaiting_resp_ && ch_.s_resp() != Resp::None && ch_.m_resp_accept()) {
        if (cur_.beat_count == 0) cur_.t_resp_first = now;
        beat(ch_.s_data());
        if (cur_.beat_count == cur_.burst || ch_.s_resp_last()) {
            cur_.t_resp_last = now;
            emit();
        }
    }
}

void ChannelMonitor::beat(u32 data) {
    log_.beats.push_back(data);
    ++cur_.beat_count;
}

void ChannelMonitor::emit() {
    log_.events.push_back(cur_);
    active_ = false;
    awaiting_resp_ = false;
}

} // namespace tgsim::ocp
