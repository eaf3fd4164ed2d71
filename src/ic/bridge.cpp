#include "ic/bridge.hpp"

#include <algorithm>

namespace tgsim::ic {

void Bridge::start(ocp::ChannelRef master, ocp::ChannelRef slave) {
    m_ = master;
    s_ = slave;
    cmd_ = master.m_cmd();
    addr_ = master.m_addr();
    burst_ = ocp::is_burst(cmd_)
                 ? std::max<u16>(1, std::min<u16>(master.m_burst(), ocp::kMaxBurstLen))
                 : u16{1};
    read_ = ocp::is_read(cmd_);
    phase_ = Phase::Request;
    pending_ = false;
    beats_accepted_ = 0;
    beats_responded_ = 0;
    active_ = true;
}

void Bridge::drive_request_beat() {
    if (!s_) return;
    s_.m_cmd() = cmd_;
    s_.m_addr() = addr_;
    s_.m_data() = m_.m_data(); // live: master holds the current beat until accept
    s_.m_burst() = burst_;
    s_.touch_m();
}

void Bridge::eval_request() {
    // A beat driven last cycle is accepted when the slave raised
    // s_cmd_accept this cycle (slaves eval before interconnects). The void
    // target accepts every beat one cycle after it is driven.
    const bool accepted = pending_ && (!s_ || s_.s_cmd_accept());
    if (accepted) {
        pending_ = false;
        m_.s_cmd_accept() = true;
        m_.touch_s();
        ++beats_accepted_;
        if (read_) {
            phase_ = Phase::Response;
            return;
        }
        if (beats_accepted_ == burst_) {
            active_ = false;
            return;
        }
        // Burst write: the master supplies the next beat next cycle; leave
        // the slave request wires idle for this bubble cycle.
        return;
    }
    drive_request_beat();
    pending_ = true;
}

void Bridge::eval_response() {
    const bool master_ready = m_.m_resp_accept();
    if (s_) {
        if (s_.s_resp() != ocp::Resp::None && master_ready) {
            m_.s_resp() = s_.s_resp();
            m_.s_data() = s_.s_data();
            m_.s_resp_last() = (beats_responded_ + 1 == burst_);
            m_.touch_s();
            s_.m_resp_accept() = true;
            s_.touch_m();
            ++beats_responded_;
            if (beats_responded_ == burst_) active_ = false;
        }
        return;
    }
    // Decode-error target: synthesize one ERR beat per cycle.
    if (master_ready) {
        m_.s_resp() = ocp::Resp::Err;
        m_.s_data() = ocp::kPoison;
        m_.s_resp_last() = (beats_responded_ + 1 == burst_);
        m_.touch_s();
        ++beats_responded_;
        if (beats_responded_ == burst_) active_ = false;
    }
}

bool Bridge::eval_cycle() {
    if (!active_) return false;
    if (phase_ == Phase::Request) {
        eval_request();
        // A read transitioning to the response phase cannot see a response
        // in the same cycle (the slave has not even latched the command yet),
        // so there is no need to fall through.
        return !active_;
    }
    eval_response();
    return !active_;
}

} // namespace tgsim::ic
