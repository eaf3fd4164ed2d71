#include "tg/tg_core.hpp"

namespace tgsim::tg {

namespace {
constexpr u32 kPoison = 0xDEADBEEFu;
} // namespace

void TgCore::load(std::vector<u32> image) {
    image_ = std::move(image);
    reset();
}

void TgCore::reset() {
    // Registers preset via preset_reg() survive reset-by-load ordering: the
    // platform calls load() first, then preset_reg() for REGISTER directives.
    pc_ = 0;
    state_ = image_.empty() ? State::Halted : State::Run;
    idle_left_ = 0;
    req_ = Request{};
    cycle_ = 0;
    halt_cycle_ = 0;
    stats_ = TgStats{};
    ch_.clear_request();
    ch_.touch_m();
    driven_ = DriveState::Idle;
    req_gen_ = 0;
    driven_gen_ = 0;
    driven_beat_ = 0;
}

TgCore::DriveState TgCore::desired_drive() const noexcept {
    const bool drive_cmd =
        req_.active &&
        (!req_.accepted || (ocp::is_write(req_.cmd) && req_.wbeats_done < req_.burst));
    const bool await_resp = req_.active && ocp::is_read(req_.cmd);
    return drive_cmd    ? DriveState::Request
           : await_resp ? DriveState::RespWait
                        : DriveState::Idle;
}

bool TgCore::wires_current(DriveState desired) const noexcept {
    return desired == driven_ &&
           (desired != DriveState::Request ||
            (driven_gen_ == req_gen_ && driven_beat_ == req_.wbeats_done));
}

void TgCore::eval() {
    const DriveState desired = desired_drive();
    if (wires_current(desired)) return; // wires already hold the right values
    switch (desired) {
        case DriveState::Idle:
            ch_.clear_request();
            break;
        case DriveState::Request:
            ch_.m_cmd() = req_.cmd;
            ch_.m_addr() = req_.addr;
            ch_.m_burst() = req_.burst;
            if (req_.cmd == ocp::Cmd::Write)
                ch_.m_data() = single_wdata_;
            else if (req_.cmd == ocp::Cmd::BurstWrite)
                ch_.m_data() = image_[req_.wdata_base + req_.wbeats_done];
            else
                ch_.m_data() = 0;
            ch_.m_resp_accept() = ocp::is_read(req_.cmd);
            break;
        case DriveState::RespWait:
            ch_.m_cmd() = ocp::Cmd::Idle;
            ch_.m_addr() = 0;
            ch_.m_data() = 0;
            ch_.m_burst() = 1;
            ch_.m_resp_accept() = true;
            break;
    }
    driven_ = desired;
    driven_gen_ = req_gen_;
    driven_beat_ = req_.wbeats_done;
    ch_.touch_m();
}

Cycle TgCore::quiet_for() const {
    // Waiting on the fabric: quiet while the request (or the response wait)
    // stays on the wires and nothing has come back. The channel's s_gen
    // wakes the core in the cycle the fabric answers (watch_inputs).
    if (state_ == State::MemWait) {
        const bool answered = ch_.s_cmd_accept() || ch_.s_resp() != ocp::Resp::None;
        return wires_current(desired_drive()) && !answered ? sim::kQuietForever : 0;
    }
    if (driven_ != DriveState::Idle) return 0; // wires not settled
    if (state_ == State::Halted) return sim::kQuietForever;
    if (state_ == State::Idle) return idle_left_ - 1;
    return 0;
}

void TgCore::advance(Cycle cycles) {
    cycle_ += cycles;
    if (state_ == State::Idle) {
        idle_left_ -= cycles;
        stats_.idle_cycles += cycles;
    } else if (state_ == State::MemWait) {
        stats_.mem_wait_cycles += cycles;
    }
}

void TgCore::watch_inputs(std::vector<sim::WatchRange>& out) const {
    // Only MemWait parks on an input; update() samples the slave side, which
    // the interconnect drives after this core's eval.
    sim::WatchRange r = ch_.s_gen_watch();
    r.in_update = true;
    out.push_back(r);
}

void TgCore::update() {
    ++cycle_;
    switch (state_) {
        case State::Halted:
            break;
        case State::Idle:
            ++stats_.idle_cycles;
            if (--idle_left_ == 0) state_ = State::Run;
            break;
        case State::MemWait:
            ++stats_.mem_wait_cycles;
            mem_progress();
            break;
        case State::Run:
            exec_one();
            break;
    }
}

void TgCore::exec_one() {
    if (pc_ >= image_.size()) { // fell off the end: treat as halt
        state_ = State::Halted;
        halt_cycle_ = cycle_;
        return;
    }
    ++stats_.instructions;
    const TgWord0 w = decode_w0(image_[pc_]);
    switch (w.op) {
        case TgOp::SetRegister:
            regs_[w.a] = image_[pc_ + 1];
            pc_ += 2;
            break;
        case TgOp::Idle: {
            const u32 n = image_[pc_ + 1];
            pc_ += 2;
            if (n > 1) {
                idle_left_ = n - 1;
                state_ = State::Idle;
            }
            break;
        }
        case TgOp::IdleUntil: {
            const u64 target = image_[pc_ + 1];
            const u64 now = cycle_ - 1; // 0-based tick index of this update
            pc_ += 2;
            if (target > now) {
                idle_left_ = target - now;
                state_ = State::Idle;
            }
            break;
        }
        case TgOp::Read:
            req_ = Request{};
            req_.active = true;
            req_.cmd = ocp::Cmd::Read;
            req_.addr = regs_[w.a];
            ++stats_.ocp_reads;
            state_ = State::MemWait;
            ++req_gen_;
            pc_ += 1;
            break;
        case TgOp::BurstRead:
            req_ = Request{};
            req_.active = true;
            req_.cmd = ocp::Cmd::BurstRead;
            req_.addr = regs_[w.a];
            req_.burst = static_cast<u16>(w.imm12 == 0 ? 1 : w.imm12);
            ++stats_.ocp_reads;
            state_ = State::MemWait;
            ++req_gen_;
            pc_ += 1;
            break;
        case TgOp::Write:
            req_ = Request{};
            req_.active = true;
            req_.cmd = ocp::Cmd::Write;
            req_.addr = regs_[w.a];
            req_.burst = 1;
            single_wdata_ = regs_[w.b];
            ++stats_.ocp_writes;
            state_ = State::MemWait;
            ++req_gen_;
            pc_ += 1;
            break;
        case TgOp::BurstWrite:
            req_ = Request{};
            req_.active = true;
            req_.cmd = ocp::Cmd::BurstWrite;
            req_.addr = regs_[w.a];
            req_.burst = static_cast<u16>(w.imm12 == 0 ? 1 : w.imm12);
            req_.wdata_base = pc_ + 1;
            ++stats_.ocp_writes;
            state_ = State::MemWait;
            ++req_gen_;
            pc_ += 1 + w.imm12;
            break;
        case TgOp::If: {
            const bool taken = compare(w.cmp, regs_[w.a], regs_[w.b]);
            pc_ = taken ? image_[pc_ + 1] : pc_ + 2;
            break;
        }
        case TgOp::IfImm: {
            const bool taken = compare(w.cmp, regs_[w.a], image_[pc_ + 1]);
            pc_ = taken ? image_[pc_ + 2] : pc_ + 3;
            break;
        }
        case TgOp::Jump:
            pc_ = image_[pc_ + 1];
            break;
        case TgOp::Halt:
            state_ = State::Halted;
            halt_cycle_ = cycle_;
            break;
    }
}

void TgCore::mem_progress() {
    if (req_.active && ocp::is_write(req_.cmd)) {
        if (ch_.s_cmd_accept()) {
            ++req_.wbeats_done;
            if (req_.wbeats_done == req_.burst) {
                req_ = Request{};
                state_ = State::Run;
            }
        }
        return;
    }
    if (!req_.active) return;
    if (!req_.accepted && ch_.s_cmd_accept()) req_.accepted = true;
    if (ch_.s_resp() != ocp::Resp::None) {
        if (ch_.s_resp() == ocp::Resp::Err) ++stats_.bus_errors;
        req_.last_data =
            (ch_.s_resp() == ocp::Resp::Err) ? kPoison : ch_.s_data();
        ++req_.rbeats;
        if (ch_.s_resp_last() || req_.rbeats == req_.burst) {
            regs_[kRdReg] = req_.last_data;
            req_ = Request{};
            state_ = State::Run;
        }
    }
}

} // namespace tgsim::tg
