#include "tg/tg_core.hpp"

namespace tgsim::tg {

void TgCore::load(std::vector<u32> image) {
    ctx_.image = std::move(image);
    reset();
}

void TgCore::reset() {
    // Registers preset via preset_reg() survive reset-by-load ordering: the
    // platform calls load() first, then preset_reg() for REGISTER directives.
    ctx_.pc = 0;
    state_ = ctx_.image.empty() ? State::Halted : State::Run;
    idle_left_ = 0;
    cycle_ = 0;
    halt_cycle_ = 0;
    stats_ = TgStats{};
    port_.reset();
}

Cycle TgCore::quiet_for() const {
    // Waiting on the fabric: quiet while the request (or the response wait)
    // stays on the wires and nothing has come back. The channel's s_gen
    // wakes the core in the cycle the fabric answers (watch_inputs).
    if (state_ == State::MemWait) return port_.waiting() ? sim::kQuietForever : 0;
    if (!port_.idle()) return 0; // wires not settled
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

void TgCore::update() {
    ++cycle_;
    switch (state_) {
        case State::Halted:
            break;
        case State::Idle:
            ++stats_.idle_cycles;
            if (--idle_left_ == 0) state_ = State::Run;
            break;
        case State::MemWait: {
            ++stats_.mem_wait_cycles;
            const ocp::Beat b = sample(ctx_, port_);
            if (b.err) ++stats_.bus_errors;
            if (b.done) state_ = State::Run;
            break;
        }
        case State::Run:
            exec_one();
            break;
    }
}

void TgCore::exec_one() {
    if (ctx_.pc >= ctx_.image.size()) { // fell off the end: treat as halt
        state_ = State::Halted;
        halt_cycle_ = cycle_;
        return;
    }
    ++stats_.instructions;
    const TgStep s = step(ctx_, port_, cycle_ - 1);
    if (s.kind == TgStep::Kind::Idle && s.idle > 0) {
        idle_left_ = s.idle;
        state_ = State::Idle;
    } else if (s.kind == TgStep::Kind::Mem) {
        ++(ocp::is_read(port_.cmd()) ? stats_.ocp_reads : stats_.ocp_writes);
        state_ = State::MemWait;
    } else if (s.kind == TgStep::Kind::Halt) {
        state_ = State::Halted;
        halt_cycle_ = cycle_;
    }
}

} // namespace tgsim::tg
