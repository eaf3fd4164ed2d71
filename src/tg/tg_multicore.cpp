#include "tg/tg_multicore.hpp"

#include <algorithm>

namespace tgsim::tg {

std::size_t TgMultiCore::add_thread(std::vector<u32> image,
                                    const std::array<u32, kTgNumRegs>& regs) {
    Thread t;
    t.ctx.image = std::move(image);
    t.ctx.regs = regs;
    if (t.ctx.image.empty()) {
        t.state = ThreadState::Halted;
        t.halt_cycle = 0;
    }
    threads_.push_back(std::move(t));
    return threads_.size() - 1;
}

bool TgMultiCore::done() const noexcept {
    for (const Thread& t : threads_)
        if (t.state != ThreadState::Halted) return false;
    return true;
}

int TgMultiCore::next_ready(int from) const {
    const int n = static_cast<int>(threads_.size());
    if (n == 0) return -1;
    for (int k = 1; k <= n; ++k) {
        const int i = (from + k + n) % n;
        if (threads_[static_cast<std::size_t>(i)].state == ThreadState::Ready)
            return i;
    }
    return -1;
}

void TgMultiCore::begin_switch(int to) {
    ++stats_.context_switches;
    if (cfg_.switch_penalty == 0) {
        current_ = to;
        slice_left_ = cfg_.quantum;
        return;
    }
    switch_left_ = cfg_.switch_penalty;
    switch_to_ = to;
}

void TgMultiCore::update() {
    ++cycle_;
    const Cycle now = cycle_ - 1;

    // Interrupt delivery: wake expired sleepers.
    for (Thread& t : threads_)
        if (t.state == ThreadState::Sleeping && t.wake_at <= now)
            t.state = ThreadState::Ready;

    // Context-switch overhead in progress.
    if (switch_left_ > 0) {
        --switch_left_;
        ++stats_.switch_overhead_cycles;
        if (switch_left_ == 0) {
            current_ = switch_to_;
            slice_left_ = cfg_.quantum;
        }
        return;
    }

    // The port is in-order: never preempt a thread mid-transaction.
    if (port_.busy()) {
        sample(threads_[static_cast<std::size_t>(current_)].ctx, port_);
        return;
    }

    // Dispatch when the current slot is empty or not runnable.
    if (current_ < 0 ||
        threads_[static_cast<std::size_t>(current_)].state != ThreadState::Ready) {
        const int nxt = next_ready(current_);
        if (nxt < 0) {
            if (!done()) ++stats_.all_asleep_cycles;
            return;
        }
        current_ = nxt; // initial dispatch / resume after sleep: free
        slice_left_ = cfg_.quantum;
        return;
    }

    // Preemption on slice expiry.
    if (cfg_.policy == SchedulePolicy::Timeslice) {
        if (slice_left_ == 0) {
            const int nxt = next_ready(current_);
            if (nxt >= 0 && nxt != current_) {
                begin_switch(nxt);
                return;
            }
            slice_left_ = cfg_.quantum; // sole runnable thread: renew
        }
        --slice_left_;
    }

    Thread& t = threads_[static_cast<std::size_t>(current_)];
    if (t.idle_left > 0) { // busy-wait idle inside the slice
        --t.idle_left;
        return;
    }
    exec_current();
}

void TgMultiCore::exec_current() {
    Thread& t = threads_[static_cast<std::size_t>(current_)];
    if (t.ctx.pc >= t.ctx.image.size()) {
        halt(t);
        return;
    }
    ++stats_.instructions;
    const Cycle now = cycle_ - 1;
    const TgStep s = step(t.ctx, port_, now);
    if (s.kind == TgStep::Kind::Halt) {
        halt(t);
    } else if (s.kind == TgStep::Kind::Idle) {
        if (cfg_.policy == SchedulePolicy::SleepWake && s.span >= cfg_.yield_threshold) {
            t.state = ThreadState::Sleeping;
            t.wake_at = now + s.span;
            const int nxt = next_ready(current_);
            if (nxt >= 0) begin_switch(nxt);
        } else {
            t.idle_left = s.idle;
        }
    }
}

void TgMultiCore::halt(Thread& t) {
    t.state = ThreadState::Halted;
    t.halt_cycle = cycle_;
    if (done()) halt_cycle_ = cycle_;
}

Cycle TgMultiCore::quiet_for() const {
    if (!port_.idle() || port_.busy() || switch_left_ > 0) return 0;
    if (done()) return sim::kQuietForever;
    // Quiet only when no thread is runnable: next event is the earliest wake.
    const Cycle now = cycle_; // the NEXT update sees now_ == cycle_
    Cycle earliest = sim::kQuietForever;
    for (const Thread& t : threads_) {
        if (t.state == ThreadState::Ready) return 0;
        if (t.state == ThreadState::Sleeping)
            earliest = std::min(earliest, t.wake_at);
    }
    if (earliest == sim::kQuietForever) return sim::kQuietForever; // all halted
    return earliest > now ? earliest - now : 0;
}

void TgMultiCore::advance(Cycle cycles) {
    cycle_ += cycles;
    if (!done()) stats_.all_asleep_cycles += cycles;
}

} // namespace tgsim::tg
