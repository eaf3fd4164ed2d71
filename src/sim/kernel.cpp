#include "sim/kernel.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <stdexcept>

namespace tgsim::sim {

Kernel::Kernel() : run_(std::make_shared<RunBits>()) {}

Kernel::~Kernel() { run_->live = false; }

void Kernel::add(Clocked& component, int stage, std::string name) {
    // Late registration re-sorts the tick order, which invalidates the tick
    // positions held by the wake heap; settle everything first.
    if (parked_count_ > 0) unpark_all();
    const auto id = static_cast<u32>(slots_.size());
    slots_.push_back(Slot{&component, stage, id, false, false, std::move(name)});
    sorted_ = false;
}

void Kernel::sort_slots() {
    std::stable_sort(slots_.begin(), slots_.end(), [](const Slot& a, const Slot& b) {
        if (a.stage != b.stage) return a.stage < b.stage;
        return a.id < b.id;
    });
    // Nothing is parked here (add() un-parks), so every run bit is set.
    // Subscriptions name registration ids, so rewriting the position table
    // keeps them valid. The bitset and the table grow only here, so a bump
    // between a late add() and this re-sort still lands in range.
    hot_.assign(slots_.size(), Hot{});
    ran_.resize(slots_.size());
    run_->pos.resize(slots_.size());
    run_->words.assign((slots_.size() + 63) / 64, u64{0});
    same_cycle_.assign(run_->words.size(), u64{0});
    for (u32 p = 0; p < slots_.size(); ++p) {
        hot_[p].component = slots_[p].component;
        run_->pos[slots_[p].id] = p;
        set_bit(p);
        set_same_cycle(p);
    }
    sorted_ = true;
}

void Kernel::set_gating(bool on) {
    if (!on && parked_count_ > 0) unpark_all();
    gating_ = on;
}

void Kernel::tick() {
    if (!sorted_) sort_slots();
    if (parked_count_ > 0) unpark_all();
    for (const Hot& h : hot_) h.component->eval();
    for (const Hot& h : hot_) h.component->update();
    ++now_;
}

// --- legacy (ungated) schedule ---------------------------------------------

Cycle Kernel::step(Cycle cap) {
    for (const Hot& h : hot_) h.component->eval();
    for (const Hot& h : hot_) h.component->update();
    ++now_;
    if (cap == 0) return 1;
    // Global quiescence probe: bail out at the first non-quiet component. If
    // every component is quiet indefinitely there is no upcoming event at
    // all, so skipping would only inflate now_ past the end of time — don't.
    Cycle q = kQuietForever;
    for (const Hot& h : hot_) {
        const Cycle cq = h.component->quiet_for();
        if (cq < q) {
            q = cq;
            if (q == 0) return 1;
        }
    }
    if (q == kQuietForever) return 1;
    q = std::min(q, cap);
    for (const Hot& h : hot_) h.component->advance(q);
    now_ += q;
    return 1 + q;
}

// --- gated schedule ---------------------------------------------------------

void Kernel::wake(u32 p) {
    Hot& h = hot_[p];
    const Cycle skipped = now_ - h.parked_since;
    if (skipped > 0) h.component->advance(skipped);
    h.parked = false;
    h.wake_at = kNoWake;
    --parked_count_;
    if (same_cycle(p)) --parked_same_cycle_;
    set_bit(p);
}

void Kernel::set_same_cycle(u32 p) noexcept {
    if (slots_[p].same_cycle) same_cycle_[p >> 6] |= u64{1} << (p & 63);
}

void Kernel::park(u32 p, Cycle q) {
    Slot& s = slots_[p];
    if (!s.subscribed) {
        watch_.clear();
        s.component->watch_inputs(watch_);
        for (const WatchRange& r : watch_) {
            if (r.count > 0 && r.wake == nullptr)
                throw std::logic_error{"Kernel: watch range without wake lists ('" +
                                       s.name + "')"};
            for (u32 i = 0; i < r.count; ++i) r.wake[i].subscribe(run_, s.id);
            s.same_cycle = s.same_cycle || r.in_update;
        }
        s.subscribed = true;
        set_same_cycle(p);
    }
    Hot& h = hot_[p];
    h.parked = true;
    h.parked_since = now_;
    ++parked_count_;
    if (same_cycle(p)) ++parked_same_cycle_;
    // Bumps from this cycle are already part of the state the component
    // judged itself quiet in; only later ones may wake it.
    run_->words[p >> 6] &= ~(u64{1} << (p & 63));
    if (q >= kQuietForever - now_) {
        h.wake_at = kNoWake; // inert until inputs move
    } else {
        h.wake_at = now_ + q;
        wake_heap_.emplace_back(h.wake_at, p);
        std::push_heap(wake_heap_.begin(), wake_heap_.end(),
                       std::greater<>{});
    }
}

bool Kernel::any_bit() const noexcept {
    for (const u64 w : run_->words)
        if (w != 0) return true;
    return false;
}

void Kernel::gated_tick() {
    // Due timer wakes.
    while (!wake_heap_.empty() && wake_heap_.front().first <= now_) {
        std::pop_heap(wake_heap_.begin(), wake_heap_.end(),
                      std::greater<>{});
        const auto [when, p] = wake_heap_.back();
        wake_heap_.pop_back();
        if (hot_[p].parked && hot_[p].wake_at == when) wake(p);
    }

    // Eval phase over the set run bits in (stage, order) sequence. The word
    // under the cursor is re-read after each eval(): a bit that an earlier
    // component's bump sets ahead of the cursor runs this cycle, one set
    // behind it runs next cycle — exactly the fully clocked schedule's
    // visibility. A parked component reached here is settled and re-armed.
    u32* const ran = ran_.data();
    u32 n_ran = 0;
    Hot* const hot = hot_.data();
    const u64* const words = run_->words.data();
    const std::size_t n_words = run_->words.size();
    for (std::size_t w = 0; w < n_words; ++w) {
        u64 bits = words[w];
        while (bits != 0) {
            const auto b = static_cast<u32>(std::countr_zero(bits));
            const auto p = static_cast<u32>(w * 64) + b;
            if (hot[p].parked) wake(p);
            hot[p].component->eval();
            ran[n_ran++] = p;
            bits = words[w] & ~((u64{2} << b) - 1);
        }
    }
    // Same-cycle watchers a later stage bumped: their bit is behind the
    // cursor, but they sample that stage's wires in update(), so they wake
    // now. Their eval() is a no-op while quiet; it runs only to keep the
    // eval-before-update order. Active ones with a set bit already ran.
    if (parked_same_cycle_ > 0) {
        const u64* const same = same_cycle_.data();
        for (std::size_t w = 0; w < n_words; ++w) {
            for (u64 bits = words[w] & same[w]; bits != 0; bits &= bits - 1) {
                const auto p = static_cast<u32>(w * 64) +
                               static_cast<u32>(std::countr_zero(bits));
                if (!hot[p].parked) continue;
                wake(p);
                hot[p].component->eval();
                ran[n_ran++] = p;
            }
        }
    }
    for (u32 i = 0; i < n_ran; ++i) hot[ran[i]].component->update();
    ++now_;

    // Parking decisions for the evaluated set.
    for (u32 i = 0; i < n_ran; ++i) {
        const Cycle q = hot[ran[i]].component->quiet_for();
        if (q != 0) park(ran[i], q);
    }
}

Cycle Kernel::next_wake() {
    while (!wake_heap_.empty()) {
        const auto [when, p] = wake_heap_.front();
        if (hot_[p].parked && hot_[p].wake_at == when) return when;
        std::pop_heap(wake_heap_.begin(), wake_heap_.end(),
                      std::greater<>{});
        wake_heap_.pop_back();
    }
    return kNoWake;
}

void Kernel::settle_parked() {
    if (parked_count_ == 0) return;
    for (Hot& h : hot_) {
        if (!h.parked || h.parked_since >= now_) continue;
        h.component->advance(now_ - h.parked_since);
        h.parked_since = now_;
    }
}

void Kernel::unpark_all() {
    if (parked_count_ == 0) return;
    for (u32 p = 0; p < hot_.size(); ++p)
        if (hot_[p].parked) wake(p);
    wake_heap_.clear();
}

// --- run loops --------------------------------------------------------------

void Kernel::run(Cycle cycles) {
    if (!sorted_) sort_slots();
    Cycle consumed = 0;
    if (!gating_) {
        unpark_all();
        while (consumed < cycles) {
            const Cycle budget = cycles - consumed - 1;
            consumed += step(std::min(max_skip_, budget));
        }
        return;
    }
    while (consumed < cycles) {
        if (all_asleep()) {
            // Everything is clock-gated: jump to the earliest wake (or the
            // end of the budget — a fully inert platform has no events).
            const Cycle nw = next_wake();
            Cycle jump = cycles - consumed;
            if (nw != kNoWake && nw - now_ < jump) jump = nw - now_;
            if (jump > 0) {
                now_ += jump;
                consumed += jump;
                continue;
            }
        }
        gated_tick();
        ++consumed;
    }
    settle_parked();
}

bool Kernel::run_until(const std::function<bool()>& done, Cycle max_cycles,
                       Cycle check_interval) {
    if (!sorted_) sort_slots();
    if (check_interval == 0) check_interval = 1;
    Cycle consumed = 0;
    Cycle next_check = 0;
    if (!gating_) {
        unpark_all();
        while (consumed < max_cycles) {
            if (consumed >= next_check) {
                if (done()) return true;
                next_check = consumed + check_interval;
            }
            // Skips never cross a done-poll boundary: both schedules honour
            // the same polling contract.
            const Cycle budget = std::min(max_cycles, next_check) - consumed - 1;
            consumed += step(std::min(max_skip_, budget));
        }
        return done();
    }
    while (consumed < max_cycles) {
        if (consumed >= next_check) {
            // The predicate must observe the same state it would under the
            // clocked schedule — fast-forward parked components to now.
            settle_parked();
            if (done()) return true;
            next_check = consumed + check_interval;
        }
        if (all_asleep()) {
            // Jump towards the earliest wake, but never past a done-poll
            // boundary: the predicate may watch now(), and the contract is
            // that it is polled at least every check_interval cycles.
            const Cycle nw = next_wake();
            Cycle jump = std::min(max_cycles, next_check) - consumed;
            if (nw != kNoWake)
                jump = std::min(jump, nw > now_ ? nw - now_ : Cycle{0});
            if (jump > 0) {
                now_ += jump;
                consumed += jump;
                continue;
            }
        }
        gated_tick();
        ++consumed;
    }
    settle_parked();
    return done();
}

const std::string& Kernel::component_name(std::size_t index) const {
    if (index >= slots_.size()) throw std::out_of_range{"Kernel::component_name"};
    return slots_[index].name;
}

WallTimer::WallTimer() { restart(); }

void WallTimer::restart() {
    start_ns_ = static_cast<u64>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

double WallTimer::seconds() const {
    const u64 now_ns = static_cast<u64>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
    return static_cast<double>(now_ns - start_ns_) * 1e-9;
}

} // namespace tgsim::sim
