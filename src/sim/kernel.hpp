// Cycle-true two-phase simulation kernel with per-component clock gating.
//
// Every hardware block in the platform derives from Clocked and is registered
// with the Kernel at a fixed evaluation stage. A kernel cycle runs:
//
//   eval()   over all components in ascending (stage, registration) order,
//   update() over all components in the same order.
//
// The convention used throughout tgsim is:
//
//   kStageMaster        masters drive OCP request wires,
//   kStageSlave         slaves accept request beats and drive responses,
//   kStageInterconnect  interconnects route between master and slave channels,
//   kStageObserver      monitors sample the final wire state of the cycle.
//
// Slaves eval before interconnects so that an interconnect sees, within one
// cycle, both fresh master requests (stage 0) and fresh slave accepts and
// response beats (stage 1), and can forward them with registered-request /
// combinational-response timing. Wire values persist across cycles until the
// driver changes them, so a component evaluating earlier in the cycle than a
// driver simply observes the driver's previous-cycle value — a one-cycle
// registered path.
//
// Because the order is fixed and all communication flows through explicitly
// modelled wire bundles, simulation results are bit-reproducible across runs
// and hosts. All wires are driven in eval() only; update() reads wires and
// mutates private state only.
//
// --- Activity-driven scheduling -------------------------------------------
//
// Paying O(all components) every cycle defeats the purpose of a lightweight
// TG platform, so run()/run_until() gate the clock per component. The gated
// schedule is push-based: a run bitset in (stage, registration) order holds
// one bit per component, and a cycle evaluates only the set bits. Active
// components keep their bit set. A component whose quiet_for() returns
// n > 0 is *parked* — its bit is cleared, so it stops receiving eval() and
// update() calls — and is re-armed either
//
//   * by timer — a min-heap of wake times fires at now + n, or
//   * by activity — the component names the activity generation counters
//     of the wire groups it observes (watch_inputs(), slices of
//     ocp::ChannelStore::m_gen / s_gen with their wake lists); at its first
//     park the kernel subscribes it to each of them, and every later bump
//     of one sets its run bit. The eval walk re-reads the bitset after each
//     eval(), so a bit set ahead of the cursor (by an earlier component this
//     cycle) runs this cycle and one set behind it runs next cycle: the
//     component observes the change on exactly the cycle it would have in
//     the fully clocked schedule. A *same-cycle* watcher (a range marked
//     WatchRange::in_update: a master waiting on the fabric, whose update()
//     samples wires a later stage drives) is the exception: a bit set
//     behind it wakes it after the walk, in the same cycle, with a late
//     eval() (a no-op by its promise) and its update().
//
// On wake the kernel calls advance(k) with the number of skipped cycles, so
// per-cycle accounting (idle counters, internal clocks) stays bit-identical
// to the ungated schedule. When every component is parked with no bit set,
// the kernel jumps straight to the earliest pending wake time. set_gating(false) restores the
// legacy behaviour (tick every cycle; optional *global* quiescence skip
// bounded by set_max_skip). Results are bit-identical in all modes — only
// wall time changes. See docs/kernel.md for the full protocol and the rules
// a Clocked subclass must follow.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/types.hpp"
#include "sim/wake.hpp"

namespace tgsim::sim {

/// Evaluation stages; lower stages eval() first within a tick.
inline constexpr int kStageMaster = 0;
inline constexpr int kStageSlave = 1;
inline constexpr int kStageInterconnect = 2;
inline constexpr int kStageObserver = 3;

/// Returned by Clocked::quiet_for() when a component is inert indefinitely
/// (as long as its inputs do not change).
inline constexpr Cycle kQuietForever = ~Cycle{0};

/// Interface implemented by every clocked hardware block.
class Clocked {
public:
    Clocked() = default;
    Clocked(const Clocked&) = delete;
    Clocked& operator=(const Clocked&) = delete;
    virtual ~Clocked() = default;

    /// Phase 1: combinational evaluation; may drive wire bundles.
    virtual void eval() = 0;
    /// Phase 2: sequential state update; may sample wire bundles.
    virtual void update() = 0;

    /// Quiescence contract (optional): the number of upcoming cycles during
    /// which this component is guaranteed to neither change any wires nor
    /// behave differently if ticked — PROVIDED the wire groups it watches
    /// (watch_inputs) stay unchanged at its observation point in the eval
    /// order. A component whose inputs are non-idle *right now* must return
    /// 0: parking clears the component's run bit, discarding earlier bumps,
    /// so a change that already happened would never trigger a wake.
    /// Components that cannot reason about this return 0 (the default),
    /// which keeps them clocked every cycle... and is always safe.
    [[nodiscard]] virtual Cycle quiet_for() const { return 0; }

    /// Fast-forwards internal time by `cycles` (only ever called with
    /// 1 <= cycles <= quiet_for()). Must leave the component exactly as if
    /// it had been ticked `cycles` times under unchanged inputs.
    virtual void advance(Cycle cycles) { (void)cycles; }

    /// Activity subscription (optional): appends contiguous ranges of the
    /// activity generation counters, with their wake lists (e.g.
    /// ocp::ChannelStore::m_gen_range), of every wire group this component
    /// observes while quiet. The gating kernel subscribes the component to
    /// every counter in the ranges, so any later bump re-arms it. A range
    /// without wake lists is a std::logic_error at first park. Components
    /// that are input-insensitive while quiet (masters sleeping on a timer)
    /// leave the list empty and wake by timer only. A range marked
    /// WatchRange::in_update makes the component a same-cycle watcher (see
    /// the header comment); it promises its eval() reads no input while it
    /// is quiet. Called once, the first
    /// time the component parks in a kernel — the watch set is fixed from
    /// then on, and the store must be wired before that (its wake lists
    /// keep the subscription).
    virtual void watch_inputs(std::vector<WatchRange>& out) const { (void)out; }
};

/// Deterministic cycle-driven scheduler. Non-owning: components are owned by
/// the platform (or the test) and must outlive the kernel they registered in.
/// The channel stores a kernel's components watch may die before or after
/// the kernel: their wake lists and the kernel share the run bits.
class Kernel {
public:
    Kernel();
    Kernel(const Kernel&) = delete;
    Kernel& operator=(const Kernel&) = delete;
    ~Kernel();

    /// Registers a component at the given stage. Components registered at the
    /// same stage evaluate in registration order.
    void add(Clocked& component, int stage, std::string name = {});

    /// Current cycle (number of completed ticks).
    [[nodiscard]] Cycle now() const noexcept { return now_; }

    /// Advances the simulation by one clock cycle, evaluating every
    /// component (any parked component is settled and re-armed first).
    void tick();

    /// Enables per-component clock gating in run()/run_until() (the
    /// default). Disabling restores the legacy schedule: every component is
    /// clocked every cycle, with an optional global quiescence skip bounded
    /// by set_max_skip(). Results are bit-identical either way.
    void set_gating(bool on);
    [[nodiscard]] bool gating() const noexcept { return gating_; }

    /// Legacy mode (set_gating(false)) only: after each tick, if every
    /// component reports itself quiet, fast-forward up to `max_skip` cycles
    /// in one step. 0 disables.
    void set_max_skip(Cycle max_skip) noexcept { max_skip_ = max_skip; }
    [[nodiscard]] Cycle max_skip() const noexcept { return max_skip_; }

    /// Advances by `cycles` ticks.
    void run(Cycle cycles);

    /// Ticks until `done()` returns true or `max_cycles` elapse (whichever is
    /// first). Returns true if `done()` fired, false on timeout. `done` is
    /// polled at least every `check_interval` consumed cycles, observing the
    /// exact state the clocked schedule would show (parked components are
    /// settled first), and skips/jumps never cross a poll boundary — so
    /// both the gated jump and the legacy global skip only pay off with a
    /// check_interval coarser than the default 1.
    bool run_until(const std::function<bool()>& done, Cycle max_cycles,
                   Cycle check_interval = 1);

    /// Number of registered components.
    [[nodiscard]] std::size_t component_count() const noexcept { return slots_.size(); }
    /// Number of currently parked (clock-gated) components; diagnostics.
    [[nodiscard]] std::size_t parked_count() const noexcept { return parked_count_; }

    /// Name given at registration (empty if none); for diagnostics.
    [[nodiscard]] const std::string& component_name(std::size_t index) const;

private:
    static constexpr Cycle kNoWake = ~Cycle{0};

    /// Cold per-component metadata, in tick order once sorted.
    struct Slot {
        Clocked* component = nullptr;
        int stage = 0;
        u32 id = 0; ///< registration index
        bool subscribed = false; ///< watch_inputs() wake lists joined
        bool same_cycle = false; ///< a watch range is WatchRange::in_update
        std::string name;
    };
    /// Hot per-component state, parallel to slots_ (tick order).
    struct Hot {
        Clocked* component = nullptr;
        Cycle parked_since = 0;  ///< first gated cycle
        Cycle wake_at = kNoWake; ///< scheduled timer wake (kNoWake: none)
        bool parked = false;
    };

    void sort_slots();
    /// Legacy mode: one tick plus an optional global quiescence skip bounded
    /// by `cap`; returns the number of cycles consumed (>= 1).
    Cycle step(Cycle cap);

    /// One gated cycle: fires due timer wakes, evals the set run bits in
    /// tick order (waking parked components whose bit a watched counter
    /// set), wakes and evals the same-cycle watchers a later stage bumped,
    /// updates the evaluated set, then parks its quiet members.
    void gated_tick();
    /// Parks the component at tick position p until `now_ + q` (or until a
    /// watched counter moves), subscribing it at its first park.
    void park(u32 p, Cycle q);
    void wake(u32 p);
    /// Copies slot p's same-cycle flag into its bit of same_cycle_.
    void set_same_cycle(u32 p) noexcept;
    [[nodiscard]] bool same_cycle(u32 p) const noexcept {
        return (same_cycle_[p >> 6] >> (p & 63)) & 1;
    }
    void set_bit(u32 p) noexcept { run_->words[p >> 6] |= u64{1} << (p & 63); }
    [[nodiscard]] bool any_bit() const noexcept;
    /// Settles every parked component to now_ via advance() (they stay
    /// parked); makes externally observed state identical to the fully
    /// clocked schedule.
    void settle_parked();
    /// Settles and un-parks everything; used at gating-mode boundaries.
    void unpark_all();
    /// True when everything is parked with no wake pending this cycle: the
    /// run loops may jump to the next timer wake.
    [[nodiscard]] bool all_asleep() const noexcept {
        return parked_count_ == hot_.size() && !hot_.empty() && !any_bit();
    }
    /// Earliest valid pending timer wake, or kNoWake. Lazily drops stale
    /// heap entries.
    [[nodiscard]] Cycle next_wake();

    std::vector<Slot> slots_;
    std::vector<Hot> hot_;
    /// Run bitset over tick positions plus the id -> position table, shared
    /// with the wake lists this kernel subscribed to.
    std::shared_ptr<RunBits> run_;
    /// Scratch for the tick positions evaluated in a gated cycle: the walk's
    /// in ascending order, then the same-cycle wakes (each position at most
    /// once, so one entry per component suffices).
    std::vector<u32> ran_;
    /// Bit p set: the component at tick position p is a same-cycle watcher
    /// (Slot::same_cycle); parallel to the run bits.
    std::vector<u64> same_cycle_;
    /// Parked same-cycle watchers; the post-walk pass runs only when > 0.
    std::size_t parked_same_cycle_ = 0;
    /// Scratch for the watch set a component names at its first park.
    std::vector<WatchRange> watch_;
    /// Min-heap of (wake time, tick position); entries are invalidated
    /// lazily (a component's authoritative wake time is Hot::wake_at).
    std::vector<std::pair<Cycle, u32>> wake_heap_;
    std::size_t parked_count_ = 0;
    bool gating_ = true;
    bool sorted_ = true;
    Cycle now_ = 0;
    Cycle max_skip_ = 0;
};

/// Wall-clock stopwatch for speedup measurements (bench harnesses).
class WallTimer {
public:
    WallTimer();
    /// Seconds elapsed since construction or last restart().
    [[nodiscard]] double seconds() const;
    void restart();

private:
    u64 start_ns_ = 0;
};

} // namespace tgsim::sim
