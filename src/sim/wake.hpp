// Push-based wake plumbing between activity counters and the gating kernel.
//
// Every activity generation counter (e.g. one entry of ocp::ChannelStore's
// m_gen array) has a WakeList beside it. A driver that bumps the counter
// fires the list, which sets each subscriber's bit in its kernel's RunBits;
// the kernel's eval walk visits only set bits. A Clocked component names the
// counters it observes while quiet as WatchRanges (counter slice plus the
// matching wake lists); the kernel subscribes it to all of them the first
// time it parks. See docs/kernel.md for the protocol.
#pragma once

#include <algorithm>
#include <array>
#include <memory>
#include <vector>

#include "sim/types.hpp"

namespace tgsim::sim {

/// Run bits of one Kernel, shared (via shared_ptr) by the kernel and every
/// wake list it subscribed to, so either side may die first. Subscriptions
/// name a slot by registration id; `pos` maps it to the slot's tick
/// position, so a re-sort of the kernel rewrites `pos` and keeps every
/// subscription valid.
struct RunBits {
    std::vector<u64> words; ///< bit p set: tick position p runs this cycle
    std::vector<u32> pos;   ///< registration id -> tick position
    bool live = true;       ///< cleared when the owning kernel is destroyed

    void set(u32 id) noexcept {
        const u32 p = pos[id];
        words[p >> 6] |= u64{1} << (p & 63);
    }
};

/// Subscribers of one activity counter. Subscription bookkeeping is not
/// wire state, so subscribing works through a const reference (components
/// name their watch set from const member functions). Up to kInline
/// subscribers (the usual case: an interconnect and a monitor) live inside
/// the list itself, so subscribing at a component's first park does not
/// scatter small long-lived heap blocks between the platform's buffers.
class WakeList {
public:
    /// Sets every subscriber's run bit; called on each counter bump.
    void fire() const noexcept {
        const Ref* r = refs();
        for (u32 i = 0; i < n_; ++i) r[i].bits->set(r[i].id);
    }

    /// Adds a subscriber; drops subscribers of destroyed kernels.
    void subscribe(const std::shared_ptr<RunBits>& bits, u32 id) const {
        std::vector<Ref> keep;
        keep.reserve(n_ + 1);
        for (u32 i = 0; i < n_; ++i)
            if (refs()[i].bits->live) keep.push_back(refs()[i]);
        keep.push_back(Ref{bits, id});
        inline_ = {};
        spill_.clear();
        n_ = static_cast<u32>(keep.size());
        if (n_ <= kInline)
            std::move(keep.begin(), keep.end(), inline_.begin());
        else
            spill_ = std::move(keep);
    }

    [[nodiscard]] std::size_t size() const noexcept { return n_; }

private:
    struct Ref {
        std::shared_ptr<RunBits> bits;
        u32 id = 0;
    };
    static constexpr u32 kInline = 2;

    [[nodiscard]] const Ref* refs() const noexcept {
        return n_ <= kInline ? inline_.data() : spill_.data();
    }

    mutable std::array<Ref, kInline> inline_;
    mutable std::vector<Ref> spill_;
    mutable u32 n_ = 0;
};

/// One contiguous run of activity generation counters (typically a slice of
/// an ocp::ChannelStore gen array) with the wake list of each counter
/// (`wake[i]` belongs to `first[i]`). The gating kernel's watch
/// subscriptions (Clocked::watch_inputs) are lists of these. A non-empty
/// range without wake lists cannot wake anyone and is rejected at first
/// park.
///
/// `in_update` marks a same-cycle watcher: one that samples these counters'
/// wires in update(), after later stages drove them. A bump from a later
/// stage then wakes it in the bump's own cycle (late eval, then update)
/// instead of the next. A component that sets it promises that its eval()
/// reads no input while it is quiet, so the late eval is a no-op.
struct WatchRange {
    const u32* first = nullptr;
    u32 count = 0;
    const WakeList* wake = nullptr;
    bool in_update = false;
};

} // namespace tgsim::sim
