#include "ic/amba/ahb_bus.hpp"

namespace tgsim::ic {

std::size_t AhbBus::connect_master(ocp::ChannelRef ch, int /*node*/) {
    stats_.grants.push_back(0);
    stats_.wait_cycles.push_back(0);
    return track_master(ch);
}

std::size_t AhbBus::connect_slave(ocp::ChannelRef ch, u32 base, u32 size,
                                  int /*node*/, bool /*read_side_effects*/) {
    const std::size_t idx = map_.add_range(base, size);
    slaves_.push_back(ch);
    stats_.slave_transactions.push_back(0);
    return idx;
}

int AhbBus::arbitrate() const noexcept {
    const auto& masters = master_ports();
    const int n = static_cast<int>(masters.size());
    if (n == 0) return -1;
    if (policy_ == Arbitration::FixedPriority) {
        for (int i = 0; i < n; ++i)
            if (masters[static_cast<std::size_t>(i)].m_cmd() != ocp::Cmd::Idle)
                return i;
        return -1;
    }
    for (int k = 1; k <= n; ++k) {
        const int i = (rr_last_ + k) % n;
        if (masters[static_cast<std::size_t>(i)].m_cmd() != ocp::Cmd::Idle)
            return i;
    }
    return -1;
}

// Contention accounting: every master requesting the bus, except `holder`
// (the owner while a transfer runs, the winner on a grant cycle), waits this
// cycle. The count must stay branch-free: which masters request changes
// every few cycles on a contended bus, so a branch on `requesting && i !=
// holder` mispredicts on most busy cycles and costs more than the rest of
// eval(); adding the 0/1 result to every count costs the same each cycle.
void AhbBus::count_waits(int holder) noexcept {
    const auto& masters = master_ports();
    u64* waits = stats_.wait_cycles.data();
    const auto excluded = static_cast<std::size_t>(holder);
    for (std::size_t i = 0; i < masters.size(); ++i)
        waits[i] += static_cast<u64>(masters[i].m_cmd() != ocp::Cmd::Idle) &
                    static_cast<u64>(i != excluded);
}

void AhbBus::eval() {
    const auto& masters = master_ports();
    // Default-drive the wires this bus owns; the bridge re-drives the
    // active ones below. Only the ports the bridge drove since the last pass
    // can be non-idle, so only those are tidied (every port on the first
    // pass). Skipped entirely while the bus is quiescent and the wires are
    // known clean (they persist).
    if (bridge_.active() || wires_dirty_) {
        if (tidy_all_) {
            for (const ocp::ChannelRef& m : masters) m.tidy_response();
            for (const ocp::ChannelRef& s : slaves_) s.tidy_request();
            tidy_all_ = false;
        } else {
            if (drove_master_ >= 0)
                masters[static_cast<std::size_t>(drove_master_)].tidy_response();
            if (drove_slave_ >= 0)
                slaves_[static_cast<std::size_t>(drove_slave_)].tidy_request();
        }
        wires_dirty_ = false;
    }

    if (bridge_.active()) {
        ++stats_.busy_cycles;
        wires_dirty_ = true;
        count_waits(owner_);
        if (bridge_.eval_cycle()) {
            owner_ = -1;
            target_slave_ = -1;
        }
        return;
    }

    const int winner = arbitrate();
    if (winner < 0) {
        ++stats_.idle_cycles;
        return;
    }
    // Losing candidates of this grant cycle start waiting now.
    count_waits(winner);
    wires_dirty_ = true;

    const ocp::ChannelRef m = masters[static_cast<std::size_t>(winner)];
    const auto slave_idx = map_.decode(m.m_addr());
    ocp::ChannelRef s;
    if (slave_idx) {
        s = slaves_[*slave_idx];
        stats_.slave_transactions[*slave_idx] += 1;
        target_slave_ = static_cast<int>(*slave_idx);
    } else {
        ++stats_.decode_errors;
        target_slave_ = -1;
    }
    owner_ = winner;
    rr_last_ = winner;
    drove_master_ = owner_;
    drove_slave_ = target_slave_;
    stats_.grants[winner] += 1;
    ++stats_.busy_cycles;
    bridge_.start(m, s);
    if (bridge_.eval_cycle()) {
        owner_ = -1;
        target_slave_ = -1;
    }
}

u64 AhbBus::contention_cycles() const {
    u64 total = 0;
    for (const u64 w : stats_.wait_cycles) total += w;
    return total;
}

} // namespace tgsim::ic
