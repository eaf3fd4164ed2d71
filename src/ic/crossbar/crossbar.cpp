#include "ic/crossbar/crossbar.hpp"

#include <algorithm>

namespace tgsim::ic {

std::size_t Crossbar::connect_master(ocp::ChannelRef ch, int /*node*/) {
    master_busy_.push_back(false);
    cooldown_.push_back(0);
    stats_.grants.push_back(0);
    stats_.wait_cycles.push_back(0);
    return track_master(ch);
}

std::size_t Crossbar::connect_slave(ocp::ChannelRef ch, u32 base, u32 size,
                                    int /*node*/, bool /*read_side_effects*/) {
    const std::size_t idx = map_.add_range(base, size);
    slaves_.push_back(SlavePort{});
    slaves_.back().ch = ch;
    candidates_.emplace_back();
    stats_.slave_transactions.push_back(0);
    return idx;
}

void Crossbar::eval() {
    const auto& masters = master_ports();
    for (const ocp::ChannelRef& m : masters) m.tidy_response();
    for (SlavePort& sp : slaves_) sp.ch.tidy_request();

    bool any_active = false;

    // Masters whose transaction completes during this eval cannot be granted
    // again until next cycle: they are still driving the stale command wires
    // and will only observe the completion in their update phase.
    std::fill(cooldown_.begin(), cooldown_.end(), u8{0});

    // Advance in-flight transactions.
    for (SlavePort& sp : slaves_) {
        if (!sp.bridge.active()) continue;
        any_active = true;
        if (sp.bridge.eval_cycle()) {
            master_busy_[static_cast<std::size_t>(sp.owner)] = false;
            cooldown_[static_cast<std::size_t>(sp.owner)] = 1;
            sp.owner = -1;
        }
    }
    if (err_bridge_.active()) {
        any_active = true;
        if (err_bridge_.eval_cycle()) {
            master_busy_[static_cast<std::size_t>(err_owner_)] = false;
            cooldown_[static_cast<std::size_t>(err_owner_)] = 1;
            err_owner_ = -1;
        }
    }

    // Arbitration: per slave, round-robin among masters whose fresh command
    // decodes to that slave and that are not already being served.
    const int n = static_cast<int>(masters.size());
    for (auto& c : candidates_) c.clear();
    for (int i = 0; i < n; ++i) {
        const auto ui = static_cast<std::size_t>(i);
        const ocp::ChannelRef m = masters[ui];
        if (m.m_cmd() == ocp::Cmd::Idle || master_busy_[ui] || cooldown_[ui])
            continue;
        const auto slave_idx = map_.decode(m.m_addr());
        if (!slave_idx) {
            if (!err_bridge_.active()) {
                ++stats_.decode_errors;
                stats_.grants[ui] += 1;
                master_busy_[ui] = true;
                err_owner_ = i;
                err_bridge_.start(m, ocp::ChannelRef{});
                err_bridge_.eval_cycle();
                any_active = true;
            } else {
                stats_.wait_cycles[ui] += 1;
            }
            continue;
        }
        candidates_[*slave_idx].push_back(i);
    }
    for (std::size_t sidx = 0; sidx < slaves_.size(); ++sidx) {
        SlavePort& sp = slaves_[sidx];
        const auto& req = candidates_[sidx];
        if (req.empty()) continue;
        if (sp.bridge.active()) {
            for (const int i : req)
                stats_.wait_cycles[static_cast<std::size_t>(i)] += 1;
            continue;
        }
        // Pick the first requester strictly after rr_last in cyclic order.
        int winner = req.front();
        int best_dist = n + 1;
        for (const int i : req) {
            const int dist = (i - sp.rr_last + n - 1) % n + 1;
            if (dist < best_dist) {
                best_dist = dist;
                winner = i;
            }
        }
        for (const int i : req) {
            if (i != winner)
                stats_.wait_cycles[static_cast<std::size_t>(i)] += 1;
        }
        const auto uw = static_cast<std::size_t>(winner);
        sp.owner = winner;
        sp.rr_last = winner;
        master_busy_[uw] = true;
        stats_.grants[uw] += 1;
        stats_.slave_transactions[sidx] += 1;
        sp.bridge.start(masters[uw], sp.ch);
        sp.bridge.eval_cycle();
        any_active = true;
    }

    if (any_active) ++stats_.busy_cycles;
}

u64 Crossbar::contention_cycles() const {
    u64 total = 0;
    for (const u64 w : stats_.wait_cycles) total += w;
    return total;
}

} // namespace tgsim::ic
