// Common interface implemented by every interconnect model (AMBA AHB-like
// shared bus, STBus-like crossbar, ×pipes-like packet NoC). The platform
// builder wires masters and slaves through this interface, so an experiment
// can swap fabrics without touching anything else — the property the paper's
// TG methodology exploits.
#pragma once

#include <cstddef>
#include <vector>

#include "ocp/channel.hpp"
#include "sim/kernel.hpp"

namespace tgsim::ic {

class Interconnect : public sim::Clocked {
public:
    /// Attaches a master-side channel (the interconnect is the acceptor).
    /// `node` is a topology placement hint used by mesh fabrics; bus-style
    /// fabrics ignore it. Returns the master port index. Implementations
    /// must register the channel via track_master() so the shared activity
    /// subscription below covers it.
    virtual std::size_t connect_master(ocp::ChannelRef ch, int node) = 0;

    /// Attaches a slave-side channel decoded at [base, base+size).
    /// `read_side_effects` marks a slave whose reads change its state
    /// (mem::SlaveDevice::read_side_effects()): a fabric that replays
    /// requests must then answer a replayed read without reading again.
    /// Returns the slave port index.
    virtual std::size_t connect_slave(ocp::ChannelRef ch, u32 base, u32 size,
                                      int node, bool read_side_effects = false) = 0;

    /// Cycles during which at least one transaction was in flight.
    [[nodiscard]] virtual u64 busy_cycles() const = 0;
    /// Cycles a master spent requesting without being served (summed over
    /// masters) — the contention measure used by the saturation analyses.
    [[nodiscard]] virtual u64 contention_cycles() const = 0;

    /// Shared activity subscription for every fabric: a quiescent
    /// interconnect reacts only to a master asserting a command (slave wires
    /// never move while no transaction is in flight), so it watches the
    /// master-side gen counters of all tracked ports. Final so the fabrics
    /// cannot drift apart in their watch semantics. Adjacent store indices
    /// coalesce into contiguous counter ranges — a platform that allocates
    /// its master channels back-to-back is watched as one straight sweep.
    void watch_inputs(std::vector<sim::WatchRange>& out) const final {
        const ocp::ChannelStore* store = nullptr;
        u32 first = 0;
        u32 count = 0;
        for (const ocp::ChannelRef& m : master_ports_) {
            if (m.store() == store && m.index() == first + count) {
                ++count;
                continue;
            }
            if (count > 0) out.push_back(store->m_gen_range(first, count));
            store = m.store();
            first = m.index();
            count = 1;
        }
        if (count > 0) out.push_back(store->m_gen_range(first, count));
    }

    ~Interconnect() override = default;

protected:
    /// Records a master port for the shared watch subscription; returns its
    /// port index. Call from connect_master().
    std::size_t track_master(ocp::ChannelRef ch) {
        master_ports_.push_back(ch);
        return master_ports_.size() - 1;
    }

    /// Tracked master ports in connection order; fabrics iterate this in
    /// their default-drive and arbitration scans.
    [[nodiscard]] const std::vector<ocp::ChannelRef>& master_ports() const noexcept {
        return master_ports_;
    }

private:
    std::vector<ocp::ChannelRef> master_ports_;
};

} // namespace tgsim::ic
