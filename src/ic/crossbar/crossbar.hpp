// STBus-like full crossbar interconnect.
//
// Every slave port has its own forwarding engine and round-robin arbiter, so
// transactions to different slaves proceed concurrently; masters contend only
// when targeting the same slave. Compared with the AHB model this removes
// the global serialization bottleneck — the kind of architectural difference
// the paper's TG flow is meant to let designers explore quickly.
#pragma once

#include <vector>

#include "ic/address_map.hpp"
#include "ic/bridge.hpp"
#include "ic/interconnect.hpp"

namespace tgsim::ic {

struct CrossbarStats {
    u64 busy_cycles = 0; ///< cycles with >=1 active transaction
    u64 decode_errors = 0;
    std::vector<u64> grants;      ///< per master
    std::vector<u64> wait_cycles; ///< per master
    std::vector<u64> slave_transactions;
};

class Crossbar final : public Interconnect {
public:
    Crossbar() = default;

    std::size_t connect_master(ocp::ChannelRef ch, int node = -1) override;
    std::size_t connect_slave(ocp::ChannelRef ch, u32 base, u32 size,
                              int node = -1, bool read_side_effects = false) override;

    void eval() override;
    void update() override {}
    [[nodiscard]] Cycle quiet_for() const override {
        if (err_bridge_.active()) return 0;
        for (const SlavePort& sp : slaves_)
            if (sp.bridge.active()) return 0;
        return sim::kQuietForever;
    }
    // Activity subscription: Interconnect::watch_inputs (all master gens).

    [[nodiscard]] const CrossbarStats& stats() const noexcept { return stats_; }
    [[nodiscard]] u64 busy_cycles() const override { return stats_.busy_cycles; }
    [[nodiscard]] u64 contention_cycles() const override;

private:
    struct SlavePort {
        ocp::ChannelRef ch;
        Bridge bridge;
        int owner = -1; ///< master index currently served
        int rr_last = -1;
    };

    std::vector<bool> master_busy_; ///< master has a transaction in flight
    std::vector<SlavePort> slaves_;
    /// Per-cycle scratch, hoisted out of eval() so the hot path stays
    /// allocation-free: masters completing this cycle (sized per master in
    /// connect_master) and per-slave arbitration candidates (one entry per
    /// slave, cleared but never shrunk between cycles).
    std::vector<u8> cooldown_;
    std::vector<std::vector<int>> candidates_;
    /// Decode-error transactions are flushed by a dedicated bridge.
    Bridge err_bridge_;
    int err_owner_ = -1;
    AddressMap map_;
    CrossbarStats stats_;
};

} // namespace tgsim::ic
