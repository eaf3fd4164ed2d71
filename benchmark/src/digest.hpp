// FNV-1a style digest of everything a simulation produced. Two runs of the
// same op must agree on it exactly: across the reps of one run, and between
// the untraced run and the traced run rebuilt from public parts.
#pragma once

#include <string_view>
#include <vector>

#include "ic/amba/ahb_bus.hpp"
#include "ic/xpipes/xpipes.hpp"
#include "mem/memory.hpp"
#include "platform/platform.hpp"

namespace tgsim::bench {

class Digest {
public:
    void add(u64 w) noexcept { h_ = (h_ ^ w) * 0x100000001b3ull; }
    /// Bytes alone, so a stream hashes the same however it is chunked.
    void add_bytes(std::string_view s) noexcept {
        for (const char c : s) add(static_cast<unsigned char>(c));
    }
    template <typename T>
    void add_all(const std::vector<T>& v) noexcept {
        add(v.size());
        for (const T& x : v) add(static_cast<u64>(x));
    }
    void add_latency(const stats::LatencyStats& s) noexcept { add_all(s.samples()); }

    void add_run(const platform::RunResult& r) noexcept {
        add(r.completed ? 1 : 0);
        add(r.cycles);
        add(r.total_instructions);
        add_all(r.per_core);
    }

    /// Behavioural statistics of the fabric, by concrete type.
    void add_fabric(const ic::Interconnect& ic) {
        add(ic.busy_cycles());
        add(ic.contention_cycles());
        if (const auto* bus = dynamic_cast<const ic::AhbBus*>(&ic)) {
            const ic::AhbStats& s = bus->stats();
            add(s.idle_cycles);
            add(s.decode_errors);
            add_all(s.grants);
            add_all(s.wait_cycles);
            add_all(s.slave_transactions);
        }
        if (const auto* mesh = dynamic_cast<const ic::XpipesNetwork*>(&ic)) {
            const ic::XpipesStats& s = mesh->stats();
            for (const u64 v : {s.flits_routed, s.packets_sent, s.decode_errors,
                                s.router_visits, s.router_phase_cycles,
                                s.req_packets_delivered, s.resp_packets_delivered,
                                s.resp_err_packets, s.pending_peak, s.last_delivery})
                add(v);
            add_all(s.master_wait_cycles);
            add_latency(s.packet_latency);
            add_latency(s.net_latency);
            add_latency(s.source_q_latency);
            const stats::ReliabilityStats& r = s.reliability;
            for (const u64 v : {r.injected, r.delivered, r.err_delivered, r.recovered,
                                r.lost, r.retries, r.flits_corrupted, r.packets_dropped,
                                r.stall_events, r.stall_cycles, r.checksum_fails,
                                r.stale_discarded, r.dup_requests})
                add(v);
            add_latency(r.retry_latency);
        }
    }

    void add_memory(const mem::MemorySlave& m) {
        for (u32 a = 0; a < m.size_bytes(); a += 4) add(m.peek(m.base() + a));
    }

    [[nodiscard]] u64 value() const noexcept { return h_; }

private:
    u64 h_ = 0xcbf29ce484222325ull;
};

} // namespace tgsim::bench
