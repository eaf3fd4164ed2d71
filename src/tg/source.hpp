// Traffic-source construction surface (docs/traffic.md).
//
// tg::SourceConfig is the single knob set describing HOW synthetic traffic
// is offered to the fabric, orthogonal to WHAT the traffic is (the spatial
// pattern / target set) and to the arrival process:
//
//   * Closed (the default): the classic StochasticTg loop — one outstanding
//     transaction per core, the next inter-arrival gap starts only after
//     the previous transaction completes. Self-throttling: past the
//     generator's service time the offered rate is unreachable regardless
//     of the fabric, so load–latency curves flatten before the network
//     congests (the load-shed blind spot the source paper warns about).
//   * Open: the offered rate keeps arriving regardless of completion. The
//     master NI buffers complete packets in a bounded pending queue and
//     injects them as the fabric drains, so multiple transactions per core
//     are in flight and the network — not the generator — saturates. This
//     is the methodology load–latency papers assume (and what Graphite /
//     garnet_standalone-style generators implement with their stalled-flit
//     pending queues).
//
// Every surface that builds sources takes a SourceConfig: tg::compile_patterns,
// Platform::load_stochastic, sweep::Candidate. On the tgsim_sweep command
// line the mode and both open-loop bounds are campaign identity, so shard
// merges and journal resumes refuse to mix closed- and open-loop rows.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "sim/types.hpp"

namespace tgsim::tg {

enum class SourceMode : u8 {
    Closed, ///< one outstanding transaction per core (legacy StochasticTg)
    Open,   ///< offered-rate injection into a bounded per-NI pending queue
};

[[nodiscard]] constexpr std::string_view to_string(SourceMode m) noexcept {
    switch (m) {
        case SourceMode::Closed: return "closed";
        case SourceMode::Open: return "open";
    }
    return "?";
}

[[nodiscard]] inline std::optional<SourceMode>
parse_source_mode(const std::string& name) {
    if (name == "closed") return SourceMode::Closed;
    if (name == "open") return SourceMode::Open;
    return std::nullopt;
}

struct SourceConfig {
    SourceMode mode = SourceMode::Closed;
    /// Offered injection rate override (transactions per core per cycle).
    /// 0 keeps the payload's own rate (PatternConfig::injection_rate or the
    /// per-core StochasticConfig arrival parameters) untouched.
    double rate = 0.0;
    /// Open mode: bound on read transactions in flight per master NI
    /// (injected, response not yet delivered). 0 = unbounded. Posted writes
    /// complete at injection and are never held against the bound.
    u32 max_outstanding = 0;
    /// Open mode: per-master-NI pending-packet queue bound. When the queue
    /// is full the source stalls (counted in master_wait_cycles) — the only
    /// backpressure an open-loop source ever sees.
    u32 pending_limit = 64;

    [[nodiscard]] bool open() const noexcept { return mode == SourceMode::Open; }
};

} // namespace tgsim::tg
