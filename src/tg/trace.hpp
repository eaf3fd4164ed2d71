// Communication traces (.trc) collected at OCP interfaces.
//
// One Trace per master interface, containing every observed transaction with
// its assert/accept/response timestamps and data beats, plus the core's halt
// time (END record) so translated programs can reproduce total execution
// time. The pretty printer renders the paper's Fig. 3(a) style with @ns
// timestamps (one TG cycle = 5 ns).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "ocp/monitor.hpp"

namespace tgsim::tg {

struct TraceEvent {
    ocp::Cmd cmd = ocp::Cmd::Idle;
    u32 addr = 0;
    u16 burst = 1;
    Cycle t_assert = 0;
    Cycle t_accept = 0;
    Cycle t_resp_first = 0; ///< reads only (0 otherwise)
    Cycle t_resp_last = 0;  ///< reads only
    std::vector<u32> data;  ///< write beats driven / read beats returned

    /// The cycle at which the master resumed: response for blocking reads,
    /// accept for posted writes.
    [[nodiscard]] Cycle unblock() const noexcept {
        return ocp::is_read(cmd) ? t_resp_last : t_accept;
    }

    [[nodiscard]] bool operator==(const TraceEvent&) const = default;
};

struct Trace {
    u32 core_id = 0;
    u32 thread_id = 0;
    std::vector<TraceEvent> events;
    Cycle end_cycle = 0; ///< core halt time (cycles)

    [[nodiscard]] bool operator==(const Trace&) const = default;
};

[[nodiscard]] TraceEvent from_record(const ocp::TransactionRecord& rec);

/// Machine-readable serialization (round-trips exactly).
[[nodiscard]] std::string to_text(const Trace& trace);
[[nodiscard]] Trace trace_from_text(const std::string& text);

/// Paper-style rendering (Fig. 3(a)): "RD 0x000000ff @210ns" etc.
[[nodiscard]] std::string pretty(const Trace& trace, std::size_t max_events = 0);

/// File helper.
[[nodiscard]] Trace load(const std::string& path);

} // namespace tgsim::tg
