// Communication traces (.trc) collected at OCP interfaces.
//
// One Trace per master interface, containing every observed transaction with
// its assert/accept/response timestamps and data beats, plus the core's halt
// time (END record) so translated programs can reproduce total execution
// time. The OCP channel monitor (ocp/monitor.hpp) appends straight into a
// Trace; the translator reads it. The pretty printer renders the paper's
// Fig. 3(a) style with @ns timestamps (one TG cycle = 5 ns).
//
// Layout: the beats of every event live in one flat vector per trace; an
// event holds only its (offset, count) into it, so a trace of N events costs
// N * sizeof(TraceEvent) plus 4 bytes per beat, with no allocation per event.
#pragma once

#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "ocp/types.hpp"

namespace tgsim::tg {

struct TraceEvent {
    Cycle t_assert = 0;     ///< first cycle the command was driven
    Cycle t_accept = 0;     ///< cycle the (last) request beat was accepted
    Cycle t_resp_first = 0; ///< first response beat (reads; 0 for writes)
    Cycle t_resp_last = 0;  ///< last response beat (reads; 0 for writes)
    u32 addr = 0;
    u32 beat_off = 0;   ///< first beat in Trace::beats
    u16 beat_count = 0; ///< write beats driven / read beats returned
    u16 burst = 1;
    ocp::Cmd cmd = ocp::Cmd::Idle;

    /// The cycle at which the master resumed: response for blocking reads,
    /// accept for posted writes.
    [[nodiscard]] Cycle unblock() const noexcept {
        return ocp::is_read(cmd) ? t_resp_last : t_accept;
    }
};
static_assert(sizeof(TraceEvent) <= 48);

struct Trace {
    u32 core_id = 0;
    u32 thread_id = 0;
    std::vector<TraceEvent> events;
    /// Every event's beats, in event order. A transaction the monitor was
    /// still assembling when capture stopped leaves its beats at the end.
    std::vector<u32> beats;
    Cycle end_cycle = 0;    ///< core halt time (cycles)

    /// The beats of `ev`, an event of this trace.
    [[nodiscard]] std::span<const u32> beats_of(const TraceEvent& ev) const noexcept {
        return {beats.data() + ev.beat_off, ev.beat_count};
    }

    /// Appends `ev` with `data` as its beats (sets its beat range).
    void append(TraceEvent ev, std::span<const u32> data);

    /// Same transactions (fields and beats) and the same header; where the
    /// beats sit in `beats` does not matter.
    [[nodiscard]] bool operator==(const Trace& o) const;
};

/// Machine-readable serialization (round-trips exactly).
[[nodiscard]] std::string to_text(const Trace& trace);
/// Parses .trc text (docs/traffic.md); throws std::invalid_argument naming
/// the line on any malformed or out-of-range input.
[[nodiscard]] Trace trace_from_text(const std::string& text);

/// The 1-based line of the `index`-th event record (`EVT` line) in .trc
/// text, counted the way trace_from_text reads it; 0 when there is none.
[[nodiscard]] std::size_t event_line(const std::string& text, std::size_t index);

/// Paper-style rendering (Fig. 3(a)): "RD 0x000000ff @210ns" etc.
[[nodiscard]] std::string pretty(const Trace& trace, std::size_t max_events = 0);

} // namespace tgsim::tg
