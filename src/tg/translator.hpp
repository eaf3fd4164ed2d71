// Trace → TG-program translator (paper Sec. 5).
//
// Three fidelity levels, matching the taxonomy of paper Sec. 3:
//
//   * Clone      — replays commands at the absolute timestamps observed in
//                  the reference run (IdleUntil anchors). Ignores response
//                  timing, so it drifts as soon as network latency changes.
//   * Timeshift  — ties every command to the completion of the previous one
//                  (response for blocking reads, accept for posted writes)
//                  with explicit Idle waits sized from the trace. Adapts to
//                  latency changes but replays the recorded number of
//                  polling transactions.
//   * Reactive   — timeshifting plus polling recognition: consecutive reads
//                  to an address registered as pollable collapse into a
//                  Read/If loop, so the amount of polling traffic is
//                  *generated* by the new environment rather than duplicated
//                  from the old one. This is the paper's TG.
//
// Think-time rule (interconnect-independence): for each command,
//   idle = t_assert - unblock(prev) - setups - exit_overhead - 2
// where the constant 2 covers the one-cycle execute->assert offset shared by
// the core and the TG, and setups counts the SetRegister instructions the
// translator emits (register values are cached; first uses are free via
// REGISTER directives). All inputs to this formula are core-think quantities,
// which is why traces from different interconnects translate to identical
// programs (paper Sec. 6, first experiment). When the think time is smaller
// than the setup overhead the idle clamps at zero and the TG asserts late by
// the difference — the paper's residual "minimal timing mismatches".
#pragma once

#include <vector>

#include "tg/program.hpp"
#include "tg/trace.hpp"

namespace tgsim::tg {

enum class TgMode : u8 { Clone, Timeshift, Reactive };

[[nodiscard]] constexpr std::string_view to_string(TgMode m) noexcept {
    switch (m) {
        case TgMode::Clone: return "clone";
        case TgMode::Timeshift: return "timeshift";
        case TgMode::Reactive: return "reactive";
    }
    return "?";
}

/// Knowledge about a pollable resource (paper: "the TG must be able to
/// recognize polling accesses — a knowledge of what addressing ranges
/// represent pollable resources").
struct PollSpec {
    u32 base = 0;
    u32 size = 0;
    /// The loop repeats while compare(retry_cmp, rdreg, retry_value) holds
    /// (e.g. semaphore: retry while rdreg == 0).
    TgCmp retry_cmp = TgCmp::Eq;
    u32 retry_value = 0;
    /// Idle cycles inside the loop body reproducing the core's polling
    /// period (branch penalty and any extra loop instructions).
    u32 inter_poll_idle = 0;

    [[nodiscard]] bool contains(u32 addr) const noexcept {
        return addr >= base && addr - base < size;
    }
};

struct TranslateOptions {
    TgMode mode = TgMode::Reactive;
    std::vector<PollSpec> polls;
    /// Emit Jump(start) instead of Halt (the paper's rewinding TG).
    bool loop_forever = false;
};

struct TranslateResult {
    TgProgram program;
    u64 events_in = 0;
    u64 polls_collapsed = 0; ///< poll reads absorbed into loops
    u64 poll_loops = 0;      ///< loops emitted
    u64 clamped_idles = 0;   ///< think time smaller than setup overhead
    u64 data_warnings = 0;   ///< poll-run data inconsistent with the spec
    /// Index in Trace::events of the first read behind data_warnings
    /// (meaningful only when data_warnings > 0).
    std::size_t first_warning = 0;
};

[[nodiscard]] TranslateResult translate(const Trace& trace,
                                        const TranslateOptions& options);

} // namespace tgsim::tg
