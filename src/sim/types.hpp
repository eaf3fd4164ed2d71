// Common scalar aliases and small helpers shared by every tgsim module.
#pragma once

#include <cstdint>

namespace tgsim {

using u8 = std::uint8_t;
using u16 = std::uint16_t;
using u32 = std::uint32_t;
using u64 = std::uint64_t;
using i32 = std::int32_t;
using i64 = std::int64_t;

/// Simulated clock cycle index. One cycle is one kernel tick; the platform
/// nominally maps it to 5 ns (200 MHz), matching the paper's TG cycle time.
using Cycle = u64;

/// Nominal cycle period in nanoseconds (used only for pretty-printing traces
/// in the paper's "@55ns" style; all internal arithmetic is in cycles).
inline constexpr u64 kCyclePeriodNs = 5;

} // namespace tgsim
