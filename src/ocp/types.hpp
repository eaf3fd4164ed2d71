// OCP-subset protocol vocabulary.
//
// tgsim models the subset of the Open Core Protocol that MPARM used at the
// core/interconnect boundary: single and burst read/write commands with a
// command-accept handshake and a DVA (data-valid) response channel. Reads are
// blocking at the master, writes are posted (complete at command accept).
#pragma once

#include <string_view>

#include "sim/types.hpp"

namespace tgsim::ocp {

/// The word that stands in for data that does not exist: the data of an Err
/// response beat, and of a memory read outside its storage.
inline constexpr u32 kPoison = 0xDEADBEEFu;

/// Master command (MCmd). Burst commands carry a beat count in MBurstLen.
enum class Cmd : u8 {
    Idle = 0,
    Read = 1,
    Write = 2,
    BurstRead = 3,
    BurstWrite = 4,
};

/// Slave response (SResp).
enum class Resp : u8 {
    None = 0, ///< no response this cycle
    Dva = 1,  ///< data valid / accept
    Err = 2,  ///< error response (e.g. address decode failure)
};

[[nodiscard]] constexpr bool is_read(Cmd c) noexcept {
    return c == Cmd::Read || c == Cmd::BurstRead;
}
[[nodiscard]] constexpr bool is_write(Cmd c) noexcept {
    return c == Cmd::Write || c == Cmd::BurstWrite;
}
[[nodiscard]] constexpr bool is_burst(Cmd c) noexcept {
    return c == Cmd::BurstRead || c == Cmd::BurstWrite;
}

[[nodiscard]] constexpr std::string_view to_string(Cmd c) noexcept {
    switch (c) {
        case Cmd::Idle: return "IDLE";
        case Cmd::Read: return "RD";
        case Cmd::Write: return "WR";
        case Cmd::BurstRead: return "BRD";
        case Cmd::BurstWrite: return "BWR";
    }
    return "?";
}

[[nodiscard]] constexpr std::string_view to_string(Resp r) noexcept {
    switch (r) {
        case Resp::None: return "NULL";
        case Resp::Dva: return "DVA";
        case Resp::Err: return "ERR";
    }
    return "?";
}

} // namespace tgsim::ocp
