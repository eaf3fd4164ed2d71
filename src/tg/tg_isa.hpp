// Traffic-generator instruction set (paper Table 1).
//
// The TG is a very simple multi-cycle instruction-set processor with an
// instruction memory and a 16-entry register file but no data memory.
// Register r0 is `rdreg`, the special register that receives the data of
// every read response (last beat for bursts).
//
// Paper instructions: Read, Write, BurstRead, BurstWrite, If, Jump,
// SetRegister, Idle. tgsim extensions (docs/traffic.md):
//
//   * Halt       — terminates the program so execution-time metrics exist
//                  (the paper's examples rewind with Jump(start) instead);
//   * IdleUntil  — waits until an absolute cycle; used by the "cloning"
//                  translator mode of the Sec. 3 ablation;
//   * IfImm      — If with an immediate right-hand side;
//   * BurstWrite carries its data beats inline in instruction memory.
//
// Every instruction executes in exactly one TG cycle (the instruction store
// is wide enough to deliver multi-word instructions in one fetch); Idle(n)
// occupies n cycles; OCP instructions block until their transaction
// completes (accept for writes, last response beat for reads).
#pragma once

#include <iterator>
#include <string_view>

#include "sim/types.hpp"

namespace tgsim::tg {

enum class TgOp : u8 {
    Read = 0x01,        ///< Read(areg) -> rdreg
    Write = 0x02,       ///< Write(areg, dreg)
    BurstRead = 0x03,   ///< BurstRead(areg, count) -> rdreg (last beat)
    BurstWrite = 0x04,  ///< BurstWrite(areg, count) + inline beat words
    If = 0x05,          ///< If(lhs_reg CMP rhs_reg) then <target>
    IfImm = 0x06,       ///< If(lhs_reg CMP imm32) then <target>
    Jump = 0x07,        ///< Jump(<target>)
    SetRegister = 0x08, ///< SetRegister(reg, imm32)
    Idle = 0x09,        ///< Idle(cycles)
    IdleUntil = 0x0A,   ///< wait until absolute TG cycle (clone mode)
    Halt = 0x0B,        ///< terminate
};

enum class TgCmp : u8 {
    Eq = 0,
    Ne = 1,
    Ltu = 2, ///< unsigned <
    Geu = 3, ///< unsigned >=
    Lts = 4, ///< signed <
    Ges = 5, ///< signed >=
};

inline constexpr int kTgNumRegs = 16;
inline constexpr u8 kRdReg = 0; ///< r0 receives read response data

[[nodiscard]] constexpr bool compare(TgCmp cmp, u32 lhs, u32 rhs) noexcept {
    switch (cmp) {
        case TgCmp::Eq: return lhs == rhs;
        case TgCmp::Ne: return lhs != rhs;
        case TgCmp::Ltu: return lhs < rhs;
        case TgCmp::Geu: return lhs >= rhs;
        case TgCmp::Lts: return static_cast<i32>(lhs) < static_cast<i32>(rhs);
        case TgCmp::Ges: return static_cast<i32>(lhs) >= static_cast<i32>(rhs);
    }
    return false;
}

[[nodiscard]] constexpr std::string_view to_string(TgCmp cmp) noexcept {
    switch (cmp) {
        case TgCmp::Eq: return "==";
        case TgCmp::Ne: return "!=";
        case TgCmp::Ltu: return "<u";
        case TgCmp::Geu: return ">=u";
        case TgCmp::Lts: return "<s";
        case TgCmp::Ges: return ">=s";
    }
    return "?";
}

// Binary word-0 encoding: [31:24] op  [23:20] a  [19:16] b  [15:12] cmp
// [11:0] imm12 (burst beat count).
[[nodiscard]] constexpr u32 encode_w0(TgOp op, u8 a = 0, u8 b = 0,
                                      TgCmp cmp = TgCmp::Eq,
                                      u32 imm12 = 0) noexcept {
    return (u32(op) << 24) | ((a & 0xFu) << 20) | ((b & 0xFu) << 16) |
           (u32(cmp) << 12) | (imm12 & 0xFFFu);
}

struct TgWord0 {
    TgOp op;
    u8 a;
    u8 b;
    TgCmp cmp;
    u32 imm12;
};

[[nodiscard]] constexpr TgWord0 decode_w0(u32 w) noexcept {
    return TgWord0{static_cast<TgOp>((w >> 24) & 0xFFu),
                   static_cast<u8>((w >> 20) & 0xFu),
                   static_cast<u8>((w >> 16) & 0xFu),
                   static_cast<TgCmp>((w >> 12) & 0xFu), w & 0xFFFu};
}

/// The operand shape of one op: which word-0 fields it carries and which
/// words follow word 0, always in the order imm32, branch target, inline
/// beats. The .tgp text lists the operands in table order,
/// `Name(a, b, count, imm, target)`; a compare op writes
/// `Name(a cmp b|imm) then <target>`, BurstWrite appends `{beat, ...}`,
/// and an op with no operand is its bare name. kTgOps is the one place the encoding and the text
/// shape are written down: the .tgp reader and writer, the assembler and
/// the disassembler all read it, and a field an op does not carry is
/// neither encoded, decoded nor validated. tg::step() executes the ops.
struct TgOpInfo {
    TgOp op;
    std::string_view name;
    bool a = false;      ///< word 0 carries register a
    bool b = false;      ///< word 0 carries register b
    bool cmp = false;    ///< word 0 carries a comparison
    bool count = false;  ///< word 0 carries a burst count in [11:0]
    bool imm = false;    ///< an imm32 word follows word 0
    bool target = false; ///< a branch-target word follows
    bool beats = false;  ///< `count` beat words follow
    bool hex = false;    ///< .tgp prints the imm32 in hex, not decimal

    /// Encoded words of an instruction of this op with burst count `burst`.
    [[nodiscard]] constexpr u32 words(u32 burst) const noexcept {
        return 1 + u32{imm} + u32{target} + (beats ? burst : 0);
    }
};

inline constexpr TgOpInfo kTgOps[] = {
    {.op = TgOp::Read, .name = "Read", .a = true},
    {.op = TgOp::Write, .name = "Write", .a = true, .b = true},
    {.op = TgOp::BurstRead, .name = "BurstRead", .a = true, .count = true},
    {.op = TgOp::BurstWrite, .name = "BurstWrite", .a = true, .count = true,
     .beats = true},
    {.op = TgOp::If, .name = "If", .a = true, .b = true, .cmp = true,
     .target = true},
    {.op = TgOp::IfImm, .name = "IfImm", .a = true, .cmp = true, .imm = true,
     .target = true, .hex = true},
    {.op = TgOp::Jump, .name = "Jump", .target = true},
    {.op = TgOp::SetRegister, .name = "SetRegister", .a = true, .imm = true,
     .hex = true},
    {.op = TgOp::Idle, .name = "Idle", .imm = true},
    {.op = TgOp::IdleUntil, .name = "IdleUntil", .imm = true},
    {.op = TgOp::Halt, .name = "Halt"},
};

/// The table row of `op`, or nullptr for a byte that is no opcode.
[[nodiscard]] constexpr const TgOpInfo* op_info(TgOp op) noexcept {
    const u32 row = u32(op) - u32(TgOp::Read); // wraps for 0
    return row < std::size(kTgOps) ? &kTgOps[row] : nullptr;
}

static_assert([] {
    for (const TgOpInfo& info : kTgOps)
        if (op_info(info.op) != &info) return false;
    return true;
}(), "kTgOps rows must follow the opcode order");

/// Total encoded words of the instruction starting with `w0` (1 for a word
/// whose op byte is no opcode).
[[nodiscard]] constexpr u32 encoded_words(const TgWord0& w0) noexcept {
    const TgOpInfo* info = op_info(w0.op);
    return info != nullptr ? info->words(w0.imm12) : 1;
}

} // namespace tgsim::tg
