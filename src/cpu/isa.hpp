// Mini-RISC instruction set.
//
// tgsim's IP cores are in-order, single-pipeline 32-bit RISC processors — the
// stand-in for MPARM's ARMv7 cores (the exact ISA is immaterial to the
// paper's methodology; what matters is that cores run real programs whose
// traffic includes cache refills, blocking loads, posted stores and polling).
//
// Encoding (32-bit fixed width):
//   [31:24] opcode
//   [23:20] rd     [19:16] rs     [15:12] rt
//   [11:0]  imm12 (branch offsets, memory offsets, shift amounts)
//   [15:0]  imm16 (ALU-immediate ops, MOVI, LUI — they do not use rt)
//   [23:0]  simm24 (J/JAL word offset)
//
// Branch/jump offsets are in words, relative to pc+1. R0 is hardwired to 0.
#pragma once

#include <string>

#include "sim/types.hpp"

namespace tgsim::cpu {

enum class Op : u8 {
    // ALU register: rd = rs OP rt
    Add = 0x01,
    Sub = 0x02,
    And = 0x03,
    Or = 0x04,
    Xor = 0x05,
    Sll = 0x06,
    Srl = 0x07,
    Sra = 0x08,
    Mul = 0x09,
    Slt = 0x0A,  ///< rd = (signed) rs < rt
    Sltu = 0x0B, ///< rd = (unsigned) rs < rt

    // ALU immediate: rd = rs OP imm16 (sign-extended for ADDI/SLTI,
    // zero-extended for the logical ops; shifts use imm12)
    Addi = 0x11,
    Andi = 0x12,
    Ori = 0x13,
    Xori = 0x14,
    Slli = 0x15,
    Srli = 0x16,
    Srai = 0x17,
    Slti = 0x18,

    // Immediates
    Movi = 0x20, ///< rd = simm16
    Lui = 0x21,  ///< rd = imm16 << 16

    // Memory: LD rd, [rs + simm12] ; ST rt, [rs + simm12]
    Ld = 0x30,
    St = 0x31,

    // Control flow
    Beq = 0x40, ///< if (rs == rt) pc += simm12
    Bne = 0x41,
    Blt = 0x42, ///< signed
    Bge = 0x43, ///< signed
    J = 0x48,   ///< pc += simm24
    Jal = 0x49, ///< r15 = pc+1; pc += simm24
    Jr = 0x4A,  ///< pc = rs (word index)

    Nop = 0x00,
    Halt = 0xFF,
};

/// Register names. R14 is the conventional stack pointer, R15 the link
/// register written by JAL.
enum class Reg : u8 {
    R0 = 0, R1, R2, R3, R4, R5, R6, R7,
    R8, R9, R10, R11, R12, R13, R14, R15,
};
inline constexpr Reg kZero = Reg::R0;
inline constexpr Reg kSp = Reg::R14;
inline constexpr Reg kLr = Reg::R15;
inline constexpr int kNumRegs = 16;

struct DecodedInstr {
    Op op = Op::Nop;
    u8 rd = 0;
    u8 rs = 0;
    u8 rt = 0;
    i32 imm = 0; ///< sign- or zero-extended per the op's convention
};

[[nodiscard]] constexpr u32 encode_rrr(Op op, Reg rd, Reg rs, Reg rt) noexcept {
    return (u32(op) << 24) | (u32(rd) << 20) | (u32(rs) << 16) | (u32(rt) << 12);
}

/// Bit width of the immediate field of `op` (ALU-imm ops get 16 bits;
/// shifts, memory offsets and branches get 12).
[[nodiscard]] constexpr unsigned imm_bits(Op op) noexcept {
    switch (op) {
        case Op::Addi:
        case Op::Andi:
        case Op::Ori:
        case Op::Xori:
        case Op::Slti:
        case Op::Movi:
        case Op::Lui:
            return 16;
        case Op::J:
        case Op::Jal:
            return 24;
        default:
            return 12;
    }
}

[[nodiscard]] constexpr u32 encode_rri(Op op, Reg rd, Reg rs, i32 imm) noexcept {
    const u32 mask = (1u << imm_bits(op)) - 1u;
    return (u32(op) << 24) | (u32(rd) << 20) | (u32(rs) << 16) |
           (static_cast<u32>(imm) & mask);
}

[[nodiscard]] constexpr u32 encode_mem(Op op, Reg data, Reg base, i32 imm12) noexcept {
    // LD: data in rd; ST: data in rt.
    if (op == Op::Ld)
        return (u32(op) << 24) | (u32(data) << 20) | (u32(base) << 16) |
               (static_cast<u32>(imm12) & 0xFFFu);
    return (u32(op) << 24) | (u32(base) << 16) | (u32(data) << 12) |
           (static_cast<u32>(imm12) & 0xFFFu);
}

[[nodiscard]] constexpr u32 encode_ri16(Op op, Reg rd, i32 imm16) noexcept {
    return (u32(op) << 24) | (u32(rd) << 20) |
           (static_cast<u32>(imm16) & 0xFFFFu);
}

[[nodiscard]] constexpr u32 encode_branch(Op op, Reg rs, Reg rt, i32 off12) noexcept {
    return (u32(op) << 24) | (u32(rs) << 16) | (u32(rt) << 12) |
           (static_cast<u32>(off12) & 0xFFFu);
}

[[nodiscard]] constexpr u32 encode_j(Op op, i32 off24) noexcept {
    return (u32(op) << 24) | (static_cast<u32>(off24) & 0xFFFFFFu);
}

[[nodiscard]] constexpr i32 sign_extend(u32 value, unsigned bits) noexcept {
    const u32 mask = 1u << (bits - 1);
    const u32 trunc = value & ((1u << bits) - 1u);
    return static_cast<i32>((trunc ^ mask) - mask);
}

[[nodiscard]] DecodedInstr decode(u32 word) noexcept;

/// True when `op` uses a sign-extended immediate (vs zero-extended).
[[nodiscard]] constexpr bool signed_imm(Op op) noexcept {
    switch (op) {
        case Op::Andi:
        case Op::Ori:
        case Op::Xori:
        case Op::Slli:
        case Op::Srli:
        case Op::Srai:
        case Op::Lui:
            return false;
        default:
            return true;
    }
}

/// Mnemonic for the assembler's diagnostics.
[[nodiscard]] std::string mnemonic(Op op);

} // namespace tgsim::cpu
