#include "cpu/isa.hpp"

namespace tgsim::cpu {

DecodedInstr decode(u32 word) noexcept {
    DecodedInstr d;
    d.op = static_cast<Op>((word >> 24) & 0xFFu);
    d.rd = static_cast<u8>((word >> 20) & 0xFu);
    d.rs = static_cast<u8>((word >> 16) & 0xFu);
    d.rt = static_cast<u8>((word >> 12) & 0xFu);
    const unsigned bits = imm_bits(d.op);
    d.imm = signed_imm(d.op)
                ? sign_extend(word, bits)
                : static_cast<i32>(word & ((1u << bits) - 1u));
    return d;
}

std::string mnemonic(Op op) {
    switch (op) {
        case Op::Add: return "add";
        case Op::Sub: return "sub";
        case Op::And: return "and";
        case Op::Or: return "or";
        case Op::Xor: return "xor";
        case Op::Sll: return "sll";
        case Op::Srl: return "srl";
        case Op::Sra: return "sra";
        case Op::Mul: return "mul";
        case Op::Slt: return "slt";
        case Op::Sltu: return "sltu";
        case Op::Addi: return "addi";
        case Op::Andi: return "andi";
        case Op::Ori: return "ori";
        case Op::Xori: return "xori";
        case Op::Slli: return "slli";
        case Op::Srli: return "srli";
        case Op::Srai: return "srai";
        case Op::Slti: return "slti";
        case Op::Movi: return "movi";
        case Op::Lui: return "lui";
        case Op::Ld: return "ld";
        case Op::St: return "st";
        case Op::Beq: return "beq";
        case Op::Bne: return "bne";
        case Op::Blt: return "blt";
        case Op::Bge: return "bge";
        case Op::J: return "j";
        case Op::Jal: return "jal";
        case Op::Jr: return "jr";
        case Op::Nop: return "nop";
        case Op::Halt: return "halt";
    }
    return "op?";
}

} // namespace tgsim::cpu
