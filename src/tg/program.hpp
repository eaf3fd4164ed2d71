// Symbolic TG program (.tgp) and its binary image (.bin).
//
// The translator produces a TgProgram; the assembler lowers it to the word
// image executed by TgCore (or, in the paper's vision, loaded into a silicon
// TG's instruction memory). The canonical text form mirrors the paper's
// Fig. 3(b):
//
//   ; tgsim TG program
//   MASTER[0,0]
//   REGISTER r1 0x00000104
//   BEGIN
//     Idle(11)
//     Read(r1)
//   poll0:
//     Read(r1)
//     If(r0 == r3) then poll0
//     Halt
//   END
//
// Canonical text is byte-comparable: the paper's cross-interconnect
// validation ("the .tgp programs showed no difference at all") is reproduced
// by comparing these strings.
#pragma once

#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "tg/tg_isa.hpp"

namespace tgsim::tg {

struct TgInstr {
    TgOp op = TgOp::Halt;
    u8 a = 0;          ///< first register operand
    u8 b = 0;          ///< second register operand
    TgCmp cmp = TgCmp::Eq;
    u32 imm = 0;       ///< imm32 (SetRegister/Idle/IfImm) or beat count
    u32 target = 0;    ///< branch target: instruction INDEX
    u32 beat_off = 0;  ///< BurstWrite: first of its `imm` beats in TgProgram::beats

    [[nodiscard]] bool operator==(const TgInstr&) const = default;
};
static_assert(sizeof(TgInstr) == 16);

struct TgProgram {
    u32 core_id = 0;
    u32 thread_id = 0;
    std::vector<TgInstr> instrs;
    /// Every BurstWrite's beats, flat; each BurstWrite holds its offset.
    std::vector<u32> beats;
    /// Initial register file contents (index -> value), omitting zeros.
    std::map<u8, u32> reg_init;
    /// Pretty labels for branch targets (instruction index -> name).
    std::map<u32, std::string> labels;

    /// The beats of BurstWrite `in`; throws std::invalid_argument when its
    /// range lies outside `beats`.
    [[nodiscard]] std::span<const u32> beats_of(const TgInstr& in) const;

    /// Appends BurstWrite(r`areg`, data.size()) carrying `data`.
    void push_burst_write(u8 areg, std::span<const u32> data);

    /// Same instructions, BurstWrite beats and register presets; labels are
    /// cosmetic and where the beats sit in `beats` does not matter.
    [[nodiscard]] bool operator==(const TgProgram& o) const;
};

/// Canonical .tgp text (deterministic; suitable for byte comparison).
/// Throws std::invalid_argument on an instruction with an unknown opcode.
[[nodiscard]] std::string to_text(const TgProgram& prog);

/// Parses .tgp text (docs/traffic.md); throws std::invalid_argument naming
/// the line on any malformed or out-of-range input. A parsed program always
/// assembles.
[[nodiscard]] TgProgram program_from_text(const std::string& text);

/// Lowers to the binary word image executed by TgCore. Branch targets are
/// resolved from instruction indices to word addresses. Throws
/// std::invalid_argument on a program the image cannot encode: a burst count
/// outside [1, ocp::kMaxBurstLen], a register past r15, a BurstWrite whose
/// beats lie outside `beats`, or a branch past the last instruction.
[[nodiscard]] std::vector<u32> assemble(const TgProgram& prog);

/// A program lowered once to everything a TgCore needs at load time: the
/// binary image plus the register presets (which are not part of the image).
/// Design-space sweeps assemble each program once and inject the same
/// read-only AssembledTg set into every candidate platform — no
/// per-candidate re-translation or re-assembly. Core assignment is purely
/// positional (element i loads onto core i), same as the TgProgram path.
struct AssembledTg {
    std::vector<u32> image;
    std::vector<std::pair<u8, u32>> reg_init;
};

[[nodiscard]] AssembledTg assemble_tg(const TgProgram& prog);
[[nodiscard]] std::vector<AssembledTg> assemble_all(
    const std::vector<TgProgram>& progs);

/// Recovers a TgProgram from a binary image (labels regenerated as L<n>).
/// Register initialisation is not part of the image and comes back empty.
/// Throws std::invalid_argument on an image that does not decode: unknown
/// opcode or comparison, a truncated instruction, a burst count outside
/// [1, ocp::kMaxBurstLen], or a branch into the middle of an instruction.
[[nodiscard]] TgProgram disassemble(const std::vector<u32>& image);

} // namespace tgsim::tg
