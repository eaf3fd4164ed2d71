// Unit tests for the TG ISA, program text/binary round-trips, the TG
// processor model, the stochastic baseline and the TG slave entities.
#include <gtest/gtest.h>

#include <algorithm>

#include "fuzz_util.hpp"
#include "mem/memory.hpp"
#include "mem/semaphore.hpp"
#include "ocp/monitor.hpp"
#include "sim/rng.hpp"
#include "test_util.hpp"
#include "tg/program.hpp"
#include "tg/stochastic.hpp"
#include "tg/tg_core.hpp"
#include "tg/tg_slaves.hpp"

namespace tgsim::test {
namespace {

using namespace tgsim::tg;

// --- ISA ---

TEST(TgIsa, Word0RoundTrip) {
    const u32 w = encode_w0(TgOp::If, 3, 7, TgCmp::Geu, 0x123);
    const TgWord0 d = decode_w0(w);
    EXPECT_EQ(d.op, TgOp::If);
    EXPECT_EQ(d.a, 3);
    EXPECT_EQ(d.b, 7);
    EXPECT_EQ(d.cmp, TgCmp::Geu);
    EXPECT_EQ(d.imm12, 0x123u);
}

TEST(TgIsa, CompareSemantics) {
    EXPECT_TRUE(compare(TgCmp::Eq, 5, 5));
    EXPECT_FALSE(compare(TgCmp::Eq, 5, 6));
    EXPECT_TRUE(compare(TgCmp::Ne, 5, 6));
    EXPECT_TRUE(compare(TgCmp::Ltu, 5, 6));
    EXPECT_FALSE(compare(TgCmp::Ltu, 0xFFFFFFFF, 1));
    EXPECT_TRUE(compare(TgCmp::Geu, 6, 6));
    EXPECT_TRUE(compare(TgCmp::Lts, static_cast<u32>(-3), 1));
    EXPECT_TRUE(compare(TgCmp::Ges, 1, static_cast<u32>(-3)));
}

TEST(TgIsa, EncodedWordsPerOp) {
    EXPECT_EQ(encoded_words({TgOp::Read, 0, 0, TgCmp::Eq, 0}), 1u);
    EXPECT_EQ(encoded_words({TgOp::SetRegister, 0, 0, TgCmp::Eq, 0}), 2u);
    EXPECT_EQ(encoded_words({TgOp::IfImm, 0, 0, TgCmp::Eq, 0}), 3u);
    EXPECT_EQ(encoded_words({TgOp::BurstWrite, 0, 0, TgCmp::Eq, 6}), 7u);
}

// --- Program representation ---

TgProgram sample_program() {
    TgProgram p;
    p.core_id = 2;
    p.thread_id = 0;
    p.reg_init[1] = 0x1000;
    p.reg_init[3] = 1;
    TgInstr i0;
    i0.op = TgOp::Idle;
    i0.imm = 11;
    TgInstr i1;
    i1.op = TgOp::Read;
    i1.a = 1;
    TgInstr i2;
    i2.op = TgOp::If;
    i2.a = kRdReg;
    i2.b = 3;
    i2.cmp = TgCmp::Eq;
    i2.target = 1;
    TgInstr i3;
    i3.op = TgOp::SetRegister;
    i3.a = 2;
    i3.imm = 0xABCD;
    TgInstr i4;
    i4.op = TgOp::Write;
    i4.a = 1;
    i4.b = 2;
    TgInstr i5;
    i5.op = TgOp::BurstWrite;
    i5.a = 1;
    i5.imm = 3;
    p.beats = {9, 8, 7};
    TgInstr i6;
    i6.op = TgOp::BurstRead;
    i6.a = 1;
    i6.imm = 4;
    TgInstr i7;
    i7.op = TgOp::IfImm;
    i7.a = kRdReg;
    i7.cmp = TgCmp::Ne;
    i7.imm = 5;
    i7.target = 6;
    TgInstr i8;
    i8.op = TgOp::Halt;
    p.instrs = {i0, i1, i2, i3, i4, i5, i6, i7, i8};
    p.labels[1] = "poll0";
    return p;
}

TEST(TgProgram, TextRoundTrip) {
    const TgProgram p = sample_program();
    const std::string text = to_text(p);
    const TgProgram q = program_from_text(text);
    EXPECT_EQ(p, q);
    // Canonical: printing again gives identical bytes.
    EXPECT_EQ(to_text(q), text);
}

TEST(TgProgram, TextContainsPaperStyleConstructs) {
    const std::string text = to_text(sample_program());
    EXPECT_NE(text.find("MASTER[2,0]"), std::string::npos);
    EXPECT_NE(text.find("REGISTER r1 0x00001000"), std::string::npos);
    EXPECT_NE(text.find("poll0:"), std::string::npos);
    EXPECT_NE(text.find("If(r0 == r3) then poll0"), std::string::npos);
    EXPECT_NE(text.find("Idle(11)"), std::string::npos);
}

TEST(TgProgram, ParserRejectsMalformedInput) {
    EXPECT_THROW(program_from_text("MASTER[0,0]\nBEGIN\n  Halt\n"),
                 std::invalid_argument); // missing END
    EXPECT_THROW(program_from_text("MASTER[0,0]\nBEGIN\n  Frobnicate(r1)\nEND\n"),
                 std::invalid_argument);
    EXPECT_THROW(program_from_text("MASTER[0,0]\nBEGIN\n  Read(r99)\nEND\n"),
                 std::invalid_argument);
    EXPECT_THROW(
        program_from_text("MASTER[0,0]\nBEGIN\n  Jump(nowhere)\nEND\n"),
        std::invalid_argument);
    EXPECT_THROW(program_from_text("garbage\nBEGIN\nEND\n"),
                 std::invalid_argument);
}

TEST(TgProgram, BinaryRoundTrip) {
    const TgProgram p = sample_program();
    const auto image = assemble(p);
    const TgProgram q = disassemble(image);
    EXPECT_EQ(assemble(q).size(), image.size());
    ASSERT_EQ(q.instrs.size(), p.instrs.size());
    for (std::size_t i = 0; i < p.instrs.size(); ++i) {
        EXPECT_EQ(q.instrs[i].op, p.instrs[i].op) << "instr " << i;
        EXPECT_EQ(q.instrs[i].a, p.instrs[i].a) << "instr " << i;
        EXPECT_EQ(q.instrs[i].target, p.instrs[i].target) << "instr " << i;
        if (p.instrs[i].op == TgOp::BurstWrite) {
            EXPECT_TRUE(std::ranges::equal(q.beats_of(q.instrs[i]),
                                           p.beats_of(p.instrs[i])));
        }
    }
}

TEST(TgProgram, DisassembleRejectsTruncatedImage) {
    TgProgram p;
    TgInstr set;
    set.op = TgOp::SetRegister;
    set.a = 1;
    set.imm = 5;
    p.instrs = {set};
    auto image = assemble(p);
    image.pop_back();
    EXPECT_THROW((void)disassemble(image), std::invalid_argument);
}

TEST(TgProgram, DisassembleRejectsUnknownOpcodeAndComparison) {
    // Both used to disassemble into instructions printed as "?".
    EXPECT_THROW((void)disassemble({0xFF000000u}), std::invalid_argument);
    EXPECT_THROW((void)disassemble({0x00000000u}), std::invalid_argument);
    const u32 bad_cmp = encode_w0(TgOp::If, 1, 2, static_cast<TgCmp>(9));
    EXPECT_THROW((void)disassemble({bad_cmp, 0u}), std::invalid_argument);
    // The compare field of a non-branch is ignored, as the core ignores it.
    const u32 read = encode_w0(TgOp::Read, 1, 0, static_cast<TgCmp>(9));
    const TgProgram prog = disassemble({read});
    ASSERT_EQ(prog.instrs.size(), 1u);
    EXPECT_EQ(prog.instrs[0].cmp, TgCmp::Eq);
}

/// The message of the std::invalid_argument that parsing `text` throws, or
/// "" when it parses. Any other exception fails the calling test.
std::string tgp_error(const std::string& text) {
    try {
        (void)program_from_text(text);
    } catch (const std::invalid_argument& e) {
        return e.what();
    }
    return "";
}

TEST(TgProgram, ParserRejectsOutOfRangeOperandsNamingTheLine) {
    const auto body = [](const std::string& instr) {
        return "MASTER[0,0]\nBEGIN\n  " + instr + "\n  Halt\nEND\n";
    };
    ASSERT_EQ(tgp_error(body("BurstRead(r1, 64)")), "");
    const std::pair<std::string, std::string> bad[] = {
        {"BurstRead(r1, 99999)", "burst count 99999 outside [1, 64]"},
        {"BurstRead(r1, 0)", "burst count 0 outside [1, 64]"},
        {"BurstWrite(r1, 65) {}", "burst count 65 outside [1, 64]"},
        {"BurstWrite(r1, 2) {0x1}", "BurstWrite beat count mismatch"},
        {"BurstWrite(r1, 1) {0x1, 0x2}", "BurstWrite beat count mismatch"},
        {"BurstWrite(r1, 1)", "BurstWrite missing beats"},
        {"Idle(99999999999)", "bad number '99999999999'"},
        {"SetRegister(r1, -1)", "bad number '-1'"},
        {"Read()", "Read takes 1 operand(s)"},
        {"Read", "Read takes 1 operand(s)"},
        {"Write(r1)", "Write takes 2 operand(s)"},
        {"Write(r1, )", "bad register ''"},
        {"Read(r99999999999)", "register out of range 'r99999999999'"},
        {"Read(r1) junk", "unexpected 'junk'"},
        {"If(r0 == r1) then", "bad If: want 'then <label>'"},
        {"If(r0 ==) then x", "bad condition"},
        {"Halt(r1)", "Halt takes 0 operand(s)"},
    };
    for (const auto& [instr, want] : bad) {
        const std::string err = tgp_error(body(instr));
        EXPECT_NE(err.find("tgp: line 3: " + want), std::string::npos)
            << instr << " -> '" << err << "'";
    }
    // A label must bind an instruction: one before END would branch past
    // the last instruction.
    EXPECT_NE(tgp_error("MASTER[0,0]\nBEGIN\n  Jump(out)\nout:\nEND\n")
                  .find("label out binds no instruction"),
              std::string::npos);
    EXPECT_NE(tgp_error("MASTER[0,0]\nBEGIN\n  Jump(nowhere)\n  Halt\nEND\n")
                  .find("tgp: line 3: undefined label nowhere"),
              std::string::npos);
    EXPECT_NE(tgp_error("MASTER[0,x]\nBEGIN\nEND\n").find("tgp: line 1: bad number 'x'"),
              std::string::npos);
    EXPECT_NE(tgp_error(body("Halt") + "Halt\n").find("tgp: line 6: content after END"),
              std::string::npos);
    // Two labels on one instruction, one named by Jump and one by If: the
    // writer prints one of them in both places, so a label name must read
    // back as a Jump operand and as a "then" target.
    const auto program = [](const std::string& second) {
        return "MASTER[0,0]\nBEGIN\nx:\n" + second +
               ":\n  Halt\n  Jump(x)\n  If(r0 == r0) then " + second + "\nEND\n";
    };
    const TgProgram prog = program_from_text(program("y"));
    const std::string text = to_text(prog);
    EXPECT_EQ(program_from_text(text), prog);
    EXPECT_EQ(to_text(program_from_text(text)), text);
    for (const std::string bad : {"a,b", "a b", "a(b", "a)b", "a:b", ""}) {
        const std::string err = tgp_error(program(bad));
        EXPECT_NE(err.find("tgp: line 4: bad label '" + bad + "'"), std::string::npos)
            << bad << " -> '" << err << "'";
    }
}

TEST(TgProgram, AssembleRejectsWhatTheImageCannotEncode) {
    TgInstr halt;
    halt.op = TgOp::Halt;
    const auto one = [&](TgInstr in) {
        TgProgram p;
        p.instrs = {in, halt};
        return p;
    };
    TgInstr br;
    br.op = TgOp::BurstRead;
    br.imm = 99999; // used to be masked to imm12: a 1695-beat burst
    EXPECT_THROW((void)assemble(one(br)), std::invalid_argument);
    br.imm = 0;
    EXPECT_THROW((void)assemble(one(br)), std::invalid_argument);
    TgInstr bw;
    bw.op = TgOp::BurstWrite;
    bw.imm = 3; // no beats behind it
    EXPECT_THROW((void)assemble(one(bw)), std::invalid_argument);
    TgInstr jmp;
    jmp.op = TgOp::Jump;
    jmp.target = 2; // past the Halt
    EXPECT_THROW((void)assemble(one(jmp)), std::invalid_argument);
    TgInstr rd;
    rd.op = TgOp::Read;
    rd.a = kTgNumRegs;
    EXPECT_THROW((void)assemble(one(rd)), std::invalid_argument);
}

TEST(TgProgram, DisassembleRejectsBurstCountsTheChannelCannotCarry) {
    EXPECT_EQ(disassemble({encode_w0(TgOp::BurstRead, 1, 0, TgCmp::Eq, 64)}).instrs.size(),
              1u);
    EXPECT_THROW((void)disassemble({encode_w0(TgOp::BurstRead, 1, 0, TgCmp::Eq, 0)}),
                 std::invalid_argument);
    EXPECT_THROW((void)disassemble({encode_w0(TgOp::BurstRead, 1, 0, TgCmp::Eq, 65)}),
                 std::invalid_argument);
    std::vector<u32> bw(66, 0u);
    bw[0] = encode_w0(TgOp::BurstWrite, 1, 0, TgCmp::Eq, 65);
    EXPECT_THROW((void)disassemble(bw), std::invalid_argument);
}

TEST(TgProgram, BeatsLiveInOneFlatStoreComparedByContent) {
    TgProgram a;
    a.push_burst_write(1, std::vector<u32>{1, 2});
    a.push_burst_write(2, std::vector<u32>{3});
    EXPECT_EQ(a.beats, (std::vector<u32>{1, 2, 3}));
    EXPECT_EQ(a.instrs[1].beat_off, 2u);
    TgProgram b = a; // same beats, stored in the other order
    b.beats = {3, 1, 2};
    b.instrs[0].beat_off = 1;
    b.instrs[1].beat_off = 0;
    EXPECT_EQ(a, b);
    b.beats[0] = 4;
    EXPECT_NE(a, b);
}

// --- Golden: the committed programs' text, image and disassembly ---

constexpr u64 kFnvBasis = 0xcbf29ce484222325ull;
constexpr u64 kFnvPrime = 0x100000001b3ull;

TEST(TgProgramGolden, SeedProgramsTextImageAndDisassembly) {
    // Values pinned before the ISA table replaced the per-op switches: the
    // .tgp writer, assembler and disassembler must keep every byte.
    struct Golden {
        const char* file;
        std::size_t image_words;
        u64 image_fnv;
        u64 dis_text_fnv;
    };
    const Golden goldens[] = {
        {"burst_write.tgp", 26, 0x974838ca1b16426full, 0x6470494d713d8072ull},
        {"des_2x1_core0.tgp", 607, 0x029a5c398c3764fcull, 0x8a85f92562bebd4eull},
        {"mp_matrix_2x4_core0.tgp", 545, 0x768144fb02d4f2d6ull, 0xa61254dbb5911154ull},
    };
    for (const Golden& g : goldens) {
        const std::string text = read_test_data(std::string{"programs/"} + g.file);
        const TgProgram prog = program_from_text(text);
        EXPECT_EQ(to_text(prog), text) << g.file;
        const std::vector<u32> image = assemble(prog);
        u64 image_fnv = kFnvBasis;
        for (const u32 w : image) image_fnv = (image_fnv ^ w) * kFnvPrime;
        u64 dis_fnv = kFnvBasis;
        for (const char c : to_text(disassemble(image)))
            dis_fnv = (dis_fnv ^ static_cast<unsigned char>(c)) * kFnvPrime;
        EXPECT_EQ(image.size(), g.image_words) << g.file;
        EXPECT_EQ(image_fnv, g.image_fnv) << g.file;
        EXPECT_EQ(dis_fnv, g.dis_text_fnv) << g.file;
    }
}

// --- .tgp reader robustness: deterministic mutation loop ---

/// `burst_write` (tests/data/programs/burst_write.tgp) with a second label
/// on its last instruction, named by a branch of its own.
std::string with_twin_labels(std::string burst_write) {
    burst_write.replace(burst_write.find("done:\n"), 6, "done:\nfin:\n");
    burst_write.replace(burst_write.find("  Jump(done)\n"), 13,
                        "  Jump(done)\n  If(r0 == r3) then fin\n");
    return burst_write;
}

TEST(TgProgramReaderFuzz, AnyInputYieldsAProgramOrInvalidArgument) {
    // What tgsim-tgasm and tgsim-replay do with a file: every mutant must
    // parse to a program that assembles and prints back to itself, or be
    // rejected with std::invalid_argument naming the line -- never crash,
    // hang or throw anything else. The last seed binds two labels to one
    // instruction, which the writer prints as one.
    const std::string burst_write = read_test_data("programs/burst_write.tgp");
    const std::string seeds[] = {read_test_data("programs/mp_matrix_2x4_core0.tgp"),
                                 read_test_data("programs/des_2x1_core0.tgp"),
                                 burst_write, with_twin_labels(burst_write)};
    for (const std::string& seed : seeds) ASSERT_EQ(tgp_error(seed), "");
    std::mt19937_64 rng{0x76F2};
    std::size_t accepted = 0;
    std::size_t rejected = 0;
    for (int i = 0; i < 4000 && !::testing::Test::HasFailure(); ++i) {
        std::string input = seeds[i % std::size(seeds)];
        mutate(input, rng, "(){},:;\nrx09 =!<");
        TgProgram prog;
        try {
            prog = program_from_text(input);
        } catch (const std::invalid_argument& e) {
            ++rejected;
            const std::string_view what = e.what();
            EXPECT_TRUE(what.starts_with("tgp: line ") || what == "tgp: missing END")
                << what;
            continue;
        }
        ++accepted;
        const std::string text = to_text(prog);
        ASSERT_EQ(program_from_text(text), prog) << "iteration " << i;
        ASSERT_EQ(to_text(program_from_text(text)), text) << "iteration " << i;
        EXPECT_NO_THROW((void)assemble(prog)) << "iteration " << i;
    }
    // The grammar is strict: most mutants fail, so the floors are low.
    EXPECT_GT(accepted, 50u);
    EXPECT_GT(rejected, 1000u);
}

// --- disassembler robustness: deterministic mutation loop ---

/// Images of assembled programs: the hand-written sample plus the TG
/// programs translated from small traced runs of each multicore app.
std::vector<std::vector<u32>> disassembler_corpus() {
    std::vector<std::vector<u32>> corpus{assemble(sample_program())};
    platform::PlatformConfig cfg;
    cfg.n_cores = 2;
    for (const apps::Workload& w :
         {apps::make_mp_matrix({2, 4}), apps::make_des({2, 1}),
          apps::make_cacheloop({2, 16})}) {
        for (const TgProgram& p : run_flow(w, cfg).programs)
            corpus.push_back(assemble(p));
    }
    return corpus;
}

TEST(TgDisassembleFuzz, AnyImageYieldsAProgramOrInvalidArgument) {
    // What tgsim-tgdis does with a file: every mutant must disassemble to a
    // program whose text survives re-assembly, or be rejected with
    // std::invalid_argument — never crash, hang or throw anything else.
    const std::vector<std::vector<u32>> corpus = disassembler_corpus();
    sim::Rng rng{0x7D15ull};
    const auto below = [&](std::size_t n) {
        return static_cast<std::size_t>(rng.next() % n);
    };
    const auto word = [&] { return static_cast<u32>(rng.next()); };
    std::size_t accepted = 0;
    std::size_t rejected = 0;
    for (int iter = 0; iter < 6000; ++iter) {
        std::vector<u32> img = corpus[below(corpus.size())];
        const std::size_t edits = 1 + below(4);
        for (std::size_t e = 0; e < edits; ++e) {
            const std::size_t at = below(img.size() + 1); // may be end()
            const bool in_range = at < img.size();
            switch (below(7)) {
                case 0: // bit flip
                    if (in_range) img[at] ^= 1u << below(32);
                    break;
                case 1: // random word
                    if (in_range) img[at] = word();
                    break;
                case 2: // valid opcode over arbitrary operands
                    if (in_range)
                        img[at] = (img[at] & 0x00FFFFFFu) |
                                  (static_cast<u32>(1 + below(11)) << 24);
                    break;
                case 3: // plausible branch target
                    if (in_range) img[at] = static_cast<u32>(below(img.size() + 2));
                    break;
                case 4: // truncate
                    img.resize(at);
                    break;
                case 5: // insert or delete a word
                    if (in_range && below(2) == 0)
                        img.erase(img.begin() + static_cast<std::ptrdiff_t>(at));
                    else
                        img.insert(img.begin() + static_cast<std::ptrdiff_t>(at), word());
                    break;
                case 6: { // splice the tail of another image
                    const std::vector<u32>& other = corpus[below(corpus.size())];
                    const std::size_t cut = below(other.size() + 1);
                    img.insert(img.end(), other.begin() + static_cast<std::ptrdiff_t>(cut),
                               other.end());
                    break;
                }
            }
        }
        TgProgram prog;
        try {
            prog = disassemble(img);
        } catch (const std::invalid_argument&) {
            ++rejected;
            continue;
        }
        ++accepted;
        const std::string text = to_text(prog);
        ASSERT_EQ(to_text(disassemble(assemble(prog))), text) << "iteration " << iter;
        // Fields an op does not carry come back zeroed, so the program is
        // the one its text describes.
        ASSERT_EQ(program_from_text(text), prog) << "iteration " << iter;
    }
    EXPECT_GT(accepted, 100u);
    EXPECT_GT(rejected, 100u);
}

// --- TG core execution ---

struct TgRig {
    sim::Kernel kernel;
    ocp::Channel ch;
    TgCore core{ch};
    mem::MemorySlave mem{ch, mem::SlaveTiming{1, 1, 1}, 0x1000, 0x1000};
    Trace trace;
    const std::vector<TraceEvent>& records = trace.events;
    ocp::ChannelMonitor monitor{kernel, ch, trace};

    TgRig() {
        kernel.add(core, sim::kStageMaster);
        kernel.add(mem, sim::kStageSlave);
        kernel.add(monitor, sim::kStageObserver);
    }
    void run(const TgProgram& p, Cycle max = 100000) {
        core.load(assemble(p));
        for (const auto& [r, v] : p.reg_init) core.preset_reg(r, v);
        kernel.run_until([&] { return core.done(); }, max);
        ASSERT_TRUE(core.done());
    }
};

TEST(TgCore, WriteAndReadBack) {
    TgRig rig;
    TgProgram p;
    p.reg_init[1] = 0x1010;
    p.reg_init[2] = 0xBEEF;
    TgInstr wr;
    wr.op = TgOp::Write;
    wr.a = 1;
    wr.b = 2;
    TgInstr rd;
    rd.op = TgOp::Read;
    rd.a = 1;
    TgInstr halt;
    halt.op = TgOp::Halt;
    p.instrs = {wr, rd, halt};
    rig.run(p);
    EXPECT_EQ(rig.mem.peek(0x1010), 0xBEEFu);
    EXPECT_EQ(rig.core.reg(kRdReg), 0xBEEFu); // rdreg holds the read data
    EXPECT_EQ(rig.core.stats().ocp_reads, 1u);
    EXPECT_EQ(rig.core.stats().ocp_writes, 1u);
}

TEST(TgCore, IdleDelaysAssertByExactCycles) {
    // Idle(n) + Write: the write must assert exactly n+2 cycles from reset
    // (n idle cycles, one execute cycle, wires driven next eval).
    for (const u32 n : {1u, 5u, 23u}) {
        TgRig rig;
        TgProgram p;
        p.reg_init[1] = 0x1000;
        p.reg_init[2] = 1;
        TgInstr idle;
        idle.op = TgOp::Idle;
        idle.imm = n;
        TgInstr wr;
        wr.op = TgOp::Write;
        wr.a = 1;
        wr.b = 2;
        TgInstr halt;
        halt.op = TgOp::Halt;
        p.instrs = {idle, wr, halt};
        rig.run(p);
        ASSERT_EQ(rig.records.size(), 1u);
        EXPECT_EQ(rig.records[0].t_assert, n + 1) << "Idle(" << n << ")";
    }
}

TEST(TgCore, IdleUntilWaitsForAbsoluteCycle) {
    TgRig rig;
    TgProgram p;
    p.reg_init[1] = 0x1000;
    p.reg_init[2] = 1;
    TgInstr iu;
    iu.op = TgOp::IdleUntil;
    iu.imm = 40;
    TgInstr wr;
    wr.op = TgOp::Write;
    wr.a = 1;
    wr.b = 2;
    TgInstr halt;
    halt.op = TgOp::Halt;
    p.instrs = {iu, wr, halt};
    rig.run(p);
    ASSERT_EQ(rig.records.size(), 1u);
    EXPECT_EQ(rig.records[0].t_assert, 42u); // executes at 41, asserts at 42
}

TEST(TgCore, IdleUntilInThePastDoesNotWait) {
    TgRig rig;
    TgProgram p;
    p.reg_init[1] = 0x1000;
    p.reg_init[2] = 1;
    TgInstr idle;
    idle.op = TgOp::Idle;
    idle.imm = 50;
    TgInstr iu;
    iu.op = TgOp::IdleUntil;
    iu.imm = 10; // already passed
    TgInstr wr;
    wr.op = TgOp::Write;
    wr.a = 1;
    wr.b = 2;
    TgInstr halt;
    halt.op = TgOp::Halt;
    p.instrs = {idle, iu, wr, halt};
    rig.run(p);
    ASSERT_EQ(rig.records.size(), 1u);
    EXPECT_EQ(rig.records[0].t_assert, 52u); // 50 idle + 1 IdleUntil + 1 write
}

TEST(TgCore, BurstWriteStreamsInlineData) {
    TgRig rig;
    TgProgram p;
    p.reg_init[1] = 0x1100;
    p.push_burst_write(1, std::vector<u32>{11, 22, 33, 44});
    TgInstr halt;
    halt.op = TgOp::Halt;
    p.instrs.push_back(halt);
    rig.run(p);
    for (u32 i = 0; i < 4; ++i) EXPECT_EQ(rig.mem.peek(0x1100 + 4 * i), 11 * (i + 1));
}

TEST(TgCore, ParksWhileTheFabricHoldsItsRequestAndCountsEveryBeat) {
    // Gated, the core (and the trace monitor) park in MemWait while the
    // slave neither accepts nor responds, and wake in the cycle it does.
    // Neither may park on a beat: the next identical beat comes without a
    // bump.
    struct Out {
        Cycle halt = 0;
        u32 rd = 0;
        std::vector<u64> stats;
        std::size_t parked_max = 0;
        Trace trace;
    };
    const auto run = [](bool gating) {
        sim::Kernel kernel;
        kernel.set_gating(gating);
        ocp::Channel ch;
        TgCore core{ch};
        // Every word reads 0x5A5A: each burst holds one response value.
        SlowMemory slave{ch, std::vector<u32>(0x1000 / 4 + 4, 0x5A5A), 6};
        Out out;
        ocp::ChannelMonitor monitor{kernel, ch, out.trace};
        kernel.add(core, sim::kStageMaster);
        kernel.add(slave, sim::kStageSlave);
        kernel.add(monitor, sim::kStageObserver);
        ParkedSampler sampler{kernel};
        kernel.add(sampler, sim::kStageObserver);
        TgProgram p;
        p.reg_init[1] = 0x1000;
        p.instrs = {{.op = TgOp::Read, .a = 1},
                    {.op = TgOp::BurstRead, .a = 1, .imm = 4},
                    {.op = TgOp::Idle, .imm = 9},
                    {.op = TgOp::BurstRead, .a = 1, .imm = 3},
                    {.op = TgOp::Halt}};
        core.load(assemble(p));
        for (const auto& [r, v] : p.reg_init) core.preset_reg(r, v);
        // A coarse poll: parked components are settled only at a poll.
        EXPECT_TRUE(kernel.run_until([&] { return core.done(); }, 1000, 64));
        out.parked_max = sampler.max;
        const TgStats& s = core.stats();
        out.halt = core.halt_cycle();
        out.rd = core.reg(kRdReg);
        out.stats = {s.instructions, s.ocp_reads,       s.ocp_writes,
                     s.idle_cycles,  s.mem_wait_cycles, s.bus_errors};
        return out;
    };
    const Out gated = run(true);
    const Out clocked = run(false);
    EXPECT_EQ(gated.parked_max, 2u); // the core and the monitor
    EXPECT_EQ(clocked.parked_max, 0u);
    EXPECT_EQ(gated.trace.beats.size(), 8u);
    EXPECT_TRUE(gated.trace == clocked.trace);
    EXPECT_EQ(gated.halt, clocked.halt);
    EXPECT_EQ(gated.rd, 0x5A5Au);
    EXPECT_EQ(gated.rd, clocked.rd);
    EXPECT_EQ(gated.stats, clocked.stats);
    EXPECT_GT(gated.stats[4], 30u); // mem_wait_cycles
}

TEST(TgCore, BurstReadLeavesLastBeatInRdreg) {
    TgRig rig;
    for (u32 i = 0; i < 4; ++i) rig.mem.poke(0x1000 + 4 * i, 100 + i);
    TgProgram p;
    p.reg_init[1] = 0x1000;
    TgInstr br;
    br.op = TgOp::BurstRead;
    br.a = 1;
    br.imm = 4;
    TgInstr halt;
    halt.op = TgOp::Halt;
    p.instrs = {br, halt};
    rig.run(p);
    EXPECT_EQ(rig.core.reg(kRdReg), 103u);
}

TEST(TgCore, IfLoopsUntilConditionClears) {
    // Memory starts at 0; a second "releaser" is emulated by pre-poking the
    // value: here we test the loop exit immediately (value != 0).
    TgRig rig;
    rig.mem.poke(0x1000, 0);
    TgProgram p;
    p.reg_init[1] = 0x1000;
    p.reg_init[3] = 0;
    // loop: Read(r1); If(r0 == r3) then loop  -- spins while reads return 0
    TgInstr rd;
    rd.op = TgOp::Read;
    rd.a = 1;
    TgInstr iff;
    iff.op = TgOp::If;
    iff.a = kRdReg;
    iff.b = 3;
    iff.cmp = TgCmp::Eq;
    iff.target = 0;
    TgInstr halt;
    halt.op = TgOp::Halt;
    p.instrs = {rd, iff, halt};

    rig.core.load(assemble(p));
    for (const auto& [r, v] : p.reg_init) rig.core.preset_reg(r, v);
    // Let it poll a few times, then release.
    rig.kernel.run(40);
    EXPECT_FALSE(rig.core.done());
    rig.mem.poke(0x1000, 7);
    rig.kernel.run_until([&] { return rig.core.done(); }, 1000);
    EXPECT_TRUE(rig.core.done());
    EXPECT_GT(rig.records.size(), 2u); // several polls happened
}

TEST(TgCore, JumpAndIfImmControlFlow) {
    TgRig rig;
    TgProgram p;
    p.reg_init[1] = 0x1000;
    p.reg_init[2] = 5;
    // 0: SetRegister(r4, 3)
    // 1: Write(r1, r2)        x3 via loop
    // 2: SetRegister(r4, r4-1)? -- no ALU in TG: use IfImm on rdreg instead.
    // Simpler: Jump over a Halt, then Halt.
    TgInstr jmp;
    jmp.op = TgOp::Jump;
    jmp.target = 2;
    TgInstr dead;
    dead.op = TgOp::Halt; // must be skipped
    TgInstr wr;
    wr.op = TgOp::Write;
    wr.a = 1;
    wr.b = 2;
    TgInstr halt;
    halt.op = TgOp::Halt;
    p.instrs = {jmp, dead, wr, halt};
    rig.run(p);
    EXPECT_EQ(rig.mem.peek(0x1000), 5u);
    EXPECT_EQ(rig.core.stats().instructions, 3u); // jump, write, halt
}

TEST(TgCore, HaltCycleIsPinned) {
    TgRig rig;
    TgProgram p;
    TgInstr idle;
    idle.op = TgOp::Idle;
    idle.imm = 9;
    TgInstr halt;
    halt.op = TgOp::Halt;
    p.instrs = {idle, halt};
    rig.run(p);
    // Idle occupies ticks 0..8, Halt executes at tick 9 -> halt_cycle 10.
    EXPECT_EQ(rig.core.halt_cycle(), 10u);
}

TEST(TgCore, EmptyImageHaltsImmediately) {
    ocp::Channel ch;
    TgCore core{ch};
    core.load({});
    EXPECT_TRUE(core.done());
}

// --- Stochastic TG ---

TEST(StochasticTg, IssuesExactTransactionCountThenHalts) {
    sim::Kernel k;
    ocp::Channel ch;
    StochasticConfig cfg;
    cfg.total_transactions = 50;
    cfg.targets = {{0x1000, 0x100, 1}};
    StochasticTg tg{ch, cfg};
    mem::MemorySlave mem{ch, mem::SlaveTiming{1, 1, 1}, 0x1000, 0x100};
    k.add(tg, sim::kStageMaster);
    k.add(mem, sim::kStageSlave);
    ASSERT_TRUE(k.run_until([&] { return tg.done(); }, 100000));
    EXPECT_EQ(tg.issued(), 50u);
    EXPECT_EQ(mem.reads_served() + mem.writes_served(), 50u);
}

TEST(StochasticTg, DeterministicPerSeed) {
    const auto run = [](u64 seed) {
        sim::Kernel k;
        ocp::Channel ch;
        StochasticConfig cfg;
        cfg.seed = seed;
        cfg.total_transactions = 30;
        cfg.targets = {{0x1000, 0x100, 1}};
        StochasticTg tg{ch, cfg};
        mem::MemorySlave mem{ch, mem::SlaveTiming{1, 1, 1}, 0x1000, 0x100};
        k.add(tg, sim::kStageMaster);
        k.add(mem, sim::kStageSlave);
        k.run_until([&] { return tg.done(); }, 100000);
        return tg.halt_cycle();
    };
    EXPECT_EQ(run(5), run(5));
    EXPECT_NE(run(5), run(6));
}

TEST(StochasticTg, RespectsTargetRanges) {
    sim::Kernel k;
    ocp::Channel ch;
    StochasticConfig cfg;
    cfg.total_transactions = 100;
    cfg.burst_fraction = 0.3;
    cfg.targets = {{0x1000, 0x40, 3}, {0x2000, 0x40, 1}};
    StochasticTg tg{ch, cfg};
    mem::MemorySlave mem{ch, mem::SlaveTiming{1, 1, 1}, 0x1000, 0x1100};
    Trace trace;
    const std::vector<TraceEvent>& recs = trace.events;
    ocp::ChannelMonitor mon{k, ch, trace};
    k.add(tg, sim::kStageMaster);
    k.add(mem, sim::kStageSlave);
    k.add(mon, sim::kStageObserver);
    ASSERT_TRUE(k.run_until([&] { return tg.done(); }, 1000000));
    ASSERT_EQ(recs.size(), 100u);
    for (const auto& r : recs) {
        const bool in_a = r.addr >= 0x1000 && r.addr < 0x1040;
        const bool in_b = r.addr >= 0x2000 && r.addr < 0x2040;
        EXPECT_TRUE(in_a || in_b) << std::hex << r.addr;
    }
}

// --- TG slave entities ---

TEST(TgSlaves, DummySlaveRespondsWithPattern) {
    sim::Kernel k;
    ocp::Channel ch;
    TestMaster m{k, ch};
    DummySlaveTg dummy{ch, mem::SlaveTiming{1, 1, 1}, 0x5000, 0x100,
                       0xD0000000u, 2u};
    k.add(m, sim::kStageMaster);
    k.add(dummy, sim::kStageSlave);
    m.push({ocp::Cmd::Read, 0x5008, 1, {}, 0});
    m.push({ocp::Cmd::Write, 0x5008, 1, {123}, 0});
    m.push({ocp::Cmd::Read, 0x5008, 1, {}, 0});
    k.run_until([&] { return m.idle(); }, 1000);
    k.run(2);
    // word index 2, stride 2 -> 0xD0000004; writes are discarded.
    EXPECT_EQ(m.results().at(0).rdata.at(0), 0xD0000004u);
    EXPECT_EQ(m.results().at(2).rdata.at(0), 0xD0000004u);
    EXPECT_EQ(dummy.writes_discarded(), 1u);
}

TEST(TgSlaves, SharedMemTgSlaveIsARealMemory) {
    // Entity 2 must back real state (values read affect master behaviour).
    sim::Kernel k;
    ocp::Channel ch;
    TestMaster m{k, ch};
    SharedMemTgSlave shared{ch, mem::SlaveTiming{1, 1, 1}, 0x6000, 0x100,
                            "tgshared"};
    k.add(m, sim::kStageMaster);
    k.add(shared, sim::kStageSlave);
    m.push({ocp::Cmd::Write, 0x6000, 1, {0x77}, 0});
    m.push({ocp::Cmd::Read, 0x6000, 1, {}, 0});
    k.run_until([&] { return m.idle(); }, 1000);
    k.run(2);
    EXPECT_EQ(m.results().at(1).rdata.at(0), 0x77u);
}

} // namespace
} // namespace tgsim::test
