// Unit tests for the trace -> TG-program translator: think-time arithmetic,
// register caching, polling collapse, the three fidelity modes, and the
// exactness property (a translated program replayed in the traced
// environment reproduces the trace timestamps).
#include <gtest/gtest.h>

#include <algorithm>

#include "apps/apps.hpp"
#include "fuzz_util.hpp"
#include "mem/memory.hpp"
#include "ocp/monitor.hpp"
#include "test_util.hpp"
#include "tg/tg_core.hpp"
#include "tg/translator.hpp"

namespace tgsim::test {
namespace {

using namespace tgsim::tg;

/// An event with its beats, before it is appended to a Trace.
struct Ev {
    TraceEvent ev;
    std::vector<u32> data;
};

Ev mk_write(u32 addr, u32 data, Cycle t_assert, Cycle t_accept) {
    Ev e;
    e.ev.cmd = ocp::Cmd::Write;
    e.ev.addr = addr;
    e.data = {data};
    e.ev.t_assert = t_assert;
    e.ev.t_accept = t_accept;
    return e;
}

Ev mk_read(u32 addr, u32 data, Cycle t_assert, Cycle t_accept, Cycle t_resp) {
    Ev e;
    e.ev.cmd = ocp::Cmd::Read;
    e.ev.addr = addr;
    e.data = {data};
    e.ev.t_assert = t_assert;
    e.ev.t_accept = t_accept;
    e.ev.t_resp_first = t_resp;
    e.ev.t_resp_last = t_resp;
    return e;
}

void add(Trace& tr, std::initializer_list<Ev> evs) {
    for (const Ev& e : evs) tr.append(e.ev, e.data);
}

TEST(Translator, FirstUseRegistersBecomeDirectives) {
    Trace tr;
    add(tr, {mk_write(0x100, 7, 10, 11)});
    tr.end_cycle = 30;
    const auto res = translate(tr, {});
    const auto& p = res.program;
    // addr -> r1, data -> r2 via REGISTER directives (no SetRegister cost).
    EXPECT_EQ(p.reg_init.at(1), 0x100u);
    EXPECT_EQ(p.reg_init.at(2), 7u);
    ASSERT_EQ(p.instrs.size(), 4u); // Idle, Write, Idle, Halt
    EXPECT_EQ(p.instrs[0].op, TgOp::Idle);
    // prev_unblock=-1: idle = 10 - (-1) - 0 setups - 2 = 9.
    EXPECT_EQ(p.instrs[0].imm, 9u);
    EXPECT_EQ(p.instrs[1].op, TgOp::Write);
    EXPECT_EQ(p.instrs[2].op, TgOp::Idle);
    // end think = 30 - 11(accept) - 2 = 17.
    EXPECT_EQ(p.instrs[2].imm, 17u);
    EXPECT_EQ(p.instrs[3].op, TgOp::Halt);
}

TEST(Translator, RegisterCachingSkipsRedundantSetups) {
    Trace tr;
    add(tr, {mk_write(0x100, 7, 10, 11), mk_write(0x100, 7, 30, 31),
                 mk_write(0x104, 7, 50, 51)});
    tr.end_cycle = 80;
    const auto res = translate(tr, {});
    u32 setups = 0;
    for (const auto& in : res.program.instrs)
        if (in.op == TgOp::SetRegister) ++setups;
    // Second write: same addr+data -> 0 setups. Third: new addr -> 1.
    EXPECT_EQ(setups, 1u);
}

TEST(Translator, ThinkTimeAnchorsOnReadResponse) {
    Trace tr;
    // Read asserted at 10, response at 25; next write asserted at 40.
    add(tr, {mk_read(0x100, 5, 10, 11, 25), mk_write(0x200, 1, 40, 41)});
    tr.end_cycle = 60;
    const auto res = translate(tr, {});
    const auto& p = res.program;
    // Instrs: Idle(9) Read SetReg(addr) Idle(?) Write Idle Halt — the data
    // register's first use is free (REGISTER directive), the address change
    // costs one SetRegister.
    ASSERT_EQ(p.instrs.size(), 7u);
    EXPECT_EQ(p.instrs[1].op, TgOp::Read);
    EXPECT_EQ(p.instrs[2].op, TgOp::SetRegister);
    EXPECT_EQ(p.instrs[3].op, TgOp::Idle);
    // think = 40 - 25 = 15; idle = 15 - 1 setup - 2 = 12.
    EXPECT_EQ(p.instrs[3].imm, 12u);
    EXPECT_EQ(p.reg_init.at(2), 1u); // data reg preloaded by directive
}

TEST(Translator, NegativeIdleClampsAndCounts) {
    Trace tr;
    // Only 2 cycles of think time but the address changes (1 setup needed):
    // idle would be 2 - 1 - 2 = -1.
    add(tr, {mk_read(0x100, 5, 10, 11, 25), mk_read(0x104, 5, 27, 28, 40)});
    tr.end_cycle = 60;
    const auto res = translate(tr, {});
    EXPECT_EQ(res.clamped_idles, 1u);
    for (std::size_t i = 0; i + 1 < res.program.instrs.size(); ++i) {
        if (res.program.instrs[i].op == TgOp::SetRegister) {
            EXPECT_NE(res.program.instrs[i + 1].op, TgOp::Idle)
                << "clamped idle must be omitted";
        }
    }
}

TEST(Translator, BurstEventsCarryBeatCountAndData) {
    Trace tr;
    TraceEvent br;
    br.cmd = ocp::Cmd::BurstRead;
    br.addr = 0x100;
    br.burst = 4;
    br.t_assert = 10;
    br.t_accept = 11;
    br.t_resp_first = 14;
    br.t_resp_last = 17;
    TraceEvent bw;
    bw.cmd = ocp::Cmd::BurstWrite;
    bw.addr = 0x200;
    bw.burst = 3;
    bw.t_assert = 30;
    bw.t_accept = 36;
    add(tr, {{br, {1, 2, 3, 4}}, {bw, {7, 8, 9}}});
    tr.end_cycle = 50;
    const auto res = translate(tr, {});
    const auto& p = res.program;
    bool saw_br = false, saw_bw = false;
    for (const auto& in : p.instrs) {
        if (in.op == TgOp::BurstRead) {
            saw_br = true;
            EXPECT_EQ(in.imm, 4u);
        }
        if (in.op == TgOp::BurstWrite) {
            saw_bw = true;
            EXPECT_EQ(in.imm, 3u);
            EXPECT_TRUE(std::ranges::equal(p.beats_of(in), std::vector<u32>{7, 8, 9}));
        }
    }
    EXPECT_TRUE(saw_br);
    EXPECT_TRUE(saw_bw);
}

// --- polling collapse ---

Trace polling_trace(u32 polls) {
    Trace tr;
    Cycle t = 10;
    for (u32 i = 0; i < polls; ++i) {
        const bool last = (i + 1 == polls);
        add(tr, {mk_read(0x3000, last ? 1 : 0, t, t + 1, t + 6)});
        t += 10;
    }
    tr.end_cycle = t + 20;
    return tr;
}

PollSpec sem_spec() {
    PollSpec s;
    s.base = 0x3000;
    s.size = 0x100;
    s.retry_cmp = TgCmp::Eq;
    s.retry_value = 0;
    s.inter_poll_idle = 1;
    return s;
}

TEST(Translator, ReactiveCollapsesPollRuns) {
    TranslateOptions opt;
    opt.mode = TgMode::Reactive;
    opt.polls = {sem_spec()};
    const auto res = translate(polling_trace(5), opt);
    EXPECT_EQ(res.poll_loops, 1u);
    EXPECT_EQ(res.polls_collapsed, 5u);
    EXPECT_EQ(res.data_warnings, 0u);
    // Loop shape: [Idle(1)] Read If -> back to Idle.
    const auto& p = res.program;
    u32 reads = 0;
    bool saw_if = false;
    for (std::size_t i = 0; i < p.instrs.size(); ++i) {
        if (p.instrs[i].op == TgOp::Read) ++reads;
        if (p.instrs[i].op == TgOp::If) {
            saw_if = true;
            EXPECT_EQ(p.instrs[i].cmp, TgCmp::Eq);
            EXPECT_EQ(p.instrs[p.instrs[i].target].op, TgOp::Idle);
            EXPECT_EQ(p.instrs[p.instrs[i].target].imm, 1u);
        }
    }
    EXPECT_EQ(reads, 1u); // collapsed to a single Read in the loop
    EXPECT_TRUE(saw_if);
    // tempreg (r3) initialised to the retry value via directive.
    EXPECT_EQ(p.reg_init.at(3), 0u);
}

TEST(Translator, SingleSuccessfulPollStillEmitsLoop) {
    TranslateOptions opt;
    opt.polls = {sem_spec()};
    const auto a = translate(polling_trace(1), opt);
    const auto b = translate(polling_trace(7), opt);
    EXPECT_EQ(a.poll_loops, 1u);
    // Identity property: apart from idle amounts, instruction sequences
    // match; with identical surrounding timing they are byte-identical.
    EXPECT_EQ(a.program.instrs.size(), b.program.instrs.size());
    for (std::size_t i = 0; i < a.program.instrs.size(); ++i)
        EXPECT_EQ(a.program.instrs[i].op, b.program.instrs[i].op) << i;
}

TEST(Translator, PollDataInconsistencyIsFlagged) {
    TranslateOptions opt;
    opt.polls = {sem_spec()};
    Trace tr = polling_trace(3);
    tr.beats[tr.events[0].beat_off] = 1; // a non-final poll "succeeded": spec mismatch
    const auto res = translate(tr, opt);
    EXPECT_GT(res.data_warnings, 0u);
}

TEST(Translator, PollRunSplitByAFetchGivesTwoLoopsAndOneWarning) {
    // The shape of tests/data/traces/des_2x1_core0.trc line 123: the first
    // poll fails, an I-cache refill splits the run, and the polls go on.
    // The first run's only read is its last and still retries: one warning,
    // on that read. The fetch stays outside the loops (docs/traffic.md).
    TranslateOptions opt;
    opt.polls = {sem_spec()};
    Trace tr;
    Ev fetch;
    fetch.ev.cmd = ocp::Cmd::BurstRead;
    fetch.ev.addr = 0x130;
    fetch.ev.burst = 4;
    fetch.ev.t_assert = 20;
    fetch.ev.t_accept = 22;
    fetch.ev.t_resp_first = 24;
    fetch.ev.t_resp_last = 27;
    fetch.data = {1, 2, 3, 4};
    add(tr, {mk_write(0x3100, 1, 2, 5), mk_read(0x3004, 0, 10, 12, 14), fetch,
             mk_read(0x3004, 0, 30, 32, 34), mk_read(0x3004, 1, 40, 42, 44)});
    tr.end_cycle = 60;
    const auto res = translate(tr, opt);
    EXPECT_EQ(res.poll_loops, 2u);
    EXPECT_EQ(res.polls_collapsed, 3u);
    EXPECT_EQ(res.data_warnings, 1u);
    EXPECT_EQ(res.first_warning, 1u);
    EXPECT_EQ(res.program.labels.size(), 2u);
}

TEST(TraceIo, EventLineCountsOnlyEventRecords) {
    const std::string text =
        "; tgsim trace\n"
        "CORE 0 THREAD 0\n"
        "EVT RD 0x0 burst=1 assert=1 accept=2 resp=3:3 data=[0x0]\n"
        "\n"
        "; a comment\n"
        "  EVT WR 0x4 burst=1 assert=5 accept=6 resp=0:0 data=[0x1]\n"
        "END 9\n";
    EXPECT_EQ(event_line(text, 0), 3u);
    EXPECT_EQ(event_line(text, 1), 6u);
    EXPECT_EQ(event_line(text, 2), 0u);
}

TEST(Translator, DesTraceWarnsOnceAtItsSplitPollRun) {
    // tgsim_run --app=des --cores=2 --size=1: the first poll of 0x20000104
    // (line 123) fails and an I-cache refill follows it.
    const std::string des = read_test_data("traces/des_2x1_core0.trc");
    TranslateOptions opt;
    opt.polls = apps::make_des({2, 1}).polls;
    const auto res = translate(trace_from_text(des), opt);
    EXPECT_EQ(res.data_warnings, 1u);
    EXPECT_EQ(event_line(des, res.first_warning), 123u);
    EXPECT_EQ(res.program, program_from_text(read_test_data("programs/des_2x1_core0.tgp")));
}

TEST(Translator, TimeshiftReplaysEveryPoll) {
    TranslateOptions opt;
    opt.mode = TgMode::Timeshift;
    opt.polls = {sem_spec()};
    const auto res = translate(polling_trace(5), opt);
    EXPECT_EQ(res.poll_loops, 0u);
    u32 reads = 0;
    for (const auto& in : res.program.instrs)
        if (in.op == TgOp::Read) ++reads;
    EXPECT_EQ(reads, 5u);
}

TEST(Translator, CloneModeUsesAbsoluteAnchors) {
    TranslateOptions opt;
    opt.mode = TgMode::Clone;
    const Trace tr = polling_trace(2);
    const auto res = translate(tr, opt);
    u32 idle_until = 0;
    for (const auto& in : res.program.instrs) {
        EXPECT_NE(in.op, TgOp::Idle) << "clone mode must not use relative idle";
        if (in.op == TgOp::IdleUntil) ++idle_until;
    }
    EXPECT_GE(idle_until, 2u);
    // Anchor of the first command: assert(10) - 2 = 8.
    EXPECT_EQ(res.program.instrs[0].op, TgOp::IdleUntil);
    EXPECT_EQ(res.program.instrs[0].imm, 8u);
}

TEST(Translator, LoopForeverRewindsInsteadOfHalting) {
    Trace tr;
    add(tr, {mk_write(0x100, 1, 10, 11)});
    tr.end_cycle = 20;
    TranslateOptions opt;
    opt.loop_forever = true;
    const auto res = translate(tr, opt);
    EXPECT_EQ(res.program.instrs.back().op, TgOp::Jump);
    EXPECT_EQ(res.program.instrs.back().target, 0u);
}

TEST(Translator, EmptyTraceYieldsIdleThenHalt) {
    Trace tr;
    tr.end_cycle = 100;
    const auto res = translate(tr, {});
    ASSERT_EQ(res.program.instrs.size(), 2u);
    EXPECT_EQ(res.program.instrs[0].op, TgOp::Idle);
    EXPECT_EQ(res.program.instrs[0].imm, 99u); // 100 - (-1) - 2
    EXPECT_EQ(res.program.instrs[1].op, TgOp::Halt);
}

// --- exactness: translated program replayed against the same slave
//     reproduces every assert timestamp and the halt time ---

TEST(Translator, ReplayReproducesTraceTimestampsExactly) {
    // Build a synthetic but protocol-consistent trace by running a TgCore
    // with a hand-written program, then translate the observed trace and
    // replay it: the two traces must match event-for-event.
    const auto run_and_trace = [](const std::vector<u32>& image,
                                  const std::map<u8, u32>& regs) {
        sim::Kernel k;
        ocp::Channel ch;
        TgCore core{ch};
        mem::MemorySlave mem{ch, mem::SlaveTiming{2, 1, 1}, 0x1000, 0x1000};
        Trace trace;
        ocp::ChannelMonitor mon{k, ch, trace};
        k.add(core, sim::kStageMaster);
        k.add(mem, sim::kStageSlave);
        k.add(mon, sim::kStageObserver);
        core.load(image);
        for (const auto& [r, v] : regs) core.preset_reg(r, v);
        EXPECT_TRUE(k.run_until([&] { return core.done(); }, 100000));
        trace.end_cycle = core.halt_cycle();
        return trace;
    };

    TgProgram hand;
    hand.reg_init[1] = 0x1000;
    hand.reg_init[2] = 42;
    TgInstr idle;
    idle.op = TgOp::Idle;
    idle.imm = 7;
    TgInstr wr;
    wr.op = TgOp::Write;
    wr.a = 1;
    wr.b = 2;
    TgInstr rd;
    rd.op = TgOp::Read;
    rd.a = 1;
    TgInstr idle2;
    idle2.op = TgOp::Idle;
    idle2.imm = 13;
    TgInstr br;
    br.op = TgOp::BurstRead;
    br.a = 1;
    br.imm = 4;
    TgInstr halt;
    halt.op = TgOp::Halt;
    hand.instrs = {idle, wr, rd, idle2, br, halt};

    const Trace original = run_and_trace(assemble(hand), hand.reg_init);
    ASSERT_EQ(original.events.size(), 3u);

    const auto translated = translate(original, {});
    const Trace replayed =
        run_and_trace(assemble(translated.program), translated.program.reg_init);

    ASSERT_EQ(replayed.events.size(), original.events.size());
    for (std::size_t i = 0; i < original.events.size(); ++i) {
        EXPECT_EQ(replayed.events[i].t_assert, original.events[i].t_assert) << i;
        EXPECT_EQ(replayed.events[i].addr, original.events[i].addr) << i;
        EXPECT_EQ(replayed.events[i].cmd, original.events[i].cmd) << i;
        EXPECT_TRUE(std::ranges::equal(replayed.beats_of(replayed.events[i]),
                                       original.beats_of(original.events[i])))
            << i;
    }
    EXPECT_EQ(replayed.end_cycle, original.end_cycle);
}

// --- trace serialization ---

TEST(TraceIo, TextRoundTrip) {
    Trace tr;
    tr.core_id = 3;
    add(tr, {mk_read(0x1234, 0xAB, 10, 11, 20),
                 mk_write(0x5678, 0xCD, 30, 33)});
    TraceEvent burst;
    burst.cmd = ocp::Cmd::BurstRead;
    burst.addr = 0x40;
    burst.burst = 4;
    burst.t_assert = 50;
    burst.t_accept = 51;
    burst.t_resp_first = 55;
    burst.t_resp_last = 58;
    add(tr, {{burst, {1, 2, 3, 4}}});
    tr.end_cycle = 99;
    const Trace rt = trace_from_text(to_text(tr));
    EXPECT_EQ(rt, tr);
}

TEST(TraceIo, PrettyRendersPaperStyle) {
    Trace tr;
    add(tr, {mk_read(0xFF, 0, 42, 43, 54)});
    tr.end_cycle = 64;
    const std::string s = pretty(tr);
    EXPECT_NE(s.find("RD 0x000000FF @210ns"), std::string::npos);
    EXPECT_NE(s.find("Resp Data 0x00000000 @270ns"), std::string::npos);
}

TEST(TraceIo, RejectsGarbage) {
    EXPECT_THROW((void)trace_from_text("EVT banana"), std::invalid_argument);
    EXPECT_THROW((void)trace_from_text("CORE 0 THREAD 0\n"),
                 std::invalid_argument); // missing END
}

/// The message of the std::invalid_argument that parsing `text` throws, or
/// "" when it parses. Any other exception fails the calling test.
std::string trc_error(const std::string& text) {
    try {
        (void)trace_from_text(text);
    } catch (const std::invalid_argument& e) {
        return e.what();
    }
    return "";
}

TEST(TraceIo, RejectsMalformedEventsNamingTheLine) {
    const std::string head = "CORE 0 THREAD 0\n";
    const std::string end = "\nEND 90\n";
    const std::string times = " assert=1 accept=2 resp=4:7";
    ASSERT_EQ(trc_error(head + "EVT BWR 0x10 burst=2" + times + " data=[0x1,0x2]" + end), "");
    // A read may end early (SRespLast): fewer beats than its burst is fine.
    const Trace short_read =
        trace_from_text(head + "EVT BRD 0x10 burst=4" + times + " data=[0x1,0x2]" + end);
    EXPECT_EQ(short_read.events.at(0).beat_count, 2u);

    const std::pair<std::string, std::string> bad[] = {
        {"EVT BRD 0x10 burst=65537" + times + " data=[]", "bad burst '65537'"},
        {"EVT BRD 0x10 burst=0" + times + " data=[]", "burst 0 outside [1, 64]"},
        {"EVT BRD 0x10 burst=65" + times + " data=[]", "burst 65 outside [1, 64]"},
        {"EVT BWR 0x10 burst=4" + times + " data=[0x1]", "1 data beats for burst=4 BWR"},
        {"EVT WR 0x10 burst=1" + times + " data=[]", "0 data beats for burst=1 WR"},
        {"EVT BRD 0x10 burst=2" + times + " data=[0x1,0x2,0x3]", "3 data beats for burst=2"},
        {"EVT RD 0x10 burst=1 assert=1 accept=2 resp=6 data=[]", "bad resp '6'"},
        {"EVT RD 0x1FFFFFFFF burst=1" + times + " data=[]", "bad address '0x1FFFFFFFF'"},
        {"EVT WR 0x10 burst=1" + times + " data=[0x1FFFFFFFF]", "bad beat '0x1FFFFFFFF'"},
        {"EVT WR 0x10 burst=1" + times + " data=[0x1,]", "bad beat ''"},
        {"EVT RD 0x10 burst=1 assert=-5 accept=2 resp=4:7 data=[]", "bad assert cycle '-5'"},
        {"EVT RD 0x10 burst=1 assert=99999999999999999999999 accept=2 resp=4:7 data=[]",
         "bad assert cycle"},
        {"EVT RD 0x10 burst=1" + times + " data=[] data=[]", "repeated data list"},
        {"EVT NOP 0x10", "bad cmd 'NOP'"},
    };
    for (const auto& [line, want] : bad) {
        const std::string err = trc_error(head + line + end);
        EXPECT_NE(err.find("trc: line 2: " + want), std::string::npos)
            << line << " -> '" << err << "'";
    }
    EXPECT_NE(trc_error(head + "END abc\n").find("trc: line 2: bad END cycle 'abc'"),
              std::string::npos);
    EXPECT_NE(trc_error(head + "END 5 6\n").find("trc: line 2: unexpected '6'"),
              std::string::npos);
    EXPECT_NE(trc_error(head + "END 5\nEND 6\n").find("trc: line 3: content after END"),
              std::string::npos);
    EXPECT_NE(trc_error("CORE x THREAD 0" + end).find("trc: line 1: bad core id 'x'"),
              std::string::npos);
}

// --- fuzzing the .trc reader --------------------------------------------------

TEST(TraceReaderFuzz, AnyInputYieldsATraceOrInvalidArgument) {
    // What tgsim-translate does with a file: every mutant must parse to a
    // trace that prints back to itself and translates into a program that
    // assembles, or be rejected with std::invalid_argument naming the line
    // -- never crash, hang or throw anything else.
    const std::string seeds[] = {read_test_data("traces/mp_matrix_2x4_core0.trc"),
                                 read_test_data("traces/des_2x1_core0.trc")};
    for (const std::string& seed : seeds) ASSERT_EQ(trc_error(seed), "");
    TranslateOptions opt;
    opt.polls = apps::make_mp_matrix({2, 4}).polls;
    std::mt19937_64 rng{0x7AC3};
    std::size_t accepted = 0;
    std::size_t rejected = 0;
    for (int i = 0; i < 4000 && !::testing::Test::HasFailure(); ++i) {
        std::string input = seeds[i % std::size(seeds)];
        mutate(input, rng, "=[],:;x0F9- \n");
        Trace t;
        try {
            t = trace_from_text(input);
        } catch (const std::invalid_argument& e) {
            ++rejected;
            const std::string_view what = e.what();
            EXPECT_TRUE(what.starts_with("trc: line ") || what == "trc: missing END")
                << what;
            continue;
        }
        ++accepted;
        ASSERT_EQ(trace_from_text(to_text(t)), t) << "iteration " << i;
        EXPECT_NO_THROW((void)assemble(translate(t, opt).program)) << "iteration " << i;
    }
    // The grammar is strict: most mutants fail, so the floors are low.
    EXPECT_GT(accepted, 50u);
    EXPECT_GT(rejected, 1000u);
}

} // namespace
} // namespace tgsim::test
