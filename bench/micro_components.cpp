// M1 — google-benchmark microbenchmarks for the simulator components:
// kernel tick dispatch, ISS and TG cycle costs (the ratio is the root of the
// paper's speedup), interconnect cycle costs, and the TG tool flow
// (translation, assembly, text round-trip).
#include <benchmark/benchmark.h>

#include <array>
#include <memory>
#include <string_view>

#include "apps/apps.hpp"
#include "bench_util.hpp"
#include "platform/platform.hpp"
#include "tg/program.hpp"
#include "tg/translator.hpp"

using namespace tgsim;

namespace {

// --- kernel dispatch ---

class NopClocked final : public sim::Clocked {
public:
    void eval() override { benchmark::DoNotOptimize(x_ += 1); }
    void update() override { benchmark::DoNotOptimize(x_ += 1); }

private:
    u64 x_ = 0;
};

void BM_KernelTick16Components(benchmark::State& state) {
    sim::Kernel k;
    std::vector<std::unique_ptr<NopClocked>> comps;
    for (int i = 0; i < 16; ++i) {
        comps.push_back(std::make_unique<NopClocked>());
        k.add(*comps.back(), i % 4);
    }
    for (auto _ : state) k.tick();
    state.SetItemsProcessed(static_cast<i64>(state.iterations()) * 16);
}
BENCHMARK(BM_KernelTick16Components);

// --- ISS vs TG cycle cost (the speedup source) ---

void BM_CpuCoreCyclesPerSecond(benchmark::State& state) {
    const auto w = apps::make_cacheloop({1, 1u << 30}); // effectively endless
    platform::PlatformConfig cfg;
    cfg.n_cores = 1;
    platform::Platform p{cfg};
    p.load_workload(w);
    p.kernel().run(100); // warm the I$
    for (auto _ : state) p.kernel().tick();
    state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}
BENCHMARK(BM_CpuCoreCyclesPerSecond);

void BM_TgCoreCyclesPerSecond(benchmark::State& state) {
    // A TG spending its time in a long Idle — the common case when it
    // replaces a compute-bound core.
    tg::TgProgram prog;
    tg::TgInstr idle;
    idle.op = tg::TgOp::Idle;
    idle.imm = 0x7FFFFFFF;
    tg::TgInstr halt;
    halt.op = tg::TgOp::Halt;
    prog.instrs = {idle, halt};
    const auto w = apps::make_cacheloop({1, 10});
    platform::PlatformConfig cfg;
    cfg.n_cores = 1;
    platform::Platform p{cfg};
    p.load_tg_programs({prog}, w);
    p.kernel().run(10);
    for (auto _ : state) p.kernel().tick();
    state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}
BENCHMARK(BM_TgCoreCyclesPerSecond);

// --- interconnect cycle costs under load ---

template <platform::IcKind Kind>
void BM_InterconnectCycle(benchmark::State& state) {
    const auto w = apps::make_mp_matrix({4, 16});
    platform::PlatformConfig cfg;
    cfg.n_cores = 4;
    cfg.ic = Kind;
    platform::Platform p{cfg};
    p.load_workload(w);
    p.kernel().run(2000); // into the contended phase
    for (auto _ : state) p.kernel().tick();
    state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}
BENCHMARK(BM_InterconnectCycle<platform::IcKind::Amba>)->Name("BM_PlatformCycle_Amba4P");
BENCHMARK(BM_InterconnectCycle<platform::IcKind::Crossbar>)->Name("BM_PlatformCycle_Crossbar4P");
BENCHMARK(BM_InterconnectCycle<platform::IcKind::Xpipes>)->Name("BM_PlatformCycle_Xpipes4P");

// The schedule the tools run: a gated reactive TG replay of MP matrix 8P
// n=16 over round-robin AMBA, where eight masters contend for the bus on
// almost every cycle. Each iteration replays to completion on a fresh
// platform (built and torn down untimed); ns_per_busy_cycle is the whole
// platform's wall time per bus-busy cycle.
void BM_GatedAmbaReplay8P(benchmark::State& state) {
    const auto w = apps::make_mp_matrix({8, 16});
    platform::PlatformConfig cfg;
    cfg.n_cores = 8;
    cfg.ic = platform::IcKind::Amba;
    const auto programs =
        bench::translate_all(bench::run_cpu(w, cfg, true).traces, w);
    cfg.done_check_interval = bench::kDoneCheckInterval;
    std::unique_ptr<platform::Platform> p;
    u64 busy = 0;
    for (auto _ : state) {
        state.PauseTiming();
        p = std::make_unique<platform::Platform>(cfg);
        p->load_tg_programs(programs, w);
        state.ResumeTiming();
        if (!p->run(bench::kMaxCycles).completed) {
            state.SkipWithError("replay did not complete");
            break;
        }
        busy += p->interconnect().busy_cycles();
    }
    state.counters["ns_per_busy_cycle"] = benchmark::Counter(
        static_cast<double>(busy) * 1e-9,
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_GatedAmbaReplay8P)->Unit(benchmark::kMillisecond);

// --- channel scan: AoS baseline vs structure-of-arrays ChannelStore ---

/// The pre-SoA wire-bundle layout (one struct per channel), kept here as the
/// benchmark baseline. Matches the old ocp::Channel field-for-field.
struct AosChannel {
    ocp::Cmd m_cmd = ocp::Cmd::Idle;
    u32 m_addr = 0;
    u32 m_data = 0;
    u16 m_burst = 1;
    bool m_resp_accept = false;
    bool s_cmd_accept = false;
    ocp::Resp s_resp = ocp::Resp::None;
    u32 s_data = 0;
    bool s_resp_last = false;
    u32 m_gen = 0;
    u32 s_gen = 0;
};

/// Pre-SoA wiring, reproduced faithfully: the platform owned a dense
/// std::vector<Channel>, but the bus scanned it through a per-master pointer
/// vector. Masters occupy the first n slots of the backing array, exactly
/// like Platform::build_fabric() allocated them.
struct AosRig {
    std::vector<AosChannel> backing;
    std::vector<const AosChannel*> masters; ///< old AhbBus::masters_

    explicit AosRig(u32 n) : backing(2u * n + 2u) {
        for (u32 i = 0; i < n; ++i) masters.push_back(&backing[i]);
    }
};

/// One bus-style idle pass over n masters: the arbitration probe (is any
/// command asserted?) fused with a sum of the master-side gen counters (the
/// activity sweep of the polling kernel that the push wake replaced).
u64 scan_aos(const AosRig& rig) {
    u64 acc = 0;
    for (const AosChannel* c : rig.masters)
        acc += static_cast<u64>(c->m_cmd != ocp::Cmd::Idle) + c->m_gen;
    return acc;
}

u64 scan_soa(const ocp::ChannelStore& store, u32 n) {
    u64 acc = 0;
    const ocp::Cmd* cmd = store.m_cmd.data();
    const u32* gen = store.m_gen.data();
    for (u32 i = 0; i < n; ++i)
        acc += static_cast<u64>(cmd[i] != ocp::Cmd::Idle) + gen[i];
    return acc;
}

void seed_channels(AosRig& rig, ocp::ChannelStore& store, u32 n) {
    for (u32 i = 0; i < n; ++i) {
        const ocp::ChannelRef r = store.channel(i);
        if (i % 7 == 0) {
            rig.backing[i].m_cmd = ocp::Cmd::Read;
            r.m_cmd() = ocp::Cmd::Read;
        }
        rig.backing[i].m_gen = 3 * i;
        store.m_gen[i] = 3 * i;
    }
}

void BM_ChannelScanAos(benchmark::State& state) {
    const auto n = static_cast<u32>(state.range(0));
    AosRig rig{n};
    ocp::ChannelStore store;
    for (u32 i = 0; i < 2u * n + 2u; ++i) store.allocate();
    seed_channels(rig, store, n);
    for (auto _ : state) benchmark::DoNotOptimize(scan_aos(rig));
    state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                            static_cast<i64>(n));
}
BENCHMARK(BM_ChannelScanAos)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

void BM_ChannelScanSoa(benchmark::State& state) {
    const auto n = static_cast<u32>(state.range(0));
    AosRig rig{n};
    ocp::ChannelStore store;
    for (u32 i = 0; i < 2u * n + 2u; ++i) store.allocate();
    seed_channels(rig, store, n);
    for (auto _ : state) benchmark::DoNotOptimize(scan_soa(store, n));
    state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                            static_cast<i64>(n));
}
BENCHMARK(BM_ChannelScanSoa)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

/// Self-timed variant of the two scans, written as BENCH_channel_scan.json
/// so CI tracks the SoA-vs-AoS ratio alongside the other bench artifacts.
void write_channel_scan_report() {
    bench::JsonReport report{"channel_scan"};
    for (const u32 n : {4u, 16u, 64u, 256u}) {
        AosRig rig{n};
        ocp::ChannelStore store;
        for (u32 i = 0; i < 2u * n + 2u; ++i) store.allocate();
        seed_channels(rig, store, n);
        const u64 reps = (1u << 25) / n;
        const auto time_ns = [&](auto&& scan) {
            double best = 1e300;
            for (int round = 0; round < 5; ++round) {
                sim::WallTimer t;
                for (u64 r = 0; r < reps; ++r)
                    benchmark::DoNotOptimize(scan());
                best = std::min(best, t.seconds());
            }
            return best * 1e9 / static_cast<double>(reps);
        };
        const double aos_ns = time_ns([&] { return scan_aos(rig); });
        const double soa_ns = time_ns([&] { return scan_soa(store, n); });
        report.add_row("masters_" + std::to_string(n),
                       {{"masters", static_cast<double>(n)},
                        {"aos_ns_per_scan", aos_ns},
                        {"soa_ns_per_scan", soa_ns},
                        {"soa_speedup", aos_ns / soa_ns}});
    }
}

// --- TG tool flow ---

tg::Trace sample_trace() {
    tg::Trace t;
    Cycle cyc = 10;
    for (u32 i = 0; i < 2000; ++i) {
        tg::TraceEvent ev;
        ev.cmd = (i % 3 == 0) ? ocp::Cmd::Write : ocp::Cmd::Read;
        ev.addr = 0x20000000u + 4 * (i % 64);
        ev.t_assert = cyc;
        ev.t_accept = cyc + 2;
        if (ocp::is_read(ev.cmd)) {
            ev.t_resp_first = ev.t_resp_last = cyc + 6;
            cyc = ev.t_resp_last + 5;
        } else {
            cyc = ev.t_accept + 5;
        }
        t.append(ev, std::array{i});
    }
    t.end_cycle = cyc + 10;
    return t;
}

void BM_TranslatorEventsPerSecond(benchmark::State& state) {
    const tg::Trace trace = sample_trace();
    tg::TranslateOptions opt;
    for (auto _ : state) {
        auto res = tg::translate(trace, opt);
        benchmark::DoNotOptimize(res.program.instrs.size());
    }
    state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                            static_cast<i64>(trace.events.size()));
}
BENCHMARK(BM_TranslatorEventsPerSecond);

void BM_AssembleProgram(benchmark::State& state) {
    const tg::Trace trace = sample_trace();
    const auto prog = tg::translate(trace, {}).program;
    for (auto _ : state) {
        auto image = tg::assemble(prog);
        benchmark::DoNotOptimize(image.size());
    }
    state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                            static_cast<i64>(prog.instrs.size()));
}
BENCHMARK(BM_AssembleProgram);

void BM_TgpTextRoundTrip(benchmark::State& state) {
    const auto prog = tg::translate(sample_trace(), {}).program;
    for (auto _ : state) {
        const std::string text = tg::to_text(prog);
        auto back = tg::program_from_text(text);
        benchmark::DoNotOptimize(back.instrs.size());
    }
}
BENCHMARK(BM_TgpTextRoundTrip);

} // namespace

int main(int argc, char** argv) {
    // The self-timed channel-scan report costs a second or two; skip it when
    // the caller is filtering/listing benchmarks (quick local iterations) so
    // it neither delays the run nor clobbers an existing JSON.
    bool filtered = false;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg{argv[i]};
        if (arg.starts_with("--benchmark_filter") ||
            arg.starts_with("--benchmark_list_tests") || arg == "--help")
            filtered = true;
    }
    if (!filtered) write_channel_scan_report();
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
