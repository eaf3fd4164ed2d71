// E1 — reproduces paper Table 2: "TG vs. ARM performance with AMBA".
//
// For every benchmark and core count the harness runs (1) a plain cycle-true
// reference simulation with CPU cores, timed; (2) a traced reference run to
// produce TG programs; (3) the TG simulation, timed. It reports cumulative
// execution cycles of both platforms, the accuracy error, both wall-clock
// simulation times and the speedup gain — the same columns the paper prints.
//
// The paper's platform (MPARM) clocks every component every cycle, so the
// primary "Gain" column is measured with tgsim's kernel in the same mode
// (per-component clock gating and quiescence skipping disabled). The extra
// starred columns show the same TG simulation under the activity-driven
// kernel (per-component clock gating with wake lists, sim/kernel.hpp), where
// every component outside the active traffic parks and a platform whose TGs
// all sit in long Idle waits fast-forwards — cycle counts are bit-identical,
// only wall time changes. Every wall time is the fastest of kTimingReps
// alternated runs. Results are also written to
// BENCH_table2_tg_vs_arm.json (cycles/sec, wall seconds, gating speedup).
//
// Expected shape versus the paper: error ~0% (<= ~1.5% in the contended
// multiprocessor rows), gain >= ~1.5-2x, Cacheloop gain growing with core
// count, MP-matrix/DES gain shrinking once the bus saturates. Absolute cycle
// counts and times differ (different ISA, memory timings and host); see
// EXPERIMENTS.md.
#include <algorithm>
#include <cstdio>

#include "bench_util.hpp"

using namespace tgsim;
using namespace tgsim::bench;

namespace {

struct Row {
    u32 cores;
    Cycle arm_cycles;
    Cycle tg_cycles;
    double arm_secs;
    double tg_secs;
    double tg_secs_event; ///< TG run with per-component clock gating
};

/// Timed runs per side (ARM, ungated TG, gated TG). The sides alternate
/// within each repetition and each keeps its fastest wall time: host
/// contention only ever adds time, in bursts that can cover a whole run, so
/// a single run per side let a burst over either one move the gain and
/// gating-speedup floors by tens of percent.
constexpr int kTimingReps = 3;

Row run_row(const apps::Workload& w, u32 cores) {
    platform::PlatformConfig cfg;
    cfg.n_cores = cores;
    cfg.ic = platform::IcKind::Amba;
    // Clocked-kernel mode (paper-faithful costs): every component is
    // evaluated every cycle — no clock gating, no quiescence skip.
    cfg.kernel_gating = false;
    cfg.max_idle_skip = 0;

    platform::PlatformConfig trace_cfg = cfg;
    trace_cfg.kernel_gating = true; // tracing run: speed doesn't matter
    const TimedRun traced = run_cpu(w, trace_cfg, /*traced=*/true);
    const auto programs = translate_all(traced.traces, w);
    platform::PlatformConfig event_cfg = cfg;
    event_cfg.kernel_gating = true; // activity-driven kernel

    Row row{cores, 0, 0, 0.0, 0.0, 0.0};
    for (int rep = 0; rep < kTimingReps; ++rep) {
        const TimedRun plain = run_cpu(w, cfg, /*traced=*/false);
        const auto tg_cycle_mode = run_tg(programs, w, cfg);
        const auto tg_event_mode = run_tg(programs, w, event_cfg);
        if (tg_cycle_mode.cycles != tg_event_mode.cycles) {
            std::fprintf(stderr, "FATAL: skip changed results (%s)\n",
                         w.name.c_str());
            std::exit(1);
        }
        if (rep == 0) {
            row.arm_cycles = plain.result.cycles;
            row.tg_cycles = tg_cycle_mode.cycles;
            row.arm_secs = plain.result.wall_seconds;
            row.tg_secs = tg_cycle_mode.wall_seconds;
            row.tg_secs_event = tg_event_mode.wall_seconds;
        } else if (plain.result.cycles != row.arm_cycles ||
                   tg_cycle_mode.cycles != row.tg_cycles) {
            std::fprintf(stderr, "FATAL: repeated run changed results (%s)\n",
                         w.name.c_str());
            std::exit(1);
        }
        row.arm_secs = std::min(row.arm_secs, plain.result.wall_seconds);
        row.tg_secs = std::min(row.tg_secs, tg_cycle_mode.wall_seconds);
        row.tg_secs_event = std::min(row.tg_secs_event, tg_event_mode.wall_seconds);
    }
    return row;
}

void print_row(const Row& r) {
    std::printf(
        "%3uP  %12llu %12llu %+7.2f%%   %7.3f s %7.3f s %6.2fx  | %8.4f s %8.1fx\n",
        r.cores, static_cast<unsigned long long>(r.arm_cycles),
        static_cast<unsigned long long>(r.tg_cycles),
        err_pct(r.arm_cycles, r.tg_cycles), r.arm_secs, r.tg_secs,
        r.arm_secs / r.tg_secs, r.tg_secs_event,
        r.arm_secs / r.tg_secs_event);
}

void json_rows(JsonReport& report, const char* name, const Row& r) {
    report.add_row(std::string(name) + "/" + std::to_string(r.cores) + "P",
                   {{"cores", static_cast<double>(r.cores)},
                    {"arm_cycles", static_cast<double>(r.arm_cycles)},
                    {"tg_cycles", static_cast<double>(r.tg_cycles)},
                    {"error_pct", err_pct(r.arm_cycles, r.tg_cycles)},
                    {"arm_wall_s", r.arm_secs},
                    {"tg_wall_s", r.tg_secs},
                    {"tg_wall_gated_s", r.tg_secs_event},
                    {"tg_cycles_per_s",
                     static_cast<double>(r.tg_cycles) / r.tg_secs},
                    {"tg_cycles_per_s_gated",
                     static_cast<double>(r.tg_cycles) / r.tg_secs_event},
                    {"gain", r.arm_secs / r.tg_secs},
                    {"gain_gated", r.arm_secs / r.tg_secs_event},
                    {"speedup_gating_vs_ungated",
                     r.tg_secs / r.tg_secs_event}});
}

void header(const char* name) {
    std::printf("%s:\n", name);
    std::printf("#IPs    ARM cycles    TG cycles    Error    ARM time  TG time   Gain  | TG time*    Gain*\n");
}

} // namespace

int main() {
    const u32 k = scale();
    std::printf("=== Table 2: TG vs. ARM performance with AMBA ===\n");
    std::printf("(paper: Mahadevan et al., DATE'05 — columns reproduced; scale=%u;\n"
                " starred columns: activity-driven kernel with per-component clock gating)\n\n",
                k);
    JsonReport report{"table2_tg_vs_arm"};
    const auto do_row = [&](const char* name, const apps::Workload& w, u32 p) {
        const Row r = run_row(w, p);
        print_row(r);
        json_rows(report, name, r);
    };

    header("SP matrix");
    do_row("sp_matrix", apps::make_sp_matrix({64 * k}), 1);
    std::printf("\n");

    header("Cacheloop");
    for (const u32 p : {2u, 4u, 6u, 8u, 10u, 12u})
        do_row("cacheloop", apps::make_cacheloop({p, 1000000 * k}), p);
    std::printf("\n");

    header("MP matrix");
    for (const u32 p : {2u, 4u, 6u, 8u, 10u, 12u})
        do_row("mp_matrix", apps::make_mp_matrix({p, 48 * k}), p);
    std::printf("\n");

    header("DES");
    for (const u32 p : {3u, 4u, 6u, 8u, 10u, 12u})
        do_row("des", apps::make_des({p, 96 * k}), p);
    std::printf("\n");

    std::printf(
        "Expected shape (paper): error 0.00%%-1.5%%; gain > 1 everywhere;\n"
        "Cacheloop gain grows with #IPs (TGs eliminate all core work);\n"
        "MP matrix / DES gain shrinks at high #IPs as the AMBA bus saturates\n"
        "and the replaced cores were mostly idle-waiting anyway.\n"
        "The starred gated gain explodes for Cacheloop because each idle TG\n"
        "parks individually and a fully parked platform jumps to the next\n"
        "wake - an advantage clocked SystemC platforms (like the paper's)\n"
        "could not exploit.\n");
    return 0;
}
