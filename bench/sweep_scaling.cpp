// Sweep scaling harness: wall-clock throughput of the parallel design-space
// exploration driver versus worker count.
//
// Trace once, translate once, then evaluate the same ~24-candidate fabric
// grid at 1/2/4/8 workers. Two things are measured:
//
//   * speedup: grid wall time at N workers relative to --jobs 1 — Platforms
//     are share-nothing, so this should track min(N, hardware threads).
//     Each worker count is timed as the fastest of three runs, and the
//     candidates are sized so one --jobs 1 run takes over a second (1.1-1.6 s
//     on a shared 4-vCPU x86-64 host): a shorter run measures host noise,
//     not the pool;
//   * determinism: every candidate's SweepResult must be bit-identical at
//     every worker count (sweep::bit_identical; wall times excluded). Any
//     mismatch is a scheduling leak into simulation state and fails the
//     harness hard.
//
// Emits BENCH_sweep_scaling.json (rows: one per worker count, with
// wall_seconds, speedup_vs_jobs1, bit_mismatches over the three runs,
// max_cycles_delta).
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "sweep/sweep.hpp"

using namespace tgsim;

int main() {
    constexpr int kReps = 3; // each worker count: fastest of three
    const u32 cores = 4;
    const u32 size = 30 * bench::scale();
    const apps::Workload w = apps::make_mp_matrix({cores, size});

    std::printf("=== sweep scaling: %u-core mp_matrix(%u), hardware threads: %u ===\n\n",
                cores, size, std::thread::hardware_concurrency());

    // Trace once, translate once (outside the timed region — the sweep is
    // what scales, the one-off reference run is the paper's fixed cost).
    platform::PlatformConfig ref_cfg;
    ref_cfg.n_cores = cores;
    const bench::TimedRun ref = bench::run_cpu(w, ref_cfg, /*traced=*/true);
    const std::vector<tg::TgProgram> programs =
        bench::translate_all(ref.traces, w);
    std::printf("reference: %llu cycles (%.3f s); translated %zu programs\n",
                static_cast<unsigned long long>(ref.result.cycles),
                ref.result.wall_seconds, programs.size());

    // ~24 candidates: both bus arbitrations are NOT swept (fixed-priority
    // livelocks mp_matrix and would burn the full cycle budget), so the
    // grid is round-robin AMBA + crossbar + 22 ×pipes mesh points.
    sweep::GridSpec grid;
    grid.amba_fixed_priority = false;
    grid.meshes.push_back(ic::XpipesConfig{0, 0, 4}); // auto mesh
    constexpr std::pair<u32, u32> kShapes[] = {{2, 3}, {3, 2}, {6, 1}, {4, 2},
                                               {3, 3}, {4, 3}, {8, 1}};
    for (const auto& [mw, mh] : kShapes)
        for (const u32 fifo : {2u, 4u, 8u})
            grid.meshes.push_back(ic::XpipesConfig{mw, mh, fifo});
    const std::vector<sweep::Candidate> candidates = sweep::make_grid(grid);
    std::printf("grid: %zu candidates\n\n", candidates.size());

    sweep::SweepDriver driver{programs, w};
    bench::JsonReport report{"sweep_scaling"};

    std::vector<sweep::SweepResult> baseline;
    double wall_1job = 0.0;
    bool all_identical = true;

    std::printf("%6s %10s %10s %13s %16s\n", "jobs", "wall s", "speedup",
                "mismatches", "max cycle delta");
    for (const u32 jobs : {1u, 2u, 4u, 8u}) {
        sweep::SweepOptions opts;
        opts.jobs = jobs;
        opts.max_cycles = 100'000'000;
        double wall = 0.0;
        u64 mismatches = 0;
        u64 max_delta = 0;
        for (int rep = 0; rep < kReps; ++rep) {
            sim::WallTimer timer;
            const std::vector<sweep::SweepResult> results =
                driver.run(candidates, opts);
            const double rep_wall = timer.seconds();
            if (rep == 0 || rep_wall < wall) wall = rep_wall;
            if (baseline.empty()) baseline = results;

            for (std::size_t i = 0; i < results.size(); ++i) {
                if (!results[i].ok()) {
                    std::fprintf(stderr, "FATAL: candidate '%s' failed: %s\n",
                                 results[i].name.c_str(),
                                 results[i].error.c_str());
                    return 1;
                }
                if (!sweep::bit_identical(results[i], baseline[i])) ++mismatches;
                const u64 delta = results[i].cycles > baseline[i].cycles
                                      ? results[i].cycles - baseline[i].cycles
                                      : baseline[i].cycles - results[i].cycles;
                if (delta > max_delta) max_delta = delta;
            }
        }
        if (jobs == 1) wall_1job = wall;
        if (mismatches != 0) all_identical = false;

        const double speedup = wall > 0.0 ? wall_1job / wall : 0.0;
        std::printf("%6u %10.3f %9.2fx %13llu %16llu\n", jobs, wall, speedup,
                    static_cast<unsigned long long>(mismatches),
                    static_cast<unsigned long long>(max_delta));
        report.add_row("jobs" + std::to_string(jobs),
                       {{"jobs", static_cast<double>(jobs)},
                        {"candidates", static_cast<double>(candidates.size())},
                        {"wall_seconds", wall},
                        {"speedup_vs_jobs1", speedup},
                        {"bit_mismatches", static_cast<double>(mismatches)},
                        {"max_cycles_delta", static_cast<double>(max_delta)},
                        {"hardware_threads",
                         static_cast<double>(std::thread::hardware_concurrency())}});
    }

    if (!all_identical) {
        std::fprintf(stderr,
                     "FATAL: sweep results depend on worker count — the "
                     "share-nothing contract (docs/sweep.md) is broken\n");
        return 1;
    }
    std::printf("\nall worker counts produced bit-identical per-candidate "
                "results\n");
    return 0;
}
