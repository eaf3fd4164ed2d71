// Analytic screening tier benchmark + CI gate (docs/analytic.md).
//
// Three questions, one per acceptance criterion of the two-phase funnel:
//
//   * throughput — how many candidates per second does the closed-form
//     evaluator score single-threaded? (floor: >= 100k/sec; this is what
//     makes million-candidate campaigns possible at all)
//   * funnel speedup — end-to-end wall clock of --tier=funnel vs all-cycle
//     on a >= 500-candidate grid, and does the funnel crown the same top-1
//     candidate? (floors: >= 10x, top-1 identical)
//   * rank fidelity — Spearman rho between predicted and cycle-measured
//     completion times across the 7 classic patterns on a rate x fifo grid
//     (floor: min rho >= 0.8 — the screen only has to *order* candidates
//     well enough that the true optimum survives the top-K cut)
//
// Results go to BENCH_analytic_screen.json; ci/bench_floors.json pins the
// floors and ci/check_bench.py enforces them.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "analytic/analytic.hpp"
#include "bench_util.hpp"
#include "sweep/sweep.hpp"
#include "tg/patterns.hpp"

namespace tgsim {
namespace {

tg::PatternConfig base_pattern(tg::Pattern p, u64 packets) {
    tg::PatternConfig pc;
    pc.pattern = p;
    pc.width = 4;
    pc.height = 4;
    pc.injection_rate = 0.01;
    pc.packets_per_core = packets;
    pc.read_fraction = 0.5;
    return pc;
}

sweep::Candidate mesh_candidate(const ic::XpipesConfig& mesh, double rate) {
    sweep::Candidate c;
    c.cfg.ic = platform::IcKind::Xpipes;
    c.cfg.xpipes = mesh;
    c.cfg.xpipes.collect_latency = true;
    c.source.rate = rate;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%s r=%.4f",
                  sweep::describe_fabric(c.cfg).c_str(), rate);
    c.name = buf;
    return c;
}

/// mesh-shape x fifo-depth x ascending-rate candidate grid.
std::vector<sweep::Candidate> make_screen_grid(
    const std::vector<ic::XpipesConfig>& meshes,
    const std::vector<u32>& fifos, const std::vector<double>& rates) {
    std::vector<sweep::Candidate> out;
    for (const ic::XpipesConfig& m : meshes)
        for (const u32 fifo : fifos)
            for (const double r : rates) {
                ic::XpipesConfig mesh = m;
                mesh.fifo_depth = fifo;
                out.push_back(mesh_candidate(mesh, r));
            }
    return out;
}

std::vector<double> rate_ladder(std::size_t n, double lo, double hi) {
    // Geometric ladder, strictly ascending — load-latency convention.
    std::vector<double> rates;
    double r = lo;
    const double step =
        n > 1 ? std::pow(hi / lo, 1.0 / static_cast<double>(n - 1)) : 1.0;
    for (std::size_t i = 0; i < n; ++i, r *= step)
        rates.push_back(std::min(r, 1.0));
    return rates;
}

/// Best cycle-measured candidate: (completion cycles, index) ascending —
/// the same rule tgsim_sweep prints as "best".
u32 best_cycle_row(const std::vector<sweep::SweepResult>& rows) {
    u32 best = 0;
    bool have = false;
    for (u32 i = 0; i < rows.size(); ++i) {
        if (!rows[i].ok() || rows[i].analytic) continue;
        if (!have || rows[i].cycles < rows[best].cycles) {
            best = i;
            have = true;
        }
    }
    if (!have) {
        std::fprintf(stderr, "FATAL: no cycle-measured rows\n");
        std::exit(1);
    }
    return best;
}

} // namespace
} // namespace tgsim

int main() {
    using namespace tgsim;
    bench::JsonReport report{"analytic_screen"};
    bool all_ok = true;

    // --- 1. analytic throughput, single-threaded -------------------------
    // uniform_random is the WORST case for the model (240 flows on a 4x4
    // core grid vs 16 for the deterministic patterns), so the floor holds
    // for every pattern.
    {
        const tg::PatternConfig pc =
            base_pattern(tg::Pattern::UniformRandom, 2000);
        const analytic::Evaluator eval{pc};
        const std::vector<ic::XpipesConfig> meshes{
            {5, 4, 4, true, false, {}},
            {6, 3, 4, true, false, {}},
            {4, 5, 4, true, false, {}},
            {0, 0, 4, true, false, {}}};
        const auto grid = make_screen_grid(
            meshes, {2, 4, 8}, rate_ladder(100, 0.002, 0.9));
        analytic::Workspace ws;
        // Warm-up pass (first call sizes the workspace), then timed passes.
        for (u32 i = 0; i < grid.size(); ++i) (void)eval.evaluate(grid[i], i, ws);
        const u32 reps = 5 * bench::scale();
        sim::WallTimer timer;
        u64 scored = 0;
        u64 checksum = 0;
        for (u32 rep = 0; rep < reps; ++rep)
            for (u32 i = 0; i < grid.size(); ++i) {
                checksum += eval.evaluate(grid[i], i, ws).cycles;
                ++scored;
            }
        const double wall = timer.seconds();
        const double per_sec = static_cast<double>(scored) / wall;
        std::printf("analytic throughput: %llu candidates in %.3f s = "
                    "%.0f candidates/sec (checksum %llu)\n\n",
                    static_cast<unsigned long long>(scored), wall, per_sec,
                    static_cast<unsigned long long>(checksum));
        report.add_row("throughput",
                       {{"candidates", static_cast<double>(scored)},
                        {"wall_seconds", wall},
                        {"candidates_per_sec", per_sec}});
    }

    // --- 2. funnel speedup + top-1 agreement on a large grid --------------
    {
        const tg::PatternConfig pc =
            base_pattern(tg::Pattern::Transpose, 120);
        apps::Workload context;
        context.name = "transpose";
        const sweep::SweepDriver driver{pc, context};
        const std::vector<ic::XpipesConfig> meshes{
            {5, 4, 4, true, false, {}},
            {6, 3, 4, true, false, {}},
            {4, 5, 4, true, false, {}},
            {7, 3, 4, true, false, {}},
            {9, 2, 4, true, false, {}}};
        const auto grid = make_screen_grid(meshes, {2, 4, 8, 16},
                                           rate_ladder(25, 0.005, 0.8));
        std::printf("funnel grid: %zu candidates\n", grid.size());

        sweep::SweepOptions opts;
        opts.jobs = 4;
        opts.max_cycles = bench::kMaxCycles;

        sim::WallTimer all_timer;
        const auto truth = driver.run(grid, opts);
        const double all_wall = all_timer.seconds();

        opts.tier = sweep::Tier::Funnel;
        opts.funnel_top = 16;
        sim::WallTimer funnel_timer;
        const auto funneled = driver.run(grid, opts);
        const double funnel_wall = funnel_timer.seconds();

        // Determinism: the funnel at --jobs 1 must reproduce --jobs 4
        // bit-for-bit (extends the pattern_sweep identity gate).
        opts.jobs = 1;
        const auto serial = driver.run(grid, opts);
        bool identical = true;
        for (std::size_t i = 0; i < grid.size(); ++i)
            if (!sweep::bit_identical(serial[i], funneled[i])) {
                std::fprintf(stderr,
                             "FATAL: funnel '%s' diverged between --jobs\n",
                             grid[i].name.c_str());
                identical = false;
            }

        const u32 want = best_cycle_row(truth);
        const u32 got = best_cycle_row(funneled);
        const bool top1 = want == got;
        if (!top1)
            std::fprintf(stderr,
                         "FATAL: funnel top-1 '%s' != all-cycle top-1 '%s'\n",
                         funneled[got].name.c_str(), truth[want].name.c_str());
        const double speedup = funnel_wall > 0.0 ? all_wall / funnel_wall : 0.0;
        std::printf("all-cycle %.3f s, funnel %.3f s -> %.1fx speedup, "
                    "top-1 %s (%s)\n\n",
                    all_wall, funnel_wall, speedup,
                    top1 ? "MATCH" : "MISMATCH", truth[want].name.c_str());
        all_ok = all_ok && identical && top1;
        report.add_row("funnel",
                       {{"grid_candidates", static_cast<double>(grid.size())},
                        {"all_cycle_wall_seconds", all_wall},
                        {"funnel_wall_seconds", funnel_wall},
                        {"speedup", speedup},
                        {"top1_match", top1 ? 1.0 : 0.0},
                        {"identical", identical ? 1.0 : 0.0}});
    }

    // --- 3. rank fidelity: Spearman rho per pattern -----------------------
    {
        const std::vector<tg::Pattern> patterns{
            tg::Pattern::UniformRandom, tg::Pattern::BitComplement,
            tg::Pattern::Transpose,     tg::Pattern::Shuffle,
            tg::Pattern::Tornado,       tg::Pattern::Neighbor,
            tg::Pattern::Hotspot};
        double rho_min = 1.0;
        double rho_sum = 0.0;
        std::printf("rank fidelity (predicted vs cycle-measured completion "
                    "cycles):\n");
        for (const tg::Pattern p : patterns) {
            tg::PatternConfig pc = base_pattern(p, 200);
            pc.hotspot_fraction = 0.4;
            apps::Workload context;
            context.name = std::string{tg::to_string(p)};
            const sweep::SweepDriver driver{pc, context};
            const auto grid = make_screen_grid({{5, 4, 4, true, false, {}},
                                  {6, 3, 4, true, false, {}}},
                                 {2, 8},
                                               rate_ladder(8, 0.005, 0.64));
            sweep::SweepOptions opts;
            opts.jobs = 4;
            opts.max_cycles = bench::kMaxCycles;
            const auto truth = driver.run(grid, opts);
            opts.tier = sweep::Tier::Analytic;
            const auto predicted = driver.run(grid, opts);

            std::vector<double> want, got;
            for (std::size_t i = 0; i < grid.size(); ++i) {
                if (!truth[i].ok() || !predicted[i].ok()) {
                    std::fprintf(stderr, "FATAL: %s '%s' failed: %s%s\n",
                                 context.name.c_str(), grid[i].name.c_str(),
                                 truth[i].error.c_str(),
                                 predicted[i].error.c_str());
                    std::exit(1);
                }
                want.push_back(static_cast<double>(truth[i].cycles));
                got.push_back(static_cast<double>(predicted[i].cycles));
            }
            const double rho = analytic::spearman_rho(got, want);
            std::printf("  %-16s rho = %.4f over %zu candidates\n",
                        context.name.c_str(), rho, grid.size());
            rho_min = std::min(rho_min, rho);
            rho_sum += rho;
            report.add_row("rank_" + context.name,
                           {{"spearman_rho", rho},
                            {"candidates", static_cast<double>(grid.size())}});
        }
        const double rho_mean = rho_sum / static_cast<double>(patterns.size());
        std::printf("  min rho %.4f, mean rho %.4f\n", rho_min, rho_mean);
        report.add_row("summary", {{"spearman_rho_min", rho_min},
                                   {"spearman_rho_mean", rho_mean}});
    }

    if (!all_ok) {
        std::fprintf(stderr, "FATAL: analytic screen gate failed\n");
        return 1;
    }
    return 0;
}
