// Distributed sharded-sweep benchmark + CI gate (docs/sweep.md).
//
// Three questions, one per acceptance criterion of the sharding layer:
//
//   * merged identity — serialize 3 shard runs to report text, parse them
//     back, tgsim_merge-style merge_reports(), and compare byte-for-byte
//     against the unsharded --deterministic report. For the cycle AND
//     funnel tiers (the funnel screens the full grid in every shard, so
//     this checks the global-top-K rule too). Floor: identical == 1.
//   * sharding overhead — run the 3 shards sequentially and compare the
//     slowest shard against the 1/N ideal (single_wall / 3). This is
//     CPU-count-insensitive, so it gates per-shard overhead even on a
//     1-core CI host. Floor: ideal_fraction >= 0.2.
//   * multi-process speedup — run the 3 shards concurrently (three
//     threads, each a share-nothing driver.run call, the in-process
//     stand-in for 3 shard processes) vs the single run. Floor: >= 0.5x —
//     generous because CI hosts may expose a single core (same reasoning
//     as sweep_scaling's floors).
//
// Results go to BENCH_shard_sweep.json; ci/bench_floors.json pins the
// floors and ci/check_bench.py enforces them.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "sweep/shard.hpp"
#include "sweep/sweep.hpp"
#include "tg/patterns.hpp"

namespace tgsim {
namespace {

constexpr u32 kShards = 3;

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

/// mesh-shape x fifo-depth x rate candidate grid (analytic_screen's shape).
std::vector<sweep::Candidate> make_shard_grid() {
    const std::vector<ic::XpipesConfig> meshes{{5, 4, 4}, {6, 3, 4}, {4, 5, 4}};
    const std::vector<u32> fifos{2, 4, 8};
    const std::vector<double> rates{0.005, 0.01, 0.02, 0.04, 0.08, 0.16,
                                    0.32, 0.64};
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

sweep::SweepMeta make_meta(const sweep::SweepOptions& opts, u32 n_cores,
                           std::size_t n_candidates) {
    sweep::SweepMeta meta;
    meta.app = "shard_bench transpose 4x4";
    meta.n_cores = n_cores;
    meta.jobs = opts.jobs;
    meta.max_cycles = opts.max_cycles;
    meta.tier = opts.tier;
    meta.seed = opts.seed;
    meta.n_candidates = static_cast<u32>(n_candidates);
    if (opts.tier == sweep::Tier::Funnel) meta.funnel_top = opts.funnel_top;
    meta.shard = opts.shard;
    return meta;
}

/// Round-trips each shard's results through actual report text (the same
/// bytes tgsim_sweep --json writes and tgsim_merge reads), merges, and
/// compares against the canonical unsharded report byte for byte.
bool merged_identical(const sweep::SweepDriver& driver,
                      const std::vector<sweep::Candidate>& grid,
                      sweep::SweepOptions opts, const char* what) {
    sweep::SweepMeta single_meta = make_meta(opts, driver.n_cores(), grid.size());
    std::vector<sweep::SweepResult> single = driver.run(grid, opts);
    sweep::canonicalize(single_meta, single);
    const std::string want = sweep::json_report(single, single_meta);

    std::vector<sweep::ParsedReport> shards;
    for (u32 k = 0; k < kShards; ++k) {
        sweep::SweepOptions so = opts;
        so.shard = {k, kShards};
        const sweep::SweepMeta meta =
            make_meta(so, driver.n_cores(), grid.size());
        const std::string text =
            sweep::json_report(driver.run(grid, so), meta);
        std::string err;
        auto parsed = sweep::parse_report_text(text, &err);
        if (!parsed) {
            std::fprintf(stderr, "FATAL: %s shard %u report unparsable: %s\n",
                         what, k, err.c_str());
            std::exit(1);
        }
        shards.push_back(std::move(*parsed));
    }
    std::string err;
    const auto merged = sweep::merge_reports(std::move(shards), &err);
    if (!merged) {
        std::fprintf(stderr, "FATAL: %s merge rejected: %s\n", what,
                     err.c_str());
        std::exit(1);
    }
    const std::string got = sweep::json_report(merged->rows, merged->meta);
    if (got != want) {
        std::fprintf(stderr,
                     "FATAL: %s merged report differs from unsharded "
                     "(%zu vs %zu bytes)\n",
                     what, got.size(), want.size());
        return false;
    }
    std::printf("%s: merged == unsharded, %zu bytes\n", what, got.size());
    return true;
}

} // namespace
} // namespace tgsim

int main() {
    using namespace tgsim;
    bench::JsonReport report{"shard_sweep"};
    bool all_ok = true;

    tg::PatternConfig pc;
    pc.pattern = tg::Pattern::Transpose;
    pc.width = 4;
    pc.height = 4;
    pc.injection_rate = 0.005;
    pc.packets_per_core = 120 * bench::scale();
    pc.read_fraction = 0.5;
    apps::Workload context;
    context.name = "transpose";
    const sweep::SweepDriver driver{pc, context};
    const std::vector<sweep::Candidate> grid = make_shard_grid();
    std::printf("shard grid: %zu candidates, %u shards\n\n", grid.size(),
                kShards);

    sweep::SweepOptions opts;
    opts.jobs = 2;
    opts.max_cycles = bench::kMaxCycles;

    // --- 1. single unsharded run (baseline wall clock) --------------------
    sim::WallTimer single_timer;
    const auto single = driver.run(grid, opts);
    const double single_wall = single_timer.seconds();
    std::printf("single: %zu candidates in %.3f s\n", single.size(),
                single_wall);
    report.add_row("single",
                   {{"candidates", static_cast<double>(single.size())},
                    {"wall_seconds", single_wall}});

    // --- 2. sequential shards: per-shard overhead vs the 1/N ideal --------
    {
        double max_shard_wall = 0.0;
        std::size_t total_rows = 0;
        for (u32 k = 0; k < kShards; ++k) {
            sweep::SweepOptions so = opts;
            so.shard = {k, kShards};
            sim::WallTimer t;
            const auto rows = driver.run(grid, so);
            const double wall = t.seconds();
            if (wall > max_shard_wall) max_shard_wall = wall;
            total_rows += rows.size();
            std::printf("shard %u/%u: %zu candidates in %.3f s\n", k, kShards,
                        rows.size(), wall);
        }
        if (total_rows != grid.size()) {
            std::fprintf(stderr, "FATAL: shards cover %zu of %zu candidates\n",
                         total_rows, grid.size());
            all_ok = false;
        }
        const double ideal = single_wall / static_cast<double>(kShards);
        const double ideal_fraction =
            max_shard_wall > 0.0 ? ideal / max_shard_wall : 0.0;
        std::printf("slowest shard %.3f s vs %.3f s ideal -> "
                    "%.2f of ideal\n\n",
                    max_shard_wall, ideal, ideal_fraction);
        report.add_row("shards3_seq",
                       {{"max_shard_wall_seconds", max_shard_wall},
                        {"ideal_fraction", ideal_fraction}});
    }

    // --- 3. concurrent shards: the multi-process speedup, in-process ------
    {
        std::vector<std::vector<sweep::SweepResult>> rows(kShards);
        sim::WallTimer t;
        std::vector<std::thread> procs;
        for (u32 k = 0; k < kShards; ++k)
            procs.emplace_back([&, k] {
                sweep::SweepOptions so = opts;
                so.shard = {k, kShards};
                rows[k] = driver.run(grid, so);
            });
        for (std::thread& p : procs) p.join();
        const double par_wall = t.seconds();
        const double speedup = par_wall > 0.0 ? single_wall / par_wall : 0.0;
        std::printf("3 concurrent shards: %.3f s -> %.2fx vs single\n\n",
                    par_wall, speedup);
        report.add_row("shards3_par", {{"wall_seconds", par_wall},
                                       {"speedup_vs_single", speedup}});
    }

    // --- 4. merged identity, cycle and funnel tiers -----------------------
    {
        const bool cycle_ok = merged_identical(driver, grid, opts, "cycle");
        report.add_row("merge_cycle", {{"identical", cycle_ok ? 1.0 : 0.0}});

        sweep::SweepOptions fo = opts;
        fo.tier = sweep::Tier::Funnel;
        fo.funnel_top = 16;
        const bool funnel_ok = merged_identical(driver, grid, fo, "funnel");
        report.add_row("merge_funnel", {{"identical", funnel_ok ? 1.0 : 0.0}});
        all_ok = all_ok && cycle_ok && funnel_ok;
    }

    if (!all_ok) {
        std::fprintf(stderr, "FATAL: shard sweep gate failed\n");
        return 1;
    }
    return 0;
}
