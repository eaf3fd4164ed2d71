// tgsim-replay — TG-platform simulation driver (the exploration half of the
// paper's flow).
//
//   tgsim-replay core0.tgp core1.tgp ... --ic=xpipes
//       [--app=mp_matrix --cores=N --size=S]   (environment + result checks)
//       [--no-skip] [--max-cycles=N] [--json=PATH]
//
// Loads one .tgp program per core onto a TG platform with the chosen
// interconnect. With --app the shared-memory environment of the named
// benchmark is initialised first and its result checks run afterwards —
// a TG replay must leave memory exactly as the reference run did. A replay
// is a one-candidate sweep, so it shares the sweep driver's evaluation and
// --json report format (docs/sweep.md).
#include <cstdio>

#include "cli.hpp"
#include "sweep/sweep.hpp"
#include "tg/program.hpp"

using namespace tgsim;

namespace {

cli::OptionSet options() {
    using K = cli::OptionSpec::Kind;
    cli::OptionSet set{"tgsim-replay",
                       "replay one .tgp program per core on a TG platform "
                       "(a one-candidate sweep)",
                       "FILE.tgp..."};
    // No --source axis here: a translated trace replays a closed-loop
    // execution by construction (its gaps encode the recorded
    // dependencies), so open-loop injection is a pattern-mode concept.
    set.add({"ic", K::Choice, "KIND", "amba", "interconnect", "", false,
             {"amba", "crossbar", "xpipes"}})
        .add({"app", K::Choice, "NAME", "",
              "benchmark environment + result checks", "", false,
              {"cacheloop", "sp_matrix", "mp_matrix", "des"}})
        .add({"cores", K::Number, "N", "",
              "benchmark core count (default: one per program)", "app"})
        .add({"size", K::Number, "N", "",
              "benchmark problem size (default per app: cacheloop 100000, "
              "des 16, else 24)",
              "app"})
        .add({"no-skip", K::Flag, "", "",
              "fully clocked kernel (paper-faithful costs)"})
        .add({"jobs", K::Number, "N", "1", "accepted for symmetry; replay"
              " is a single candidate"})
        .add({"json", K::Text, "PATH", "", "machine-readable report"})
        .add({"max-cycles", K::Number, "N", "600000000", "cycle budget"});
    return set;
}

} // namespace

int main(int argc, char** argv) {
    const cli::Options args = options().parse(argc, argv);
    if (args.positional().empty()) {
        options().print_help(stderr);
        return 1;
    }
    const platform::IcKind ic = cli::get_ic(args);

    std::vector<tg::TgProgram> programs;
    for (const std::string& path : args.positional())
        programs.push_back(cli::load_program("tgsim-replay", path));

    apps::Workload env;
    bool have_checks = false;
    if (args.has("app")) {
        const std::string app = args.get("app");
        env = *cli::make_workload(
            app,
            args.has("cores") ? args.get_u32("cores")
                              : static_cast<u32>(programs.size()),
            args.has("size") ? args.get_u32("size") : cli::default_size(app));
        have_checks = !env.checks.empty();
    } else {
        env.cores.resize(programs.size());
    }

    sweep::Candidate cand;
    cand.cfg.ic = ic;
    if (args.has("no-skip")) { // fully clocked kernel (paper-faithful costs)
        cand.cfg.kernel_gating = false;
        cand.cfg.max_idle_skip = 0;
    }
    cand.name = sweep::describe_fabric(cand.cfg);

    sweep::SweepDriver driver{programs, env};
    sweep::SweepOptions opts;
    opts.jobs = 1;
    opts.max_cycles = args.get_u64("max-cycles");
    const sweep::SweepResult r = driver.run({cand}, opts).at(0);

    // The report records failures too (ok:false rows, same as tgsim_sweep),
    // so scripted consumers always find the file after a run.
    const std::string json = args.get("json");
    if (!json.empty()) {
        sweep::SweepMeta meta;
        meta.app = args.get("app");
        meta.n_cores = driver.n_cores();
        meta.jobs = 1;
        meta.max_cycles = opts.max_cycles;
        meta.tier = opts.tier;
        meta.seed = opts.seed;
        meta.n_candidates = 1;
        if (!sweep::write_json_report({r}, meta, json)) {
            std::fprintf(stderr, "failed to write %s\n", json.c_str());
            return 1;
        }
        std::printf("wrote %s\n", json.c_str());
    }

    if (!r.completed) {
        // r.error distinguishes a genuine timeout/livelock from a setup
        // failure (bad environment, impossible fabric) caught in the worker.
        std::fprintf(stderr, "replay failed: %s\n", r.error.c_str());
        return 1;
    }
    std::printf("ic=%s cores=%u\n",
                std::string(platform::to_string(ic)).c_str(),
                driver.n_cores());
    std::printf("execution: %llu cycles; simulated in %.3f s wall\n",
                static_cast<unsigned long long>(r.cycles), r.wall_seconds);
    for (u32 i = 0; i < driver.n_cores(); ++i)
        std::printf("  core %u halted @%llu\n", i,
                    static_cast<unsigned long long>(r.per_core[i]));
    std::printf("interconnect: %llu busy cycles, %llu contention cycles\n",
                static_cast<unsigned long long>(r.busy_cycles),
                static_cast<unsigned long long>(r.contention_cycles));
    if (have_checks) {
        std::printf("checks: %s%s\n", r.checks_ok ? "PASS" : "FAIL ",
                    r.checks_ok ? "" : r.error.c_str());
        return r.checks_ok ? 0 : 1;
    }
    return 0;
}
