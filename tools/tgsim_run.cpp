// tgsim-run — reference simulation driver.
//
//   tgsim-run --app=mp_matrix --cores=4 --size=24 --ic=amba 
//             --trace-dir=traces/ [--no-skip] [--max-cycles=N]
//
// Runs the named benchmark with cycle-true CPU cores on the chosen
// interconnect, verifies the results, prints the performance summary, and
// (with --trace-dir) writes one .trc file per core for later translation.
#include <cstdio>

#include "cli.hpp"

using namespace tgsim;

namespace {

cli::OptionSet options() {
    using K = cli::OptionSpec::Kind;
    cli::OptionSet set{"tgsim-run",
                       "reference simulation: cycle-true CPU cores run a "
                       "benchmark, results are checked, traces optionally "
                       "written"};
    set.add({"app", K::Choice, "NAME", "mp_matrix", "benchmark",
             {"cacheloop", "sp_matrix", "mp_matrix", "des"}})
        .add({"cores", K::Number, "N", "4", "core count"})
        .add({"size", K::Number, "N", "",
              "problem size (default per app: cacheloop 100000, des 16, "
              "else 24)"})
        .add({"ic", K::Choice, "KIND", "amba", "interconnect",
              {"amba", "crossbar", "xpipes"}})
        .add({"trace-dir", K::Text, "DIR", "",
              "write one coreN.trc per core into DIR"})
        .add({"no-skip", K::Flag, "", "",
              "fully clocked kernel (paper-faithful costs)"})
        .add({"max-cycles", K::Number, "N", "600000000", "cycle budget"});
    return set;
}

} // namespace

int main(int argc, char** argv) {
    const cli::Options args = options().parse(argc, argv);
    const std::string app = args.get("app");
    const u32 cores = args.get_u32("cores");
    const u32 size =
        args.has("size") ? args.get_u32("size") : cli::default_size(app);
    const platform::IcKind ic = cli::get_ic(args);
    const auto workload = cli::make_workload(app, cores, size);
    if (args.has("trace-dir") && args.get("trace-dir").empty())
        cli::usage_error("trace-dir", "needs a directory");

    platform::PlatformConfig cfg;
    cfg.n_cores = static_cast<u32>(workload->cores.size());
    cfg.ic = ic;
    cfg.collect_traces = args.has("trace-dir");
    cfg.done_check_interval = 1024;
    if (args.has("no-skip")) { // fully clocked kernel (paper-faithful costs)
        cfg.kernel_gating = false;
        cfg.max_idle_skip = 0;
    }

    platform::Platform p{cfg};
    p.load_workload(*workload);
    const auto res = p.run(args.get_u64("max-cycles"));
    if (!res.completed) {
        std::fprintf(stderr, "did not complete within the cycle budget\n");
        return 1;
    }
    std::string msg;
    const bool ok = p.run_checks(*workload, &msg);

    std::printf("app=%s cores=%u ic=%s\n", app.c_str(), cfg.n_cores,
                std::string(platform::to_string(ic)).c_str());
    std::printf("execution: %llu cycles (%llu ns at %llu ns/cycle)\n",
                static_cast<unsigned long long>(res.cycles),
                static_cast<unsigned long long>(res.cycles * kCyclePeriodNs),
                static_cast<unsigned long long>(kCyclePeriodNs));
    std::printf("simulated: %.3f s wall, %llu instructions\n", res.wall_seconds,
                static_cast<unsigned long long>(res.total_instructions));
    std::printf("checks: %s%s\n", ok ? "PASS" : "FAIL ",
                ok ? "" : msg.c_str());
    std::printf("interconnect: %llu busy cycles, %llu contention cycles\n",
                static_cast<unsigned long long>(p.interconnect().busy_cycles()),
                static_cast<unsigned long long>(
                    p.interconnect().contention_cycles()));

    if (args.has("trace-dir")) {
        const std::string dir = args.get("trace-dir");
        for (const auto& trace : p.traces()) {
            const std::string path =
                dir + "/core" + std::to_string(trace.core_id) + ".trc";
            tg::save(trace, path);
            std::printf("wrote %s (%zu events)\n", path.c_str(),
                        trace.events.size());
        }
    }
    return ok ? 0 : 1;
}
