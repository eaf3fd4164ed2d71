// tgsim-translate — trace-to-TG-program translator (the paper's Sec. 5 tool).
//
//   tgsim-translate core0.trc core1.trc --out-dir=programs/ 
//       [--mode=reactive|timeshift|clone] [--app=mp_matrix --cores=N]
//       [--poll=base:size:cmp:value:idle ...] [--loop-forever]
//
// Pollable-resource knowledge comes either from the named benchmark
// (--app, which publishes its own PollSpecs) or from explicit --poll flags.
#include <cstdio>

#include "cli.hpp"
#include "tg/program.hpp"

using namespace tgsim;

namespace {

cli::OptionSet options() {
    using K = cli::OptionSpec::Kind;
    cli::OptionSet set{"tgsim-translate",
                       "translate .trc traces into .tgp TG programs",
                       "FILE.trc..."};
    set.add({"mode", K::Choice, "MODE", "reactive", "translation mode", "",
             false, {"clone", "timeshift", "reactive"}})
        .add({"out-dir", K::Text, "DIR", ".", "where coreN.tgp files go"})
        .add({"app", K::Choice, "NAME", "",
              "benchmark whose pollable resources to use", "", false,
              {"cacheloop", "sp_matrix", "mp_matrix", "des"}})
        .add({"cores", K::Number, "N", "4", "benchmark core count", "app"})
        .add({"size", K::Number, "N", "24", "benchmark problem size", "app"})
        .add({"poll", K::Text, "SPEC", "",
              "pollable resource BASE:SIZE:CMP:VALUE:IDLE, CMP eq|ne|ltu|geu",
              "", false, {}, /*repeatable=*/true})
        .add({"loop-forever", K::Flag, "", "",
              "end with Jump(start) instead of Halt (rewinding TG)"});
    return set;
}

} // namespace

int main(int argc, char** argv) {
    const cli::Options args = options().parse(argc, argv);
    if (args.positional().empty()) {
        options().print_help(stderr);
        return 1;
    }

    tg::TranslateOptions opt;
    opt.mode = cli::get_enum<tg::TgMode>(
        args, "mode",
        {{"clone", tg::TgMode::Clone},
         {"timeshift", tg::TgMode::Timeshift},
         {"reactive", tg::TgMode::Reactive}});
    opt.loop_forever = args.has("loop-forever");
    if (args.has("app"))
        opt.polls = cli::make_workload(args.get("app"), args.get_u32("cores"),
                                        args.get_u32("size"))
                         ->polls;
    for (const auto& p : cli::parse_polls(args.get_all("poll")))
        opt.polls.push_back(p);

    const std::string out_dir = args.get("out-dir");
    for (const std::string& path : args.positional()) {
        const tg::Trace trace = cli::load_trace("tgsim-translate", path);
        const auto res = tg::translate(trace, opt);
        const std::string out =
            out_dir + "/core" + std::to_string(trace.core_id) + ".tgp";
        cli::write_text_file(out, tg::to_text(res.program));
        std::printf(
            "%s: %llu events -> %zu instrs (%llu polls -> %llu loops, "
            "%llu clamped) -> %s\n",
            path.c_str(), static_cast<unsigned long long>(res.events_in),
            res.program.instrs.size(),
            static_cast<unsigned long long>(res.polls_collapsed),
            static_cast<unsigned long long>(res.poll_loops),
            static_cast<unsigned long long>(res.clamped_idles), out.c_str());
        // A poll run split by another access (say an I-cache refill between
        // two polls) ends on a read that still retries; docs/traffic.md.
        if (res.data_warnings != 0)
            std::fprintf(stderr,
                         "warning: %s: %llu poll reads inconsistent with spec "
                         "(first: line %zu, address 0x%08X)\n",
                         path.c_str(),
                         static_cast<unsigned long long>(res.data_warnings),
                         tg::event_line(cli::read_text_file(path), res.first_warning),
                         trace.events[res.first_warning].addr);
    }
    return 0;
}
