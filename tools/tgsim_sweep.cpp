// tgsim-sweep — parallel design-space exploration driver (the paper's
// headline use case, fanned across a worker pool). --help lists every flag
// with its default and the flag it needs.
//
// Traced mode (the default) runs the reference simulation once (cycle-true
// cores on AMBA, traced), translates the traces once, then evaluates a
// candidate grid — AMBA under both arbitration policies, the crossbar, and
// one ×pipes candidate per fabric (fabric_axis) — with the TG platform,
// --jobs candidates at a time. Rows are independent of --jobs and --shard
// (docs/sweep.md).
//
// Pattern mode (--pattern, docs/traffic.md) swaps the traced workload for a
// synthetic pattern on the --grid core grid, and every fabric is crossed
// with the --rates and --fault-rate axes. --mesh=Wx⌈(W·H+2)/W⌉ lays the
// grid out row-major, so grid and mesh coordinates agree and the
// destination functions stress the links they name. Fault-enabled and
// table-graph candidates are always cycle-simulated, since the analytic
// model cannot score them (docs/faults.md, docs/topology.md); the funnel
// tier screens the full grid in every shard, so merged shards equal an
// unsharded run (docs/analytic.md).
//
// The campaign identity (the report's sweep.app, which tgsim_merge and
// --resume check) is the mode's base — the app, or pattern_<name> <grid> —
// plus every identity option given with a non-default value
// (cli::Options::identity, docs/sweep.md).
#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "cli.hpp"
#include "sweep/shard.hpp"
#include "sweep/sweep.hpp"
#include "tg/patterns.hpp"

using namespace tgsim;

namespace {

cli::OptionSet options() {
    using K = cli::OptionSpec::Kind;
    cli::OptionSet set{"tgsim-sweep",
                       "parallel design-space exploration driver; --pattern "
                       "switches to synthetic-traffic pattern mode"};
    set.add({"app", K::Choice, "NAME", "mp_matrix", "traced benchmark",
             "!pattern", false,
             {"cacheloop", "sp_matrix", "mp_matrix", "des"}})
        .add({"cores", K::Number, "N", "6", "benchmark core count",
              "!pattern"})
        .add({"size", K::Number, "N", "",
              "benchmark problem size (default per app: cacheloop 100000, "
              "des 16, else 24)",
              "!pattern", true})
        .add({"pattern", K::Choice, "NAME", "",
              "synthetic pattern payload (enables pattern mode)", "", false,
              {"uniform_random", "bit_complement", "transpose", "shuffle",
               "tornado", "neighbor", "hotspot"}})
        .add({"grid", K::Text, "WxH", "4x4", "logical core grid", "pattern"})
        .add({"rates", K::Text, "R,R,...", "0.01,0.02,0.04,0.08",
              "offered-rate axis, strictly ascending", "pattern", true})
        .add({"packets", K::Number, "N", "2000", "transactions per core",
              "pattern", true})
        .add({"process", K::Choice, "NAME", "poisson", "arrival process",
              "pattern", true, {"poisson", "uniform", "bursty"}})
        .add({"reads", K::Text, "F", "0.5", "read fraction in [0, 1]",
              "pattern", true})
        .add({"burst-frac", K::Text, "F", "0",
              "fraction of transactions that burst", "pattern", true})
        .add({"burst-len", K::Number, "N", "4", "beats per burst, 1..64",
              "pattern", true})
        .add({"hotspot", K::Number, "CORE", "0", "hotspot destination core",
              "pattern", true})
        .add({"hotspot-frac", K::Text, "F", "0.5",
              "share of traffic aimed at the hotspot", "pattern", true})
        .add({"mesh", K::Text, "SPEC,...", "",
              "candidate mesh shapes (auto|WxH) [default auto,8x1,3x3; "
              "auto with --pattern]",
              "", true})
        .add({"fifo", K::Text, "N,...", "4",
              "candidate FIFO depths, each in [2, 256]", "", true})
        .add({"topology", K::Text, "KIND,...", "mesh",
              "candidate topologies: mesh|torus|file:PATH", "", true})
        .add({"fault-rate", K::Text, "R,...", "0",
              "fault-probability axis in [0, 1]", "pattern", true})
        .add({"fault-seed", K::Number, "N", "0",
              "deterministic fault-stream seed", "pattern", true})
        .add({"source", K::Choice, "MODE", "closed", "traffic-source loop mode",
              "pattern", true, {"closed", "open"}})
        .add({"max-outstanding", K::Number, "N", "0",
              "in-flight read packets per master NI cap (0 = unbounded)",
              "source=open", true})
        .add({"pending-limit", K::Number, "N", "64",
              "per-master pending-packet queue bound", "source=open", true})
        .add({"tier", K::Choice, "NAME", "cycle", "evaluator tier", "pattern",
              false, {"cycle", "analytic", "funnel"}})
        .add({"funnel-top", K::Number, "K", "16",
              "cycle-simulated survivor budget", "tier=funnel"})
        .add({"shard", K::Text, "k/N", "",
              "evaluate only candidates with index % N == k"})
        .add({"checkpoint", K::Text, "FILE", "",
              "append completed rows to an fsync'd JSONL journal"})
        .add({"resume", K::Flag, "", "", "continue a journaled campaign",
              "checkpoint"})
        .add({"deterministic", K::Flag, "", "",
              "emit the canonical report form (byte-comparable)", "json"})
        .add({"progress", K::Flag, "", "", "periodic progress line on stderr"})
        .add({"no-fixed-prio", K::Flag, "", "",
              "drop the fixed-priority AMBA candidate (round-robin stays)",
              "!pattern", true})
        .add({"cpu-truth", K::Flag, "", "",
              "add the cycle-true ground-truth column (slow)", "!pattern",
              true})
        .add({"jobs", K::Number, "N", "0",
              "worker threads (0 = one per hardware thread)"})
        .add({"json", K::Text, "PATH", "", "machine-readable report"})
        .add({"max-cycles", K::Number, "N", "100000000",
              "per-candidate cycle budget"});
    return set;
}

/// One campaign of either mode: its identity, the open checkpoint journal
/// (if any) and the rows a previous attempt already evaluated.
struct Campaign {
    sweep::SweepMeta meta;
    sweep::JournalWriter journal;
    std::vector<sweep::SweepResult> resumed;
};

/// Opens the campaign `opts` will run over `n_candidates` candidates on
/// `n_cores` cores: its identity (`base` plus the identity options given)
/// and the --checkpoint/--resume wiring, which it hands to `opts`. Returns
/// false after a stderr diagnostic on any journal error — always before
/// the expensive part of a run.
bool open_campaign(const cli::Options& args, const std::string& base,
                   u32 n_cores, std::size_t n_candidates,
                   sweep::SweepOptions* opts, Campaign* camp) {
    sweep::SweepMeta& meta = camp->meta;
    meta.app = args.identity(base);
    meta.n_cores = n_cores;
    meta.jobs = sweep::resolve_jobs(opts->jobs, n_candidates);
    meta.max_cycles = opts->max_cycles;
    meta.tier = opts->tier;
    meta.seed = opts->seed;
    meta.n_candidates = static_cast<u32>(n_candidates);
    if (opts->tier == sweep::Tier::Funnel) meta.funnel_top = opts->funnel_top;
    meta.shard = opts->shard;
    if (!args.has("checkpoint")) return true;
    const std::string path = args.get("checkpoint");
    // Peek at the existing file first: appending a second campaign onto a
    // foreign journal must be an explicit decision, never an accident.
    long size = 0;
    if (std::FILE* f = std::fopen(path.c_str(), "rb")) {
        std::fseek(f, 0, SEEK_END);
        size = std::ftell(f);
        std::fclose(f);
    }
    std::string err;
    if (size > 0) {
        if (!args.has("resume")) {
            std::fprintf(stderr,
                         "--checkpoint: %s already exists; pass --resume to "
                         "continue it (or remove it first)\n",
                         path.c_str());
            return false;
        }
        auto journal = sweep::load_journal(path, &err);
        if (!journal) {
            std::fprintf(stderr, "--resume: %s\n", err.c_str());
            return false;
        }
        std::string field = sweep::meta_diff(journal->meta, meta);
        if (field.empty() && journal->meta.shard.index != meta.shard.index)
            field = "shard_index";
        if (!field.empty()) {
            std::fprintf(stderr,
                         "--resume: %s was journaled by a different campaign "
                         "(field '%s' differs)\n",
                         path.c_str(), field.c_str());
            return false;
        }
        camp->resumed = std::move(journal->rows);
        opts->resume = &camp->resumed;
        std::fprintf(stderr, "resuming: %zu journaled rows in %s\n",
                     camp->resumed.size(), path.c_str());
    }
    if (!camp->journal.open(path, meta, 32, &err)) {
        std::fprintf(stderr, "--checkpoint: %s\n", err.c_str());
        return false;
    }
    opts->journal = &camp->journal;
    return true;
}

/// Closes the journal and writes the --json report (in canonical form with
/// --deterministic). Returns false after a stderr diagnostic on a failed
/// write.
bool close_campaign(const cli::Options& args, Campaign* camp,
                    std::vector<sweep::SweepResult>& results) {
    if (camp->journal.is_open() && !camp->journal.close()) {
        std::fprintf(stderr, "--checkpoint: journal write failed\n");
        return false;
    }
    const std::string json = args.get("json");
    if (json.empty()) return true;
    if (args.has("deterministic")) sweep::canonicalize(camp->meta, results);
    if (!sweep::write_json_report(results, camp->meta, json)) {
        std::fprintf(stderr, "failed to write %s\n", json.c_str());
        return false;
    }
    std::printf("\nwrote %s (%zu candidates)\n", json.c_str(),
                results.size());
    return true;
}

/// The ×pipes fabric axes shared by both modes: every --fifo × --mesh ×
/// --topology point, in that nesting order. `default_mesh` is the --mesh
/// default, which depends on the mode. An unparsable shape or a fabric too
/// small for `n_cores` is a usage error.
std::vector<ic::XpipesConfig> fabric_axis(
    const cli::Options& args, const char* default_mesh,
    const std::vector<cli::TopologyChoice>& topologies, u32 n_cores) {
    std::vector<ic::XpipesConfig> out;
    const std::vector<std::string> meshes =
        cli::split_list(args.has("mesh") ? args.get("mesh") : default_mesh);
    for (const std::string& f : cli::split_list(args.get("fifo"))) {
        const u32 depth = cli::parse_fifo_depth(f);
        for (std::size_t mi = 0; mi < meshes.size(); ++mi) {
            const auto mesh = cli::parse_mesh(meshes[mi], depth);
            if (!mesh)
                cli::usage_error("mesh",
                                 "bad spec '" + meshes[mi] + "' (auto|WxH)");
            for (const cli::TopologyChoice& topo : topologies) {
                // A table graph fixes the fabric shape itself: crossing it
                // with every --mesh entry would only duplicate identical
                // candidates, so the mesh axis collapses to one point.
                if (topo.kind == ic::TopologyKind::Table && mi != 0)
                    continue;
                ic::XpipesConfig fabric = *mesh;
                fabric.topology = topo.kind;
                fabric.graph = topo.graph;
                if (topo.kind == ic::TopologyKind::Table)
                    fabric.width = fabric.height = 0;
                cli::check_fabric_capacity(fabric, n_cores,
                                           "--mesh/--topology");
                out.push_back(std::move(fabric));
            }
        }
    }
    return out;
}

/// A fraction flag: a number in [0, 1], or a usage error naming the flag.
double get_fraction(const cli::Options& args, const char* flag) {
    const std::string value = args.get(flag);
    const auto f = cli::parse_rate(value);
    if (!f || *f > 1.0)
        cli::usage_error(flag, "bad value '" + value + "' (need [0, 1])");
    return *f;
}

/// The pattern payload: --pattern on the --grid core grid, shaped by
/// --packets, --process, --reads, --burst-frac/--burst-len and
/// --hotspot/--hotspot-frac. The --rates axis sets each candidate's rate.
tg::PatternConfig get_pattern(const cli::Options& args) {
    const std::string grid_spec = args.get("grid");
    const auto grid = cli::parse_mesh(grid_spec, 4, "grid");
    if (!grid || grid->width == 0) // the core grid needs explicit dims
        cli::usage_error("grid", "bad spec '" + grid_spec + "' (WxH, e.g. 4x4)");
    tg::PatternConfig pc;
    pc.pattern = *tg::parse_pattern(args.get("pattern")); // a validated Choice
    pc.width = grid->width;
    pc.height = grid->height;
    pc.packets_per_core = args.get_u64("packets");
    pc.process = cli::get_enum<tg::ArrivalProcess>(
        args, "process",
        {{"poisson", tg::ArrivalProcess::Poisson},
         {"uniform", tg::ArrivalProcess::Uniform},
         {"bursty", tg::ArrivalProcess::Bursty}});
    pc.read_fraction = get_fraction(args, "reads");
    pc.burst_fraction = get_fraction(args, "burst-frac");
    const u32 burst_len = args.get_u32("burst-len");
    if (burst_len < 1 || burst_len > ocp::kMaxBurstLen)
        cli::usage_error("burst-len", "must be in [1, " +
                                          std::to_string(ocp::kMaxBurstLen) + "]");
    pc.burst_len = static_cast<u16>(burst_len);
    pc.hotspot_core = args.get_u32("hotspot");
    pc.hotspot_fraction = get_fraction(args, "hotspot-frac");
    return pc;
}

/// The reliability table (docs/faults.md), when any row carries the fault
/// block.
void print_fault_table(const std::vector<sweep::SweepResult>& results) {
    const auto has = [](const sweep::SweepResult& r) {
        return r.ok() && r.has_faults;
    };
    if (std::none_of(results.begin(), results.end(), has)) return;
    std::printf("\n%-26s %10s %10s %8s %8s %8s %8s\n", "candidate",
                "injected", "delivered", "recov", "retries", "lost",
                "dropped");
    for (const sweep::SweepResult& r : results) {
        if (!has(r)) continue;
        std::printf("%-26s %10llu %9.4f%% %8llu %8llu %8llu %8llu\n",
                    r.name.c_str(),
                    static_cast<unsigned long long>(r.fault_injected),
                    100.0 * r.delivered_ratio,
                    static_cast<unsigned long long>(r.fault_recovered),
                    static_cast<unsigned long long>(r.fault_retries),
                    static_cast<unsigned long long>(r.fault_lost),
                    static_cast<unsigned long long>(r.fault_dropped));
    }
}

/// The open-loop split (docs/traffic.md), when any row carries the open
/// block: in-network latency is the saturation signal, source-queue
/// latency shows where offered load waits.
void print_open_table(const std::vector<sweep::SweepResult>& results) {
    const auto has = [](const sweep::SweepResult& r) {
        return r.ok() && r.has_open;
    };
    if (std::none_of(results.begin(), results.end(), has)) return;
    std::printf("\n%-26s %10s %8s %8s %10s %10s %9s\n", "candidate",
                "net mean", "net p50", "net p99", "srcq mean", "srcq p99",
                "pend pk");
    for (const sweep::SweepResult& r : results) {
        if (!has(r)) continue;
        std::printf("%-26s %10.1f %8llu %8llu %10.1f %10llu %9llu\n",
                    r.name.c_str(), r.net_lat_mean,
                    static_cast<unsigned long long>(r.net_lat_p50),
                    static_cast<unsigned long long>(r.net_lat_p99),
                    r.sq_lat_mean,
                    static_cast<unsigned long long>(r.sq_lat_p99),
                    static_cast<unsigned long long>(r.pending_peak));
    }
}

/// One saturation line per fabric: sweep::find_saturation over that
/// fabric's cycle-measured rows, which the grid lists in ascending rate
/// order. Analytic predictions never name a saturation point.
void print_saturation(const std::vector<sweep::SweepResult>& results) {
    std::vector<std::pair<std::string, std::vector<sweep::SweepResult>>> curves;
    std::unordered_map<std::string, std::size_t> slot;
    for (const sweep::SweepResult& r : results) {
        if (r.analytic) continue;
        const auto [it, fresh] = slot.emplace(r.fabric, curves.size());
        if (fresh) curves.emplace_back(r.fabric, std::vector<sweep::SweepResult>{});
        curves[it->second].second.push_back(r);
    }
    if (!curves.empty()) std::printf("\n");
    for (const auto& [fabric, curve] : curves) {
        const sweep::SaturationPoint sat = sweep::find_saturation(curve);
        if (sat.found)
            std::printf("%s: saturation at offered %.4f: throughput %.4f "
                        "txn/core/cycle (mean latency %.1f cycles)\n",
                        fabric.c_str(), sat.offered, sat.throughput,
                        sat.mean_latency);
        else
            std::printf("%s: no saturation in the swept range; max accepted "
                        "%.4f txn/core/cycle at offered %.4f\n",
                        fabric.c_str(), sat.throughput, sat.offered);
    }
}

/// Pattern-payload mode: candidates over mesh × fifo × rate, evaluated by
/// the tier selected on the command line.
int run_pattern_mode(const cli::Options& args) {
    const tg::PatternConfig pc = get_pattern(args);
    const u32 n_cores = pc.width * pc.height;
    const std::vector<double> rates = cli::get_rates(args);

    // Fault axis (docs/faults.md): each entry is a total per-flit fault
    // probability; 0 keeps the fault layer (and its grid column) off.
    const std::vector<double> fault_rates = cli::get_fault_rates(args);
    const u64 fault_seed = args.get_u64("fault-seed");

    // Source-mode axis (docs/traffic.md): one mode for the whole campaign.
    const tg::SourceConfig source = cli::get_source(args);
    if (source.open() && std::any_of(fault_rates.begin(), fault_rates.end(),
                                     [](double r) { return r > 0.0; })) {
        std::fprintf(stderr,
                     "--source=open does not compose with --fault-rate yet "
                     "(both modes rewrite the master NI send path)\n");
        return 1;
    }

    // Fabric axes: every mesh shape × topology × FIFO depth,
    // latency-instrumented. Graph files load and validate here, before any
    // simulation, and all workers share the parsed spec.
    std::vector<sweep::Candidate> candidates;
    for (const ic::XpipesConfig& fabric :
         fabric_axis(args, "auto", cli::get_topologies(args), n_cores)) {
        for (const double rate : rates) {
            for (const double frate : fault_rates) {
                sweep::Candidate c;
                c.cfg.ic = platform::IcKind::Xpipes;
                c.cfg.xpipes = fabric;
                c.cfg.xpipes.collect_latency = true;
                c.cfg.xpipes.fault = cli::make_fault(frate, fault_seed);
                c.source = source;
                c.source.rate = rate;
                // describe_fabric appends the fault axis itself when it
                // is enabled, so zero-fault names are unchanged.
                char buf[128];
                std::snprintf(buf, sizeof buf, "%s r=%.4f",
                              sweep::describe_fabric(c.cfg).c_str(), rate);
                c.name = buf;
                candidates.push_back(std::move(c));
            }
        }
    }

    sweep::SweepOptions opts;
    opts.jobs = args.get_u32("jobs");
    opts.max_cycles = args.get_u64("max-cycles");
    opts.tier = cli::get_tier(args);
    opts.funnel_top = cli::get_funnel_top(args);
    opts.shard = cli::get_shard(args);
    opts.progress = args.has("progress");

    apps::Workload context; // patterns compute nothing: empty images/checks
    context.name = "pattern_" + std::string{tg::to_string(pc.pattern)};

    try {
        const sweep::SweepDriver driver{pc, context};
        Campaign camp;
        if (!open_campaign(args, context.name + " " + args.get("grid"),
                           n_cores, candidates.size(), &opts, &camp))
            return 1;
        std::printf("%s on a %ux%u core grid, %zu candidates, tier %s, "
                    "%u workers\n\n",
                    args.get("pattern").c_str(), pc.width, pc.height,
                    candidates.size(),
                    std::string{sweep::to_string(opts.tier)}.c_str(),
                    camp.meta.jobs);
        sim::WallTimer timer;
        std::vector<sweep::SweepResult> results = driver.run(candidates, opts);
        const double sweep_wall = timer.seconds();

        std::printf("%-26s %5s %12s %10s %10s %9s %8s %8s %8s %10s\n",
                    "candidate", "tier", "cycles", "offered", "accepted",
                    "mean lat", "p50", "p99", "max", "NI wait");
        const sweep::SweepResult* best = nullptr;
        bool setup_error = false;
        for (const sweep::SweepResult& r : results) {
            if (!r.ok()) {
                std::printf("%-26s REJECTED: %s\n", r.name.c_str(),
                            r.error.c_str());
                if (r.failure == sweep::FailureKind::SetupError)
                    setup_error = true;
                continue;
            }
            std::printf(
                "%-26s %5s %12llu %10.4f %10.4f %9.1f %8llu %8llu %8llu %10llu\n",
                r.name.c_str(), r.analytic ? "pred" : "cycle",
                static_cast<unsigned long long>(r.cycles), r.offered_rate,
                r.accepted_rate, r.lat_mean,
                static_cast<unsigned long long>(r.lat_p50),
                static_cast<unsigned long long>(r.lat_p99),
                static_cast<unsigned long long>(r.lat_max),
                static_cast<unsigned long long>(r.contention_cycles));
            // The headline answer: the fastest-completing candidate, only
            // ever picked from cycle-measured rows in funnel mode (the
            // survivors), so funnel top-1 == all-cycle top-1.
            const bool eligible =
                opts.tier == sweep::Tier::Analytic || !r.analytic;
            if (eligible && (best == nullptr || r.cycles < best->cycles ||
                             (r.cycles == best->cycles &&
                              r.index < best->index)))
                best = &r;
        }
        print_fault_table(results);
        print_open_table(results);
        print_saturation(results);
        std::printf("\n%zu candidates in %.3f s wall\n", results.size(),
                    sweep_wall);
        if (best != nullptr)
            std::printf("best: %s (%llu cycles)\n", best->name.c_str(),
                        static_cast<unsigned long long>(best->cycles));
        if (!close_campaign(args, &camp, results)) return 1;
        return setup_error ? 1 : 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}

} // namespace

int main(int argc, char** argv) {
    const cli::Options args = options().parse(argc, argv);
    if (args.has("pattern")) return run_pattern_mode(args);
    const std::string app = args.get("app");
    const u32 cores = args.get_u32("cores");
    const u32 size =
        args.has("size") ? args.get_u32("size") : cli::default_size(app);
    const Cycle max_cycles = args.get_u64("max-cycles");
    const auto workload = cli::make_workload(app, cores, size);

    // --- candidate grid (parsed before the expensive reference run, so a
    // flag typo fails in milliseconds, not after minutes of simulation) ---
    sweep::GridSpec grid;
    grid.amba_fixed_priority = !args.has("no-fixed-prio");
    const u32 n_cores = static_cast<u32>(workload->cores.size());
    grid.meshes = fabric_axis(args, "auto,8x1,3x3", cli::get_topologies(args),
                              n_cores);
    const std::vector<sweep::Candidate> candidates = sweep::make_grid(grid);
    sweep::SweepOptions opts;
    opts.jobs = args.get_u32("jobs");
    opts.max_cycles = max_cycles;
    opts.with_cpu_truth = args.has("cpu-truth");
    opts.shard = cli::get_shard(args);
    opts.progress = args.has("progress");

    // Campaign identity + checkpoint/resume wiring, validated before the
    // expensive reference run so a stale journal fails in milliseconds.
    Campaign camp;
    if (!open_campaign(args, app, n_cores, candidates.size(), &opts, &camp))
        return 1;

    // --- one reference simulation, traced ---
    platform::PlatformConfig ref_cfg;
    ref_cfg.n_cores = n_cores;
    ref_cfg.ic = platform::IcKind::Amba;
    ref_cfg.collect_traces = true;
    platform::Platform ref{ref_cfg};
    ref.load_workload(*workload);
    const auto ref_res = ref.run(max_cycles);
    std::string msg;
    if (!ref_res.completed || !ref.run_checks(*workload, &msg)) {
        std::fprintf(stderr, "reference run failed: %s\n",
                     ref_res.completed ? msg.c_str() : "did not complete");
        return 1;
    }
    std::printf("reference (cores on AMBA): %llu cycles, %.3f s wall\n",
                static_cast<unsigned long long>(ref_res.cycles),
                ref_res.wall_seconds);

    // --- one translation ---
    tg::TranslateOptions topt;
    topt.polls = workload->polls;
    std::vector<tg::TgProgram> programs;
    for (const auto& t : ref.traces())
        programs.push_back(tg::translate(t, topt).program);

    // --- parallel evaluation ---
    sweep::SweepDriver driver{programs, *workload};
    sim::WallTimer timer;
    std::vector<sweep::SweepResult> results = driver.run(candidates, opts);
    const double sweep_wall = timer.seconds();

    std::printf("evaluated %zu candidates in %.3f s wall (%u workers)\n\n",
                results.size(), sweep_wall, camp.meta.jobs);
    std::printf("%-20s %12s %9s %10s %8s%s\n", "candidate", "TG cycles",
                "busy%", "contention", "wall s",
                opts.with_cpu_truth ? "    CPU truth   TG err" : "");
    bool replay_bug = false;
    for (const sweep::SweepResult& r : results) {
        if (r.failure == sweep::FailureKind::ChecksFailed) {
            // A completed replay that corrupts workload memory is a
            // correctness bug, not a design finding — fail the invocation
            // so CI smoke grids catch it.
            std::printf("%-20s CHECKS FAILED: %s\n", r.name.c_str(),
                        r.error.c_str());
            replay_bug = true;
            continue;
        }
        if (!r.ok()) {
            std::printf("%-20s REJECTED: %s\n", r.name.c_str(),
                        r.error.c_str());
            continue;
        }
        std::printf("%-20s %12llu %8.1f%% %10llu %8.3f", r.name.c_str(),
                    static_cast<unsigned long long>(r.cycles), r.busy_pct,
                    static_cast<unsigned long long>(r.contention_cycles),
                    r.wall_seconds);
        if (r.has_cpu_truth)
            std::printf(" %12llu %+7.2f%%",
                        static_cast<unsigned long long>(r.cpu_cycles),
                        r.err_pct);
        std::printf("\n");
    }
    if (!close_campaign(args, &camp, results)) return 1;
    return replay_bug ? 1 : 0;
}
