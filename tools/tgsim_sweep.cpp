// tgsim-sweep — parallel design-space exploration driver (the paper's
// headline use case, fanned across a worker pool).
//
//   tgsim-sweep --app=mp_matrix --cores=6 --size=24
//               [--jobs=N] [--json=PATH] [--max-cycles=N]
//               [--mesh=auto,8x1,3x3] [--fifo=2,4,8]
//               [--topology=mesh,torus,file:PATH]
//               [--no-fixed-prio] [--cpu-truth]
//
// Runs the reference simulation once (cycle-true cores on AMBA, traced),
// translates the traces once, then evaluates a candidate grid — AMBA under
// both arbitration policies, the crossbar, and one candidate per ×pipes
// mesh shape × FIFO depth — with the TG platform, --jobs candidates at a
// time. Per-candidate results are deterministic and independent of --jobs
// (see docs/sweep.md). --json writes the machine-readable report;
// --cpu-truth adds a (much slower) cycle-true ground-truth column.
//
// Pattern mode (docs/analytic.md) swaps the traced workload for a synthetic
// traffic pattern and unlocks the evaluator tiers:
//
//   tgsim-sweep --pattern=transpose [--grid=4x4] [--rates=0.01,0.02,...]
//               [--mesh=...] [--fifo=...] [--packets=N]
//               [--topology=mesh,torus,file:PATH]
//               [--fault-rate=0,0.001,...] [--fault-seed=N]
//               [--source=closed|open] [--max-outstanding=N]
//               [--pending-limit=N]
//               [--tier=cycle|analytic|funnel] [--funnel-top=K]
//
// The candidate grid is every --mesh × --topology × --fifo × --rates ×
// --fault-rate point (×pipes fabrics with latency collection). --topology
// makes the fabric topology a sweepable axis (docs/topology.md): torus
// candidates are screened analytically like meshes, table-routed graphs
// (file:PATH) are cycle-only and pass the funnel untouched; a table graph
// fixes the fabric shape itself, so the --mesh axis collapses to one point
// for it. Non-mesh topologies fold into the campaign identity, so shard
// merges and journal resumes never mix topologies. --fault-rate makes fault
// tolerance a sweepable axis (docs/faults.md): each nonzero entry enables
// deterministic fault injection plus the NI recovery protocol, and those
// rows carry the fault_* reliability columns. Fault-enabled candidates are
// always cycle-simulated (the analytic model cannot score them), and the
// fault axis is folded into the campaign identity so shard merges and
// journal resumes never mix fault levels. --tier=analytic scores the grid
// with the closed-form model in microseconds per candidate; --tier=funnel
// screens analytically and cycle-simulates only the --funnel-top best
// predictions (plus any fabric outside the model), which is the route to
// very large grids. Funnel survivor rows are bit-identical to an all-cycle
// run at any --jobs. Analytic/funnel tiers require --pattern.
// --source=open switches every candidate to open-loop sources
// (docs/traffic.md): offered load keeps arriving regardless of
// completions, rows carry the source-queue / in-network latency split, and
// the mode folds into the campaign identity so open and closed shards
// never merge or resume into each other. The analytic tier scores open
// candidates without the closed-loop fixed point (carried rate =
// min(offered, predicted saturation)).
//
// Distributed-campaign flags, both modes (docs/sweep.md):
//
//   --shard=k/N        evaluate only candidates with index % N == k; the
//                      report keeps original indices and records the shard,
//                      so N shard reports merge back into the canonical
//                      single-run report with tgsim_merge. The funnel tier
//                      still screens the FULL grid in every shard, so the
//                      merged funnel output equals an unsharded run.
//   --checkpoint=FILE  append each completed cycle row to an fsync'd JSONL
//                      journal; --resume continues a killed campaign from
//                      it, re-evaluating only unjournaled candidates.
//   --deterministic    emit the canonical report form (jobs = 0, wall
//                      clocks zeroed) — byte-comparable across runs and to
//                      tgsim_merge output.
//   --progress         periodic progress line on stderr (off by default).
#include <cstdio>

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
             {"cacheloop", "sp_matrix", "mp_matrix", "des"}})
        .add({"cores", K::Number, "N", "6", "benchmark core count"})
        .add({"size", K::Number, "N", "",
              "benchmark problem size (default per app: cacheloop 100000, "
              "des 16, else 24)"})
        .add({"pattern", K::Choice, "NAME", "",
              "synthetic pattern payload (enables pattern mode)",
              {"uniform_random", "bit_complement", "transpose", "shuffle",
               "tornado", "neighbor", "hotspot"}})
        .add({"grid", K::Text, "WxH", "4x4",
              "pattern mode: logical core grid"})
        .add({"rates", K::Text, "R,R,...", "0.01,0.02,0.04,0.08",
              "pattern mode: offered-rate axis, strictly ascending"})
        .add({"packets", K::Number, "N", "2000",
              "pattern mode: transactions per core"})
        .add({"mesh", K::Text, "SPEC,...", "",
              "candidate mesh shapes (auto|WxH) [default auto,8x1,3x3; "
              "auto with --pattern]"})
        .add({"fifo", K::Text, "N,...", "4",
              "candidate FIFO depths, each in [2, 256]"})
        .add({"topology", K::Text, "KIND,...", "mesh",
              "candidate topologies: mesh|torus|file:PATH"})
        .add({"fault-rate", K::Text, "R,...", "0",
              "fault-probability axis in [0, 1]"})
        .add({"fault-seed", K::Number, "N", "0",
              "deterministic fault-stream seed"})
        .add({"tier", K::Choice, "NAME", "cycle", "evaluator tier",
              {"cycle", "analytic", "funnel"}})
        .add({"funnel-top", K::Number, "K", "16",
              "funnel tier: cycle-simulated survivor budget"})
        .add({"shard", K::Text, "k/N", "",
              "evaluate only candidates with index % N == k"})
        .add({"checkpoint", K::Text, "FILE", "",
              "append completed rows to an fsync'd JSONL journal"})
        .add({"resume", K::Flag, "", "", "continue a journaled campaign"})
        .add({"deterministic", K::Flag, "", "",
              "emit the canonical report form (byte-comparable)"})
        .add({"progress", K::Flag, "", "", "periodic progress line on stderr"})
        .add({"no-fixed-prio", K::Flag, "", "",
              "drop the fixed-priority AMBA candidate (round-robin stays)"})
        .add({"cpu-truth", K::Flag, "", "",
              "add the cycle-true ground-truth column (slow)"})
        .add({"jobs", K::Number, "N", "0",
              "worker threads (0 = one per hardware thread)"})
        .add({"json", K::Text, "PATH", "", "machine-readable report"})
        .add({"max-cycles", K::Number, "N", "100000000",
              "per-candidate cycle budget"});
    cli::add_source_options(set);
    return set;
}

/// Campaign state shared by both modes: the open checkpoint journal (if
/// any) and the rows a previous attempt already evaluated.
struct Campaign {
    sweep::JournalWriter journal;
    std::vector<sweep::SweepResult> resumed;
    bool resuming = false;
};

/// Wires --checkpoint/--resume against `meta` (the campaign identity that
/// the journal header records). Returns false after a stderr diagnostic on
/// any usage or journal error — always before the expensive part of a run.
bool setup_campaign(const cli::Options& args, const sweep::SweepMeta& meta,
                    Campaign* camp) {
    const std::string path = args.get("checkpoint");
    const bool resume = args.has("resume");
    if (path.empty()) {
        if (resume) {
            std::fprintf(stderr, "--resume requires --checkpoint=FILE\n");
            return false;
        }
        return true;
    }
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
        if (!resume) {
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
        camp->resuming = true;
        std::fprintf(stderr, "resuming: %zu journaled rows in %s\n",
                     camp->resumed.size(), path.c_str());
    }
    if (!camp->journal.open(path, meta, 32, &err)) {
        std::fprintf(stderr, "--checkpoint: %s\n", err.c_str());
        return false;
    }
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

/// Pattern-payload mode: candidates over mesh × fifo × rate, evaluated by
/// the tier selected on the command line.
int run_pattern_mode(const cli::Options& args) {
    const std::string pattern_name = args.get("pattern");
    const std::string grid_spec = args.get("grid");
    const auto grid = cli::parse_mesh(grid_spec, 4);
    if (!grid || grid->width == 0) { // the core grid needs explicit dims
        std::fprintf(stderr, "bad --grid spec '%s' (WxH, e.g. 4x4)\n",
                     grid_spec.c_str());
        return 1;
    }

    tg::PatternConfig pc;
    pc.pattern = *tg::parse_pattern(pattern_name); // a validated Choice
    pc.width = grid->width;
    pc.height = grid->height;
    pc.packets_per_core = args.get_u64("packets");
    const u32 n_cores = pc.width * pc.height;

    const std::vector<double> rates = cli::get_rates(args);
    pc.injection_rate = rates.front();

    // Fault axis (docs/faults.md): each entry is a total per-flit fault
    // probability; 0 keeps the fault layer (and its grid column) off.
    const std::vector<double> fault_rates = cli::get_fault_rates(args);
    const u64 fault_seed = cli::get_fault_seed(args);
    bool any_fault = false;
    for (const double fr : fault_rates) any_fault |= fr > 0.0;

    // Source-mode axis (docs/traffic.md): one mode for the whole campaign
    // — it folds into the identity below, so open and closed shards can
    // never merge or resume into each other.
    const tg::SourceConfig source = cli::get_source(args);
    if (source.open() && any_fault) {
        std::fprintf(stderr,
                     "--source=open does not compose with --fault-rate yet "
                     "(both modes rewrite the master NI send path)\n");
        return 1;
    }

    // Topology axis (docs/topology.md): graph files load and validate here,
    // before any simulation, and all workers share the parsed spec.
    const std::vector<cli::TopologyChoice> topologies =
        cli::get_topologies(args);
    bool any_topo = false;
    for (const cli::TopologyChoice& t : topologies)
        any_topo |= t.kind != ic::TopologyKind::Mesh;

    // Fabric axes: every mesh shape × topology × FIFO depth,
    // latency-instrumented.
    std::vector<sweep::Candidate> candidates;
    for (const ic::XpipesConfig& fabric :
         fabric_axis(args, "auto", topologies, n_cores)) {
        for (const double rate : rates) {
            for (const double frate : fault_rates) {
                sweep::Candidate c;
                c.cfg.ic = platform::IcKind::Xpipes;
                c.cfg.xpipes = fabric;
                c.cfg.xpipes.collect_latency = true;
                c.cfg.xpipes.fault = cli::make_fault(frate, fault_seed);
                c.injection_rate = rate;
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
        const u32 jobs = sweep::resolve_jobs(opts.jobs, candidates.size());

        // The campaign identity: what the report header, the journal
        // header and every merge/resume compatibility check agree on.
        sweep::SweepMeta meta;
        meta.app = context.name + " " + grid_spec;
        // describe() is empty for closed sources, so pre-open campaign
        // identities (and their journals) stay byte-identical.
        meta.app += tg::describe(source);
        if (any_fault) {
            // The fault axis is campaign identity: shard merges and journal
            // resumes must never mix reports with different fault levels.
            meta.app += " fault=" + args.get("fault-rate") + "@" +
                        std::to_string(fault_seed);
        }
        if (any_topo) {
            // The topology axis is campaign identity too: a torus or
            // table-graph campaign must never merge or resume into a mesh
            // one (pure-mesh runs keep the pre-topology app string).
            meta.app += " topo=" + args.get("topology");
        }
        meta.n_cores = n_cores;
        meta.jobs = jobs;
        meta.max_cycles = opts.max_cycles;
        meta.tier = opts.tier;
        meta.seed = opts.seed;
        meta.n_candidates = static_cast<u32>(candidates.size());
        if (opts.tier == sweep::Tier::Funnel) meta.funnel_top = opts.funnel_top;
        meta.shard = opts.shard;

        Campaign camp;
        if (!setup_campaign(args, meta, &camp)) return 1;
        if (camp.journal.is_open()) opts.journal = &camp.journal;
        if (camp.resuming) opts.resume = &camp.resumed;
        std::printf("%s on a %ux%u core grid, %zu candidates, tier %s, "
                    "%u workers\n\n",
                    pattern_name.c_str(), pc.width, pc.height,
                    candidates.size(),
                    std::string{sweep::to_string(opts.tier)}.c_str(), jobs);
        sim::WallTimer timer;
        std::vector<sweep::SweepResult> results = driver.run(candidates, opts);
        const double sweep_wall = timer.seconds();
        if (camp.journal.is_open() && !camp.journal.close()) {
            std::fprintf(stderr, "--checkpoint: journal write failed\n");
            return 1;
        }

        std::printf("%-26s %5s %12s %10s %9s\n", "candidate", "tier",
                    "cycles", "accepted", "mean lat");
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
            std::printf("%-26s %5s %12llu %10.4f %9.1f\n", r.name.c_str(),
                        r.analytic ? "pred" : "cycle",
                        static_cast<unsigned long long>(r.cycles),
                        r.accepted_rate, r.lat_mean);
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
        std::printf("\n%zu candidates in %.3f s wall\n", results.size(),
                    sweep_wall);
        if (best != nullptr)
            std::printf("best: %s (%llu cycles)\n", best->name.c_str(),
                        static_cast<unsigned long long>(best->cycles));

        const std::string json = args.get("json");
        if (!json.empty()) {
            if (args.has("deterministic")) sweep::canonicalize(meta, results);
            if (!sweep::write_json_report(results, meta, json)) {
                std::fprintf(stderr, "failed to write %s\n", json.c_str());
                return 1;
            }
            std::printf("wrote %s (%zu candidates)\n", json.c_str(),
                        results.size());
        }
        return setup_error ? 1 : 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}

} // namespace

int main(int argc, char** argv) {
    const cli::Options args = options().parse(argc, argv);
    // Tier flags validate eagerly in both modes (fail-fast contract).
    const sweep::Tier tier = cli::get_tier(args);
    (void)cli::get_funnel_top(args);
    if (args.has("pattern")) return run_pattern_mode(args);
    if (cli::get_source(args).open()) {
        std::fprintf(stderr,
                     "--source=open needs a pattern payload; add "
                     "--pattern=NAME (traced TG programs replay a closed-"
                     "loop execution by construction)\n");
        return 1;
    }
    if (tier != sweep::Tier::Cycle) {
        std::fprintf(stderr,
                     "--tier=%s needs a pattern payload; add --pattern=NAME "
                     "(the analytic model is defined over a pattern's "
                     "destination matrix, not over TG traces)\n",
                     std::string{sweep::to_string(tier)}.c_str());
        return 1;
    }
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
    const std::vector<cli::TopologyChoice> topologies =
        cli::get_topologies(args);
    bool any_topo = false;
    for (const cli::TopologyChoice& t : topologies)
        any_topo |= t.kind != ic::TopologyKind::Mesh;
    grid.meshes = fabric_axis(args, "auto,8x1,3x3", topologies, n_cores);
    const std::vector<sweep::Candidate> candidates = sweep::make_grid(grid);
    // Numeric flags validate eagerly too — same fail-fast contract.
    const u32 jobs_flag = args.get_u32("jobs");
    const bool cpu_truth = args.has("cpu-truth");
    sweep::SweepOptions opts;
    opts.jobs = jobs_flag;
    opts.max_cycles = max_cycles;
    opts.with_cpu_truth = cpu_truth;
    opts.shard = cli::get_shard(args);
    opts.progress = args.has("progress");
    const u32 jobs = sweep::resolve_jobs(opts.jobs, candidates.size());

    // Campaign identity + checkpoint/resume wiring, validated before the
    // expensive reference run so a stale journal fails in milliseconds.
    sweep::SweepMeta meta;
    meta.app = app;
    if (any_topo) {
        // Topology is campaign identity (same contract as pattern mode):
        // pure-mesh runs keep the pre-topology app string byte-identical.
        meta.app += " topo=" + args.get("topology");
    }
    meta.n_cores = static_cast<u32>(workload->cores.size());
    meta.jobs = jobs;
    meta.max_cycles = max_cycles;
    meta.tier = opts.tier;
    meta.seed = opts.seed;
    meta.n_candidates = static_cast<u32>(candidates.size());
    meta.shard = opts.shard;
    Campaign camp;
    if (!setup_campaign(args, meta, &camp)) return 1;
    if (camp.journal.is_open()) opts.journal = &camp.journal;
    if (camp.resuming) opts.resume = &camp.resumed;

    // --- one reference simulation, traced ---
    platform::PlatformConfig ref_cfg;
    ref_cfg.n_cores = static_cast<u32>(workload->cores.size());
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
    if (camp.journal.is_open() && !camp.journal.close()) {
        std::fprintf(stderr, "--checkpoint: journal write failed\n");
        return 1;
    }

    std::printf("evaluated %zu candidates in %.3f s wall (%u workers)\n\n",
                results.size(), sweep_wall, jobs);
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

    const std::string json = args.get("json");
    if (!json.empty()) {
        if (args.has("deterministic")) sweep::canonicalize(meta, results);
        if (!sweep::write_json_report(results, meta, json)) {
            std::fprintf(stderr, "failed to write %s\n", json.c_str());
            return 1;
        }
        std::printf("\nwrote %s (%zu candidates)\n", json.c_str(),
                    results.size());
    }
    return replay_bug ? 1 : 0;
}
