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
// Pattern mode (docs/traffic.md, docs/analytic.md) swaps the traced
// workload for a synthetic traffic pattern and unlocks the evaluator tiers:
//
//   tgsim-sweep --pattern=transpose [--grid=4x4] [--rates=0.01,0.02,...]
//               [--mesh=...] [--fifo=...] [--packets=N]
//               [--process=poisson|uniform|bursty] [--reads=F]
//               [--burst-frac=F] [--burst-len=N]
//               [--hotspot=CORE] [--hotspot-frac=F]
//               [--topology=mesh,torus,file:PATH]
//               [--fault-rate=0,0.001,...] [--fault-seed=N]
//               [--source=closed|open] [--max-outstanding=N]
//               [--pending-limit=N]
//               [--tier=cycle|analytic|funnel] [--funnel-top=K]
//
// --grid is the logical core grid; --mesh=Wx⌈(W·H+2)/W⌉ lays the physical
// mesh out row-major with the grid's width, so grid coordinates equal mesh
// coordinates and the destination functions stress the links they name.
// The tool prints the load–latency table (offered, accepted, mean/p50/p99/
// max latency, NI wait), the reliability and open-loop split tables when
// rows carry those blocks, and one saturation line per fabric
// (sweep::find_saturation over its cycle-measured rows, in rate order).
// Without --pattern, the pattern-mode flags above are a usage error.
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
// run at any --jobs. Analytic/funnel tiers require --pattern, and
// --funnel-top requires --tier=funnel.
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
        .add({"process", K::Choice, "NAME", "poisson",
              "pattern mode: arrival process", {"poisson", "uniform", "bursty"}})
        .add({"reads", K::Text, "F", "0.5",
              "pattern mode: read fraction in [0, 1]"})
        .add({"burst-frac", K::Text, "F", "0",
              "pattern mode: fraction of transactions that burst"})
        .add({"burst-len", K::Number, "N", "4",
              "pattern mode: beats per burst, 1..64"})
        .add({"hotspot", K::Number, "CORE", "0",
              "pattern mode: hotspot destination core"})
        .add({"hotspot-frac", K::Text, "F", "0.5",
              "pattern mode: share of traffic aimed at the hotspot"})
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

/// Campaign-identity suffix for the shape flags whose values differ from
/// the defaults: "" for the default shape, so its identity is unchanged,
/// while shards of differently shaped campaigns never merge or resume
/// into each other.
std::string describe_shape(const cli::Options& args,
                           const tg::PatternConfig& pc) {
    const tg::PatternConfig def;
    const std::pair<const char*, bool> shape[] = {
        {"process", pc.process != def.process},
        {"reads", pc.read_fraction != def.read_fraction},
        {"burst-frac", pc.burst_fraction != def.burst_fraction},
        {"burst-len", pc.burst_len != def.burst_len},
        {"hotspot", pc.hotspot_core != def.hotspot_core},
        {"hotspot-frac", pc.hotspot_fraction != def.hotspot_fraction}};
    std::string d;
    for (const auto& [flag, differs] : shape)
        if (differs) d += std::string{" "} + flag + "=" + args.get(flag);
    return d;
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
        meta.app = context.name + " " + args.get("grid");
        // describe() is empty for closed sources and describe_shape for
        // the default shape, so earlier campaign identities (and their
        // journals) stay byte-identical.
        meta.app += tg::describe(source) + describe_shape(args, pc);
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
                    args.get("pattern").c_str(), pc.width, pc.height,
                    candidates.size(),
                    std::string{sweep::to_string(opts.tier)}.c_str(), jobs);
        sim::WallTimer timer;
        std::vector<sweep::SweepResult> results = driver.run(candidates, opts);
        const double sweep_wall = timer.seconds();
        if (camp.journal.is_open() && !camp.journal.close()) {
            std::fprintf(stderr, "--checkpoint: journal write failed\n");
            return 1;
        }

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
    if (args.has("funnel-top") && tier != sweep::Tier::Funnel)
        cli::usage_error("funnel-top", "needs --tier=funnel");
    if (args.has("pattern")) return run_pattern_mode(args);
    // A traced sweep has no pattern payload to shape; ignoring these would
    // report a run other than the one asked for.
    for (const char* flag : {"grid", "rates", "packets", "process", "reads",
                             "burst-frac", "burst-len", "hotspot",
                             "hotspot-frac", "fault-rate", "fault-seed"})
        if (args.has(flag)) cli::usage_error(flag, "needs --pattern=NAME");
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
