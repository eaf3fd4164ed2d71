// tgsim-patterns — synthetic traffic-pattern sweeps with load–latency
// instrumentation (docs/traffic.md).
//
//   tgsim-patterns --pattern=transpose --mesh=4x4
//                  [--rates=0.005,0.01,...] [--process=uniform|poisson|bursty]
//                  [--packets=N] [--reads=F] [--burst-frac=F] [--burst-len=N]
//                  [--hotspot=CORE] [--hotspot-frac=F] [--fifo=N]
//                  [--topology=mesh|torus|file:PATH]
//                  [--source=closed|open] [--max-outstanding=N]
//                  [--pending-limit=N]
//                  [--fault-rate=R] [--fault-seed=N]
//                  [--jobs=N] [--json=PATH] [--max-cycles=N]
//
// --source picks the loop mode of every traffic source (docs/traffic.md):
// closed (default) is the paper's one-outstanding-transaction generator;
// open keeps offering at the configured rate regardless of completions, so
// the *network* — not the generator — saturates, and every row carries the
// source-queue / in-network latency split (the hockey-stick curves).
//
// --mesh gives the *logical core grid* (n_cores = W*H); the physical ×pipes
// mesh is laid out row-major with the same width, cores on nodes [0, W*H)
// and the shared memory + semaphore bank on the extra row — so logical grid
// coordinates equal physical mesh coordinates and the classic destination
// functions (transpose, tornado, ...) stress exactly the links they name.
// --topology picks the fabric the grid maps onto (docs/topology.md): the
// default XY mesh, a torus with the same dimensions, or a table-routed
// graph file (whose node count must host the cores plus the two shared
// slaves).
//
// Each --rates point becomes one sweep candidate (sweep::make_rate_sweep)
// evaluated by sweep::SweepDriver --jobs at a time; results are
// bit-identical at any --jobs (bench/pattern_sweep.cpp enforces this in
// CI). The tool prints the load–latency table, reports the saturation
// throughput (sweep::find_saturation), and optionally writes the standard
// sweep JSON report with the latency columns.
//
// --fault-rate=R enables deterministic fault injection (docs/faults.md) at
// every rate point: total per-flit fault probability R split evenly across
// corruption, drop and stall, recovered by the NI retry/checksum protocol.
// A reliability table (delivered ratio, retries, lost transactions) is
// printed and the JSON report grows the fault_* columns.
#include <cstdio>

#include "cli.hpp"
#include "sweep/sweep.hpp"
#include "tg/patterns.hpp"

using namespace tgsim;

namespace {

cli::OptionSet options() {
    using K = cli::OptionSpec::Kind;
    cli::OptionSet set{
        "tgsim-patterns",
        "synthetic traffic-pattern sweeps with load-latency instrumentation"};
    set.add({"pattern", K::Choice, "NAME", "uniform_random",
             "traffic pattern",
             {"uniform_random", "bit_complement", "transpose", "shuffle",
              "tornado", "neighbor", "hotspot"}})
        .add({"mesh", K::Text, "WxH", "4x4", "logical core grid"})
        .add({"rates", K::Text, "R,R,...",
              "0.005,0.01,0.02,0.04,0.08,0.16,0.32,0.64,1.0",
              "offered-rate ladder, strictly ascending"})
        .add({"process", K::Choice, "NAME", "poisson", "arrival process",
              {"poisson", "uniform", "bursty"}})
        .add({"packets", K::Number, "N", "2000", "transactions per core"})
        .add({"reads", K::Text, "F", "0.5", "read fraction in [0, 1]"})
        .add({"burst-frac", K::Text, "F", "0",
              "fraction of transactions that burst"})
        .add({"burst-len", K::Number, "N", "4", "beats per burst"})
        .add({"hotspot", K::Number, "CORE", "0", "hotspot destination core"})
        .add({"hotspot-frac", K::Text, "F", "0.5",
              "share of traffic aimed at the hotspot"})
        .add({"fifo", K::Number, "N", "4", "router FIFO depth in [2, 256]"})
        .add({"topology", K::Text, "KIND", "mesh",
              "fabric topology: mesh|torus|file:PATH"})
        .add({"fault-rate", K::Text, "R", "0",
              "total per-flit fault probability in [0, 1]"})
        .add({"fault-seed", K::Number, "N", "0",
              "deterministic fault-stream seed"})
        .add({"jobs", K::Number, "N", "0",
              "worker threads (0 = one per hardware thread)"})
        .add({"json", K::Text, "PATH", "", "machine-readable report"})
        .add({"max-cycles", K::Number, "N", "100000000",
              "per-candidate cycle budget"});
    cli::add_source_options(set);
    return set;
}

} // namespace

int main(int argc, char** argv) {
    const cli::Options args = options().parse(argc, argv);

    const std::string pattern_name = args.get("pattern");
    const std::string mesh_spec = args.get("mesh");
    const u32 fifo = cli::parse_fifo_depth(args.get("fifo"));
    const auto mesh = cli::parse_mesh(mesh_spec, fifo);
    if (!mesh || mesh->width == 0) { // patterns need explicit dimensions
        std::fprintf(stderr, "bad --mesh spec '%s' (WxH, e.g. 4x4)\n",
                     mesh_spec.c_str());
        return 1;
    }

    tg::PatternConfig pc;
    pc.pattern = *tg::parse_pattern(pattern_name); // a validated Choice
    pc.width = mesh->width;
    pc.height = mesh->height;
    const std::string process = args.get("process");
    pc.process = cli::get_enum<tg::ArrivalProcess>(
        args, "process",
        {{"poisson", tg::ArrivalProcess::Poisson},
         {"uniform", tg::ArrivalProcess::Uniform},
         {"bursty", tg::ArrivalProcess::Bursty}});
    pc.packets_per_core = args.get_u64("packets");
    pc.burst_len = static_cast<u16>(args.get_u32("burst-len"));
    pc.hotspot_core = args.get_u32("hotspot");
    pc.read_fraction = cli::parse_rate(args.get("reads")).value_or(-1.0);
    pc.burst_fraction = cli::parse_rate(args.get("burst-frac")).value_or(-1.0);
    pc.hotspot_fraction =
        cli::parse_rate(args.get("hotspot-frac")).value_or(-1.0);
    if (pc.read_fraction < 0.0 || pc.read_fraction > 1.0 ||
        pc.burst_fraction < 0.0 || pc.burst_fraction > 1.0 ||
        pc.hotspot_fraction < 0.0 || pc.hotspot_fraction > 1.0) {
        std::fprintf(stderr, "bad fraction flag (must be in [0, 1])\n");
        return 1;
    }

    const std::vector<double> rates = cli::get_rates(args);
    pc.injection_rate = rates.front();

    const auto fault_rates = cli::get_fault_rates(args);
    if (fault_rates.size() != 1) {
        std::fprintf(stderr,
                     "tgsim_patterns takes a single --fault-rate; use "
                     "tgsim_sweep --pattern for a fault-rate axis\n");
        return 1;
    }
    const double fault_rate = fault_rates.front();
    const u64 fault_seed = cli::get_fault_seed(args);

    const tg::SourceConfig source = cli::get_source(args);
    if (source.open() && fault_rate > 0.0) {
        // The open-loop NI and the fault retry protocol both own the tx
        // queue; the combination is rejected at configure time, so fail at
        // parse time with the reason spelled out.
        std::fprintf(stderr,
                     "--source=open does not compose with --fault-rate yet "
                     "(both modes rewrite the master NI send path)\n");
        return 1;
    }

    const u32 n_cores = pc.width * pc.height;
    const std::string topology_spec = args.get("topology");
    const cli::TopologyChoice topo =
        cli::parse_topology_or_die(topology_spec, "--topology");
    platform::PlatformConfig base;
    base.ic = platform::IcKind::Xpipes;
    base.xpipes.width = pc.width;
    base.xpipes.height = platform::xpipes_height_for(n_cores, pc.width);
    base.xpipes.topology = topo.kind;
    base.xpipes.graph = topo.graph;
    if (topo.kind == ic::TopologyKind::Table)
        base.xpipes.width = base.xpipes.height = 0; // shape comes from the graph
    cli::check_fabric_capacity(base.xpipes, n_cores, "--topology");
    base.xpipes.fifo_depth = fifo;
    base.xpipes.fault = cli::make_fault(fault_rate, fault_seed);
    const bool faults_on = base.xpipes.fault.enabled();

    apps::Workload context; // patterns compute nothing: empty images/checks
    context.name = "pattern_" + std::string{tg::to_string(pc.pattern)};

    sweep::SweepOptions opts;
    opts.jobs = args.get_u32("jobs");
    opts.max_cycles = args.get_u64("max-cycles");

    std::vector<sweep::SweepResult> results;
    try {
        const sweep::SweepDriver driver{pc, context};
        const auto candidates = sweep::make_rate_sweep(base, rates, source);
        const u32 jobs = sweep::resolve_jobs(opts.jobs, candidates.size());
        std::printf("%s on a %ux%u core grid (%ux%u mesh, fifo %u), "
                    "%llu packets/core, %s arrivals, %s sources, %u workers\n\n",
                    std::string{tg::to_string(pc.pattern)}.c_str(), pc.width,
                    pc.height, base.xpipes.width, base.xpipes.height, fifo,
                    static_cast<unsigned long long>(pc.packets_per_core),
                    process.c_str(),
                    std::string{tg::to_string(source.mode)}.c_str(), jobs);
        results = driver.run(candidates, opts);

        std::printf("%-12s %10s %10s %9s %8s %8s %8s %10s\n", "candidate",
                    "offered", "accepted", "mean lat", "p50", "p99",
                    "max", "NI wait");
        bool setup_error = false;
        for (const sweep::SweepResult& r : results) {
            if (r.failure == sweep::FailureKind::SetupError) {
                std::printf("%-12s SETUP ERROR: %s\n", r.name.c_str(),
                            r.error.c_str());
                setup_error = true;
                continue;
            }
            if (!r.ok()) {
                std::printf("%-12s %s\n", r.name.c_str(), r.error.c_str());
                continue;
            }
            std::printf("%-12s %10.4f %10.4f %9.1f %8llu %8llu %8llu %10llu\n",
                        r.name.c_str(), r.offered_rate, r.accepted_rate,
                        r.lat_mean,
                        static_cast<unsigned long long>(r.lat_p50),
                        static_cast<unsigned long long>(r.lat_p99),
                        static_cast<unsigned long long>(r.lat_max),
                        static_cast<unsigned long long>(r.contention_cycles));
        }

        if (faults_on) {
            std::printf("\n%-12s %10s %10s %8s %8s %8s %8s\n", "candidate",
                        "injected", "delivered", "recov", "retries", "lost",
                        "dropped");
            for (const sweep::SweepResult& r : results) {
                if (!r.ok() || !r.has_faults) continue;
                std::printf(
                    "%-12s %10llu %9.4f%% %8llu %8llu %8llu %8llu\n",
                    r.name.c_str(),
                    static_cast<unsigned long long>(r.fault_injected),
                    100.0 * r.delivered_ratio,
                    static_cast<unsigned long long>(r.fault_recovered),
                    static_cast<unsigned long long>(r.fault_retries),
                    static_cast<unsigned long long>(r.fault_lost),
                    static_cast<unsigned long long>(r.fault_dropped));
            }
        }

        if (source.open()) {
            // The open-loop split: in-network latency is the saturation
            // signal; source-queue latency shows where offered load waits.
            std::printf("\n%-12s %10s %8s %8s %10s %10s %9s\n", "candidate",
                        "net mean", "net p50", "net p99", "srcq mean",
                        "srcq p99", "pend pk");
            for (const sweep::SweepResult& r : results) {
                if (!r.ok() || !r.has_open) continue;
                std::printf(
                    "%-12s %10.1f %8llu %8llu %10.1f %10llu %9llu\n",
                    r.name.c_str(), r.net_lat_mean,
                    static_cast<unsigned long long>(r.net_lat_p50),
                    static_cast<unsigned long long>(r.net_lat_p99),
                    r.sq_lat_mean,
                    static_cast<unsigned long long>(r.sq_lat_p99),
                    static_cast<unsigned long long>(r.pending_peak));
            }
        }

        const sweep::SaturationPoint sat = sweep::find_saturation(results);
        if (sat.found)
            std::printf("\nsaturation at offered %.4f: throughput %.4f "
                        "txn/core/cycle (mean latency %.1f cycles)\n",
                        sat.offered, sat.throughput, sat.mean_latency);
        else
            std::printf("\nno saturation in the swept range; max accepted "
                        "%.4f txn/core/cycle at offered %.4f\n",
                        sat.throughput, sat.offered);

        const std::string json = args.get("json");
        if (!json.empty()) {
            sweep::SweepMeta meta;
            meta.app = context.name + " " + mesh_spec;
            // Source mode is campaign identity (docs/traffic.md): open and
            // closed shards must never merge or resume into each other.
            // describe() is empty for closed sources, so pre-open reports
            // stay byte-identical.
            meta.app += tg::describe(source);
            if (topo.kind != ic::TopologyKind::Mesh) {
                // Topology is campaign identity (docs/topology.md); mesh
                // runs keep the pre-topology app string byte-identical.
                meta.app += " topo=" + topology_spec;
            }
            if (faults_on) {
                // The fault axis is campaign identity: reports that differ
                // in it must never merge or resume into each other.
                char fb[48];
                std::snprintf(fb, sizeof fb, " fault=%.4g@%llu", fault_rate,
                              static_cast<unsigned long long>(fault_seed));
                meta.app += fb;
            }
            meta.n_cores = n_cores;
            meta.jobs = jobs;
            meta.max_cycles = opts.max_cycles;
            meta.tier = opts.tier;
            meta.seed = opts.seed;
            meta.n_candidates = static_cast<u32>(results.size());
            if (!sweep::write_json_report(results, meta, json)) {
                std::fprintf(stderr, "failed to write %s\n", json.c_str());
                return 1;
            }
            std::printf("wrote %s (%zu rate points)\n", json.c_str(),
                        results.size());
        }
        return setup_error ? 1 : 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
