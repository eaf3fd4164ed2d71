// tgsim_benchmark — runs one benchmark workload and prints one JSON line.
//
//   tgsim_benchmark --workload NAME --seconds S [--seed N] [--trace [0|1]]
//                   [--trace-out FILE] [--smoke]
//
// Untraced, the line carries the end-to-end metrics: the throughputs of the
// fast quartile of the ops run in the measurement window (`reps` of them),
// and the median of several timed set-ups. Traced, the same ops alternate with
// ops rebuilt from public parts under probes; the line carries the
// per-layer metrics, and the run fails unless both digests and both kernel
// schedules agree. The window has no default: benchmark/run.py passes
// BENCHMARK.json's run_seconds. Any
// failed check prints "ok": false and exits 1. benchmark/README.md
// documents every metric and workload.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <optional>
#include <string>
#include <vector>

#include "probe.hpp"
#include "workloads.hpp"

namespace tgsim::bench {
namespace {

struct MetricDef {
    const char* name;
    const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"sim_cycles_per_s", "cycles/s"},
    {"candidates_per_s", "cand/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

constexpr MetricDef kPerLayer[] = {
    {"sim.kernel_self_ns_per_cycle", "ns"},
    {"sim.evals_per_cycle", "count"},
    {"tg.master_ns_per_eval", "ns"},
    {"tg.master_share", "fraction"},
    {"tg.translate_ms", "ms"},
    {"tg.assemble_ms", "ms"},
    {"tg.abs_error_pct", "%"},
    {"cpu.ref_cycles_per_s", "cycles/s"},
    {"ocp.trace_events", "count"},
    {"ic.amba.ns_per_cycle", "ns"},
    {"ic.xpipes.ns_per_flit_hop", "ns"},
    {"ic.xpipes.share", "fraction"},
    {"ic.xpipes.flit_hops", "count"},
    {"ic.xpipes.router_visits_per_cycle", "count"},
    {"ic.xpipes.busy_frac", "fraction"},
    {"mem.ns_per_eval", "ns"},
    {"mem.share", "fraction"},
    {"stats.summary_ms", "ms"},
    {"platform.build_ms", "ms"},
    {"analytic.eval_ns_p50", "ns"},
    {"analytic.eval_ns_p999", "ns"},
    {"sweep.screen_share", "fraction"},
    {"sweep.survivor_run_s_p50", "s"},
    {"sweep.cycle_phase_s", "s"},
    {"sweep.pool_efficiency", "fraction"},
    {"sweep.report_emit_ms", "ms"},
    {"sweep.report_parse_ms", "ms"},
    {"sweep.merge_ms", "ms"},
    {"sweep.report_bytes", "B"},
    {"trace.overhead_frac", "fraction"},
    {"trace.probe_ns", "ns"},
};

/// Set-up is repeated and its median reported, so one slow set-up (a cold
/// page cache, a noisy neighbour) does not move setup_s: at least
/// kMinSetupReps times, and more while they fit in kSetupBudgetS — the
/// millisecond set-ups of the mesh workloads need the extra samples.
constexpr std::size_t kMinSetupReps = 3;
constexpr std::size_t kMaxSetupReps = 101;
constexpr double kSetupBudgetS = 1.0;
/// Ops per run at least: the digest must repeat across reps.
constexpr u32 kMinReps = 3;
constexpr u32 kMinTracedReps = 2;

struct Options {
    std::string workload;
    u64 seed = 1;
    double seconds = -1.0; ///< required; negative until given
    bool trace = false;
    bool smoke = false;
    std::string trace_out;
};

/// Outcome bookkeeping shared by both modes.
struct Run {
    explicit Run(u32 variants) : digests(variants) {}

    u32 attempted = 0;
    u32 failed = 0;
    /// Per input variant: the digest of its first passing op.
    std::vector<std::optional<u64>> digests;
    std::vector<std::string> errors;
    LayerValues metrics;
    /// Host seconds and simulated cycles of each passing untraced op.
    std::vector<double> op_s;
    std::vector<double> op_sim_cycles;
    double candidates = 0.0; ///< per op

    bool fail(std::string why) {
        ++failed;
        if (errors.size() < 8) errors.push_back(std::move(why));
        return false;
    }
    /// Counts one op on input `variant`; false when it failed a check or
    /// its digest differs from the first digest of that input.
    bool record(const OpResult& r, u32 variant) {
        ++attempted;
        if (!r.error.empty()) return fail(r.error);
        std::optional<u64>& d = digests[variant];
        if (d && *d != r.digest) return fail("digest differs between reps");
        d = r.digest;
        candidates = r.candidates;
        return true;
    }
    /// One digest over all inputs.
    [[nodiscard]] u64 digest() const {
        u64 h = 0xcbf29ce484222325ull;
        for (const std::optional<u64>& d : digests)
            h = (h ^ d.value_or(0)) * 0x100000001b3ull;
        return h;
    }
};

/// The p-quantile of `v`, interpolated linearly between order statistics.
double quantile(std::vector<double> v, double p) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double k = p * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(k);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (k - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// A run's value of a throughput: the upper quartile of each input's ops
/// (their fast quartile of op times), then the mean over inputs. Host
/// contention only ever adds time to an op, in bursts of seconds, so the
/// fast quartile tracks the program's own cost where the median moves with
/// every burst that covers half the window. The inputs differ in cost
/// (fault seeds shift torus_fault by ~15%), and a quartile over their
/// mixture would jump between their levels.
double per_input_fast_quartile(const std::vector<std::vector<double>>& by_input) {
    double sum = 0.0;
    int n = 0;
    for (const std::vector<double>& v : by_input) {
        if (v.empty()) continue;
        sum += quantile(v, 0.75);
        ++n;
    }
    return n > 0 ? sum / n : 0.0;
}

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

std::string json_string(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

void run_untraced(Workload& wl, const Options& opt, SpanLog& spans, Run& run) {
    std::vector<double> setup_s;
    const u64 setup_start = now_ns();
    while (setup_s.size() < kMinSetupReps ||
           (setup_s.size() < kMaxSetupReps && seconds_since(setup_start) < kSetupBudgetS)) {
        const u64 t0 = now_ns();
        wl.prepare(spans);
        wl.build(0);
        setup_s.push_back(seconds_since(t0));
        spans.close("setup", t0);
    }
    std::vector<std::vector<double>> cycles_per_s(wl.variants());
    std::vector<std::vector<double>> candidates_per_s(wl.variants());
    const u64 start = now_ns();
    for (u32 n = 0; n < kMinReps || seconds_since(start) < opt.seconds; ++n) {
        const u32 variant = n % wl.variants();
        if (n > 0) wl.build(variant); // the first op runs what set-up built
        const u64 t0 = now_ns();
        wl.run();
        const double op_s = seconds_since(t0);
        spans.close("op", t0);
        const OpResult r = wl.check();
        if (!run.record(r, variant)) continue;
        run.op_s.push_back(op_s);
        run.op_sim_cycles.push_back(r.sim_cycles);
        cycles_per_s[variant].push_back(r.sim_cycles / op_s);
        candidates_per_s[variant].push_back(r.candidates / op_s);
    }
    run.metrics["sim_cycles_per_s"] = per_input_fast_quartile(cycles_per_s);
    run.metrics["candidates_per_s"] = per_input_fast_quartile(candidates_per_s);
    run.metrics["setup_s"] = median(setup_s);
    run.metrics["peak_rss_mb"] = peak_rss_mb();
}

/// Per-layer values of one traced simulation op. Probe cost is removed per
/// call: `inside_ns` from each component's time, the rest from the kernel's.
LayerValues component_layers(const TracedOp& op, const ProbeCost& cost) {
    LayerValues v;
    const double cycles = op.result.sim_cycles;
    const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
    const auto corrected = [&](Layer l) {
        const LayerTally& t = op.tally[static_cast<std::size_t>(l)];
        return std::max(0.0, static_cast<double>(t.ns) -
                                 static_cast<double>(t.calls) * cost.inside_ns);
    };
    const auto evals = [&](Layer l) {
        return static_cast<double>(op.tally[static_cast<std::size_t>(l)].evals);
    };
    double raw = 0.0;
    double calls = 0.0;
    double all_evals = 0.0;
    for (const LayerTally& t : op.tally) {
        raw += static_cast<double>(t.ns);
        calls += static_cast<double>(t.calls);
        all_evals += static_cast<double>(t.evals);
    }
    const double run_ns = op.run_s * 1e9;
    const double kernel_self = std::max(
        0.0, run_ns - raw - calls * (cost.total_ns - cost.inside_ns));
    // The run as it would have taken without probes.
    const double bare_ns = std::max(1.0, run_ns - calls * cost.total_ns);

    v["sim.kernel_self_ns_per_cycle"] = ratio(kernel_self, cycles);
    v["sim.evals_per_cycle"] = ratio(all_evals, cycles);
    v["tg.master_ns_per_eval"] = ratio(corrected(Layer::Master), evals(Layer::Master));
    v["tg.master_share"] = corrected(Layer::Master) / bare_ns;
    v["ic.amba.ns_per_cycle"] = ratio(corrected(Layer::Amba), cycles);
    v["ic.xpipes.ns_per_flit_hop"] =
        ratio(corrected(Layer::Xpipes), static_cast<double>(op.flit_hops));
    v["ic.xpipes.share"] = corrected(Layer::Xpipes) / bare_ns;
    v["ic.xpipes.flit_hops"] = static_cast<double>(op.flit_hops);
    v["ic.xpipes.router_visits_per_cycle"] =
        op.flit_hops > 0 ? ratio(static_cast<double>(op.router_visits), cycles) : 0.0;
    v["ic.xpipes.busy_frac"] =
        op.flit_hops > 0 ? ratio(static_cast<double>(op.busy_cycles), cycles) : 0.0;
    v["mem.ns_per_eval"] = ratio(corrected(Layer::Mem), evals(Layer::Mem));
    v["mem.share"] = corrected(Layer::Mem) / bare_ns;
    v["stats.summary_ms"] = op.summary_ms;
    return v;
}

void run_traced(Workload& wl, const Options& opt, SpanLog& spans, Run& run) {
    const ProbeCost cost = calibrate_probe();
    const u64 t_setup = now_ns();
    wl.prepare(spans);
    std::vector<double> build_ms;
    std::vector<double> traced_s;
    std::vector<LayerValues> per_op;
    const u64 start = now_ns();
    // The minimum count stops applying once an op fails, so a run that
    // fails every op still ends when its window does.
    for (u32 n = 0; (traced_s.size() < kMinTracedReps && run.failed == 0) ||
                    seconds_since(start) < opt.seconds;
         ++n) {
        const u32 variant = n % wl.variants();
        const u64 t_build = now_ns();
        wl.build(variant);
        build_ms.push_back(static_cast<double>(now_ns() - t_build) * 1e-6);
        if (n == 0) spans.close("setup", t_setup);

        const u64 t0 = now_ns();
        wl.run();
        const double op_s = seconds_since(t0);
        spans.close("op", t0);
        const OpResult r = wl.check();
        if (!run.record(r, variant)) continue;
        run.op_s.push_back(op_s);
        run.op_sim_cycles.push_back(r.sim_cycles);

        TracedOp op = wl.run_traced(variant, spans, cost);
        if (op.result.error.empty() && op.result.digest != r.digest)
            op.result.error = "traced digest differs from the untraced digest";
        const std::string real = wl.schedule();
        if (op.result.error.empty() && op.schedule != real)
            op.result.error = "traced kernel schedule [" + op.schedule +
                              "] differs from the untraced one [" + real + "]";
        if (!run.record(op.result, variant)) continue;
        traced_s.push_back(op.op_s);
        if (wl.simulates()) op.layers.merge(component_layers(op, cost));
        per_op.push_back(std::move(op.layers));
    }

    for (const MetricDef& m : kPerLayer) run.metrics[m.name] = 0.0;
    if (!per_op.empty()) {
        for (const auto& [name, value] : per_op.front()) {
            std::vector<double> samples;
            for (const LayerValues& v : per_op) samples.push_back(v.at(name));
            run.metrics[name] = median(samples);
        }
    }
    if (wl.simulates()) run.metrics["platform.build_ms"] = median(build_ms);
    for (const auto& [name, value] : wl.layers()) run.metrics[name] = value;
    const double untraced = median(run.op_s);
    run.metrics["trace.overhead_frac"] =
        untraced > 0.0 ? median(traced_s) / untraced - 1.0 : 0.0;
    run.metrics["trace.probe_ns"] = cost.total_ns;
}

void print_result(const Options& opt, const Run& run) {
    const bool ok = run.failed == 0 && run.attempted > 0;
    std::printf("{\"workload\": %s, \"seed\": %" PRIu64
                ", \"trace\": %s, \"smoke\": %s, \"ok\": %s, \"attempted\": %u, "
                "\"failed\": %u, \"reps\": %u, \"digest\": \"%016" PRIx64 "\", "
                "\"errors\": [",
                json_string(opt.workload).c_str(), opt.seed,
                opt.trace ? "true" : "false", opt.smoke ? "true" : "false",
                ok ? "true" : "false", run.attempted, run.failed,
                run.attempted - run.failed, run.digest());
    for (std::size_t i = 0; i < run.errors.size(); ++i)
        std::printf("%s%s", i ? ", " : "", json_string(run.errors[i]).c_str());
    std::printf("], \"candidates\": %.17g, \"op_s\": [", run.candidates);
    for (std::size_t i = 0; i < run.op_s.size(); ++i)
        std::printf("%s%.6f", i ? ", " : "", run.op_s[i]);
    std::printf("], \"op_sim_cycles\": [");
    for (std::size_t i = 0; i < run.op_sim_cycles.size(); ++i)
        std::printf("%s%.17g", i ? ", " : "", run.op_sim_cycles[i]);
    std::printf("], \"metrics\": {");
    bool first = true;
    const auto emit = [&](const MetricDef& m) {
        const auto it = run.metrics.find(m.name);
        const double value = it == run.metrics.end() ? 0.0 : it->second;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    first ? "" : ", ", m.name, value, m.unit);
        first = false;
    };
    if (opt.trace) {
        for (const MetricDef& m : kPerLayer) emit(m);
    } else {
        for (const MetricDef& m : kEndToEnd) emit(m);
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

void usage(std::FILE* f) {
    std::fprintf(f,
                 "usage: tgsim_benchmark --workload NAME --seconds S [--seed N]\n"
                 "                       [--trace [0|1]] [--trace-out FILE] [--smoke]\n"
                 "workloads:");
    for (const std::string& w : workload_names()) std::fprintf(f, " %s", w.c_str());
    std::fprintf(f, "\n");
}

/// Strict parse of a whole token; false on trailing junk or a negative value.
bool parse_number(const char* s, double* out) {
    char* end = nullptr;
    *out = std::strtod(s, &end);
    return end != s && *end == '\0' && *out >= 0.0;
}

bool parse_args(int argc, char** argv, Options* opt) {
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool has_value = i + 1 < argc;
        if (a == "--workload" && has_value) {
            opt->workload = argv[++i];
        } else if (a == "--seed" && has_value) {
            char* end = nullptr;
            const char* s = argv[++i];
            opt->seed = std::strtoull(s, &end, 10);
            if (end == s || *end != '\0' || s[0] == '-') return false;
        } else if (a == "--seconds" && has_value) {
            if (!parse_number(argv[++i], &opt->seconds)) return false;
        } else if (a == "--trace") {
            opt->trace = true;
            if (has_value && (std::strcmp(argv[i + 1], "0") == 0 ||
                              std::strcmp(argv[i + 1], "1") == 0))
                opt->trace = argv[++i][0] == '1';
        } else if (a == "--trace-out" && has_value) {
            opt->trace_out = argv[++i];
        } else if (a == "--smoke") {
            opt->smoke = true;
        } else {
            std::fprintf(stderr, "tgsim_benchmark: unknown or incomplete flag '%s'\n",
                         a.c_str());
            return false;
        }
    }
    return !opt->workload.empty() && opt->seconds >= 0.0;
}

} // namespace
} // namespace tgsim::bench

int main(int argc, char** argv) {
    using namespace tgsim::bench;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
            usage(stdout);
            return 0;
        }
    }
    Options opt;
    if (!parse_args(argc, argv, &opt)) {
        usage(stderr);
        return 2;
    }
    std::unique_ptr<Workload> wl = make_workload(opt.workload, opt.seed, opt.smoke);
    if (wl == nullptr) {
        std::fprintf(stderr, "tgsim_benchmark: unknown workload '%s'\n",
                     opt.workload.c_str());
        usage(stderr);
        return 2;
    }
    SpanLog spans;
    Run run{wl->variants()};
    try {
        if (opt.trace)
            run_traced(*wl, opt, spans, run);
        else
            run_untraced(*wl, opt, spans, run);
    } catch (const std::exception& e) {
        run.fail(std::string{"exception: "} + e.what());
    }
    print_result(opt, run);
    if (!opt.trace_out.empty() && !spans.write(opt.trace_out)) {
        std::fprintf(stderr, "tgsim_benchmark: cannot write %s\n", opt.trace_out.c_str());
        return 1;
    }
    return run.failed == 0 && run.attempted > 0 ? 0 : 1;
}
