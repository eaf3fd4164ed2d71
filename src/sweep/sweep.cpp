#include "sweep/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <condition_variable>
#include <cstdarg>
#include <cstdio>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "analytic/analytic.hpp"
#include "sim/kernel.hpp"
#include "sweep/shard.hpp"

namespace tgsim::sweep {

std::string_view to_string(Tier t) noexcept {
    switch (t) {
        case Tier::Cycle: return "cycle";
        case Tier::Analytic: return "analytic";
        case Tier::Funnel: return "funnel";
    }
    return "?";
}

std::optional<Tier> parse_tier(const std::string& name) {
    if (name == "cycle") return Tier::Cycle;
    if (name == "analytic") return Tier::Analytic;
    if (name == "funnel") return Tier::Funnel;
    return std::nullopt;
}

std::string_view to_string(FailureKind k) noexcept {
    switch (k) {
        case FailureKind::None: return "none";
        case FailureKind::SetupError: return "setup_error";
        case FailureKind::Timeout: return "timeout";
        case FailureKind::ChecksFailed: return "checks_failed";
    }
    return "?";
}

std::optional<FailureKind> parse_failure(const std::string& s) {
    if (s == "none") return FailureKind::None;
    if (s == "setup_error") return FailureKind::SetupError;
    if (s == "timeout") return FailureKind::Timeout;
    if (s == "checks_failed") return FailureKind::ChecksFailed;
    return std::nullopt;
}

u32 resolve_jobs(u32 jobs, std::size_t n_candidates) {
    if (jobs == 0) jobs = std::thread::hardware_concurrency();
    if (jobs == 0) jobs = 1;
    if (jobs > n_candidates && n_candidates > 0)
        jobs = static_cast<u32>(n_candidates);
    return jobs;
}

bool bit_identical(const SweepResult& a, const SweepResult& b) {
    bool same = a.per_core == b.per_core;
    for (bool SweepResult::*on : kRowBlockSwitch)
        same = same && (on == nullptr || a.*on == b.*on);
#define TGSIM_ROW_SAME(block, fmt, member) \
    same = same && (RowFmt::fmt == RowFmt::Wall6 || a.member == b.member);
    TGSIM_SWEEP_ROW(TGSIM_ROW_SAME, TGSIM_ROW_SKIP)
#undef TGSIM_ROW_SAME
    return same;
}

u64 derive_seed(u64 base, u32 candidate_index, u32 core) {
    // splitmix64 finalizer over a mix that keeps (candidate, core) pairs
    // distinct; the +1 biases keep index 0 / core 0 away from the identity.
    u64 x = base ^ (0x9E3779B97F4A7C15ull * (u64{candidate_index} + 1)) ^
            (0xBF58476D1CE4E5B9ull * (u64{core} + 1));
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ull;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBull;
    x ^= x >> 31;
    return x;
}

std::string describe_fabric(const platform::PlatformConfig& cfg) {
    switch (cfg.ic) {
        case platform::IcKind::Amba:
            return cfg.arbitration == ic::Arbitration::RoundRobin
                       ? "amba rr"
                       : "amba fixed-prio";
        case platform::IcKind::Crossbar:
            return "crossbar";
        case platform::IcKind::Xpipes: {
            // Mesh strings are byte-identical to the pre-topology format so
            // existing campaign identities (SweepMeta.app, journals) keep
            // matching; non-mesh topologies fold their shape — and for
            // table graphs the graph's source label — into the name, which
            // is what makes shard/merge/resume refuse mixed-topology runs.
            std::string s;
            char buf[96];
            if (cfg.xpipes.topology == ic::TopologyKind::Table) {
                s = "xpipes graph:";
                s += cfg.xpipes.graph ? cfg.xpipes.graph->source : "?";
                std::snprintf(buf, sizeof buf, " fifo%u",
                              cfg.xpipes.fifo_depth);
                s += buf;
            } else {
                const char* const shape =
                    cfg.xpipes.topology == ic::TopologyKind::Torus ? "torus "
                                                                   : "";
                if (cfg.xpipes.width == 0 || cfg.xpipes.height == 0)
                    std::snprintf(buf, sizeof buf, "xpipes %sauto fifo%u",
                                  shape, cfg.xpipes.fifo_depth);
                else
                    std::snprintf(buf, sizeof buf, "xpipes %s%ux%u fifo%u",
                                  shape, cfg.xpipes.width, cfg.xpipes.height,
                                  cfg.xpipes.fifo_depth);
                s = buf;
            }
            // Fault-enabled candidates are distinct design points; the
            // zero-fault string is byte-identical to the pre-fault format.
            if (cfg.xpipes.fault.enabled()) {
                char fb[96];
                std::snprintf(fb, sizeof fb,
                              " fault c%.4g d%.4g s%.4g seed%llu",
                              cfg.xpipes.fault.corrupt_rate,
                              cfg.xpipes.fault.drop_rate,
                              cfg.xpipes.fault.stall_rate,
                              static_cast<unsigned long long>(
                                  cfg.xpipes.fault.seed));
                s += fb;
            }
            return s;
        }
    }
    return "?";
}

std::vector<Candidate> make_grid(const GridSpec& spec) {
    std::vector<Candidate> out;
    const auto add = [&](platform::PlatformConfig cfg) {
        Candidate c;
        c.cfg = std::move(cfg);
        c.name = describe_fabric(c.cfg);
        out.push_back(std::move(c));
    };
    if (spec.amba_round_robin) {
        platform::PlatformConfig cfg = spec.base;
        cfg.ic = platform::IcKind::Amba;
        cfg.arbitration = ic::Arbitration::RoundRobin;
        add(cfg);
    }
    if (spec.amba_fixed_priority) {
        platform::PlatformConfig cfg = spec.base;
        cfg.ic = platform::IcKind::Amba;
        cfg.arbitration = ic::Arbitration::FixedPriority;
        add(cfg);
    }
    if (spec.crossbar) {
        platform::PlatformConfig cfg = spec.base;
        cfg.ic = platform::IcKind::Crossbar;
        add(cfg);
    }
    for (const ic::XpipesConfig& mesh : spec.meshes) {
        platform::PlatformConfig cfg = spec.base;
        cfg.ic = platform::IcKind::Xpipes;
        cfg.xpipes = mesh;
        add(cfg);
    }
    return out;
}

std::vector<Candidate> make_rate_sweep(const platform::PlatformConfig& base,
                                       const std::vector<double>& rates) {
    return make_rate_sweep(base, rates, tg::SourceConfig{});
}

std::vector<Candidate> make_rate_sweep(const platform::PlatformConfig& base,
                                       const std::vector<double>& rates,
                                       const tg::SourceConfig& source) {
    std::vector<Candidate> out;
    out.reserve(rates.size());
    for (const double rate : rates) {
        Candidate c;
        c.cfg = base;
        c.cfg.xpipes.collect_latency = true;
        c.injection_rate = rate;
        c.source = source;
        c.source.rate = rate; // the ladder point is the offered rate
        char buf[32];
        std::snprintf(buf, sizeof buf, "rate=%.4f", rate);
        c.name = buf;
        out.push_back(std::move(c));
    }
    return out;
}

SaturationPoint find_saturation(const std::vector<SweepResult>& rate_ordered) {
    SaturationPoint sat;
    double zero_load = 0.0;
    bool have_zero_load = false;
    double best_accepted = -1.0;
    u32 best_index = 0;
    const SweepResult* prev = nullptr;
    // Which latency series defines the curve: end-to-end for closed-loop
    // rows, in-network for open-loop rows (their end-to-end mean is
    // dominated by source queueing past the knee, which would hide the
    // knee's position).
    const auto curve_lat = [](const SweepResult& r) {
        return r.has_open ? r.net_lat_mean : r.lat_mean;
    };
    for (u32 i = 0; i < rate_ordered.size(); ++i) {
        const SweepResult& r = rate_ordered[i];
        if (!r.ok() || !r.has_latency || r.lat_count == 0) continue;
        const double lat = curve_lat(r);
        if (!have_zero_load) {
            zero_load = lat;
            have_zero_load = true;
        }
        if (r.accepted_rate > best_accepted) {
            best_accepted = r.accepted_rate;
            best_index = i;
        }
        // Saturated when latency has left the flat region of the curve —
        // or, for open-loop rows, when a pending queue reached its bound
        // (the source itself was backpressured; catches ladders that jump
        // straight past the knee, including an immediately saturated first
        // point). Closed-loop rows add the plateau trigger: noticeably
        // more offered load buying no accepted throughput. That trigger is
        // RETIRED for open-loop rows — an open source cannot load-shed, so
        // a flattening accepted rate there IS network saturation and the
        // real signals above report it; keeping the plateau would just
        // re-label the same point with a weaker reason. (Closed-loop
        // offered-vs-accepted shortfall alone is NOT a signal either way:
        // the closed generator sheds load whenever 1/rate approaches its
        // own service time, long before the mesh is stressed —
        // docs/traffic.md.)
        const bool latency_blowup = zero_load > 0.0 && lat >= 3.0 * zero_load;
        const bool queue_full = r.has_open && r.pending_limit > 0 &&
                                r.pending_peak >= r.pending_limit;
        const bool plateau =
            !r.has_open && prev != nullptr &&
            r.offered_rate >= 1.25 * prev->offered_rate &&
            r.accepted_rate <= prev->accepted_rate * 1.08;
        if (latency_blowup || queue_full || plateau) {
            sat.found = true;
            sat.index = i;
            sat.offered = r.offered_rate;
            sat.throughput = best_accepted; // knee: best rate seen so far
            sat.mean_latency = lat;
            return sat;
        }
        prev = &r;
    }
    // Never saturated in the swept range: report the best point observed.
    if (best_accepted >= 0.0) {
        const SweepResult& r = rate_ordered[best_index];
        sat.index = best_index;
        sat.offered = r.offered_rate;
        sat.throughput = best_accepted;
        sat.mean_latency = curve_lat(r);
    }
    return sat;
}

namespace {

/// Appends `s` as a quoted JSON string, escaping quotes, backslashes and
/// control characters (exception messages can carry newlines). Unbounded
/// length — candidate names and error strings must never truncate the
/// report into invalid JSON.
void append_string(std::string& out, const std::string& s) {
    out.push_back('"');
    for (const char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x",
                                  static_cast<unsigned char>(c));
                    out += buf;
                } else {
                    out.push_back(c);
                }
        }
    }
    out.push_back('"');
}

/// printf-style append for the numeric/bool fragments (bounded by
/// construction; strings go through append_string).
void append(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void append(std::string& out, const char* fmt, ...) {
    char buf[256];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof buf, fmt, ap);
    va_end(ap);
    out += buf;
}

/// Appends `sep_key` (", \"key\": ", minus its first `skip` bytes) and
/// `v` in format F. std::to_chars with an explicit precision is specified
/// to print exactly what printf("%.Nf") prints.
template <RowFmt F, typename T>
void append_field(std::string& out, std::string_view sep_key,
                  std::size_t& skip, const T& v) {
    out.append(sep_key.substr(skip));
    skip = 0;
    if constexpr (F == RowFmt::Str) {
        append_string(out, v);
    } else if constexpr (F == RowFmt::Bool) {
        out += v ? "true" : "false";
    } else if constexpr (F == RowFmt::Failure) {
        out.push_back('"');
        out += to_string(v);
        out.push_back('"');
    } else {
        char buf[400]; // %.6f of the largest double fits
        std::to_chars_result res;
        if constexpr (F == RowFmt::U32 || F == RowFmt::U64)
            res = std::to_chars(buf, buf + sizeof buf, v);
        else
            res = std::to_chars(buf, buf + sizeof buf, v,
                                std::chars_format::fixed,
                                F == RowFmt::Fix4 ? 4 : 6);
        out.append(buf, res.ptr);
    }
}

/// Emits the report piecewise through `flush(buffer)` — once for the
/// header, once per row, once for the footer — so FILE-backed sinks never
/// hold more than one row in memory. Stops (returning false) on the first
/// flush failure.
template <typename Flush>
bool emit_report(const std::vector<SweepResult>& results,
                 const SweepMeta& meta, Flush&& flush) {
    std::string buf;
    buf += "{\n  \"sweep\": ";
    append_sweep_meta(buf, meta);
    buf += ",\n  \"candidates\": [";
    if (!flush(buf)) return false;
    for (std::size_t i = 0; i < results.size(); ++i) {
        buf.clear();
        buf += i ? ",\n    " : "\n    ";
        append_result_row(buf, results[i]);
        if (!flush(buf)) return false;
    }
    buf = "\n  ]\n}\n";
    return flush(buf);
}

} // namespace

void append_sweep_meta(std::string& out, const SweepMeta& meta) {
    out += "{\"app\": ";
    append_string(out, meta.app);
    append(out, ", \"cores\": %u, \"jobs\": %u", meta.n_cores, meta.jobs);
    append(out, ", \"max_cycles\": %llu",
           static_cast<unsigned long long>(meta.max_cycles));
    append(out, ", \"tier\": \"%s\"",
           std::string{to_string(meta.tier)}.c_str());
    append(out, ", \"seed\": %llu, \"n_candidates\": %u",
           static_cast<unsigned long long>(meta.seed), meta.n_candidates);
    if (meta.tier == Tier::Funnel)
        append(out, ", \"funnel_top\": %u", meta.funnel_top);
    if (meta.shard.count > 1)
        append(out, ", \"shard\": {\"index\": %u, \"count\": %u}",
               meta.shard.index, meta.shard.count);
    out += "}";
}

void append_result_row(std::string& out, const SweepResult& r) {
    bool on[kRowBlocks];
    for (std::size_t b = 0; b < kRowBlocks; ++b)
        on[b] = kRowBlockSwitch[b] == nullptr || r.*kRowBlockSwitch[b];
    out += '{';
    std::size_t skip = 2; // the first key carries no ", "
#define TGSIM_ROW_EMIT(block, fmt, member)                                  \
    if (on[static_cast<std::size_t>(RowBlock::block)])                     \
        append_field<RowFmt::fmt>(out, ", \"" #member "\": ", skip, r.member);
#define TGSIM_ROW_EMIT_DERIVED(block, fmt, member)                          \
    if (on[static_cast<std::size_t>(RowBlock::block)])                     \
        append_field<RowFmt::fmt>(out, ", \"" #member "\": ", skip,          \
                                  r.member());
    TGSIM_SWEEP_ROW(TGSIM_ROW_EMIT, TGSIM_ROW_EMIT_DERIVED)
#undef TGSIM_ROW_EMIT
#undef TGSIM_ROW_EMIT_DERIVED
    out += '}';
}

std::string json_report(const std::vector<SweepResult>& results,
                        const SweepMeta& meta) {
    std::string out;
    (void)emit_report(results, meta, [&out](const std::string& piece) {
        out += piece;
        return true;
    });
    return out;
}

bool json_report_to(std::FILE* f, const std::vector<SweepResult>& results,
                    const SweepMeta& meta) {
    return emit_report(results, meta, [f](const std::string& piece) {
        return std::fwrite(piece.data(), 1, piece.size(), f) == piece.size();
    });
}

bool write_json_report(const std::vector<SweepResult>& results,
                       const SweepMeta& meta, const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "WARN: cannot write %s\n", path.c_str());
        return false;
    }
    const bool ok = json_report_to(f, results, meta);
    if (std::fclose(f) != 0 || !ok) {
        std::fprintf(stderr, "WARN: short write to %s\n", path.c_str());
        return false;
    }
    return true;
}

SweepDriver::SweepDriver(const std::vector<tg::TgProgram>& programs,
                         apps::Workload context)
    : SweepDriver(tg::assemble_all(programs), std::move(context)) {}

SweepDriver::SweepDriver(std::vector<tg::AssembledTg> binaries,
                         apps::Workload context)
    : n_cores_(static_cast<u32>(binaries.size())),
      binaries_(std::move(binaries)),
      context_(std::move(context)) {
    if (n_cores_ == 0)
        throw std::invalid_argument{"SweepDriver: empty TG payload"};
}

SweepDriver::SweepDriver(std::vector<tg::StochasticConfig> configs,
                         apps::Workload context)
    : n_cores_(static_cast<u32>(configs.size())),
      stochastic_(std::move(configs)),
      context_(std::move(context)) {
    if (n_cores_ == 0)
        throw std::invalid_argument{"SweepDriver: empty stochastic payload"};
}

SweepDriver::SweepDriver(tg::PatternConfig pattern, apps::Workload context)
    : n_cores_(pattern.width * pattern.height),
      pattern_(pattern),
      context_(std::move(context)) {
    tg::validate(pattern); // fail at construction, not per candidate
}

/// Thread-private scratch: the seeded per-core config vector is reused
/// across a worker's candidate evaluations instead of being reallocated
/// (and, for the stochastic payload, deep-copied) once per candidate.
struct SweepDriver::EvalScratch {
    std::vector<tg::StochasticConfig> configs;
};

SweepResult SweepDriver::evaluate(const Candidate& cand, u32 index,
                                  const SweepOptions& opts,
                                  EvalScratch& scratch) const {
    SweepResult r;
    r.name = cand.name;
    r.index = index;
    try {
        platform::PlatformConfig cfg = cand.cfg;
        cfg.n_cores = n_cores_;
        cfg.collect_traces = false;
        cfg.done_check_interval = opts.done_check_interval;
        r.fabric = describe_fabric(cfg);

        platform::Platform p{cfg};
        if (!binaries_.empty()) {
            p.load_tg_binaries(binaries_, context_);
        } else if (pattern_) {
            tg::PatternConfig pc = *pattern_;
            if (cand.injection_rate > 0.0)
                pc.injection_rate = cand.injection_rate;
            tg::compile_patterns(pc, cand.source, scratch.configs);
            for (u32 core = 0; core < n_cores_; ++core)
                scratch.configs[core].seed = derive_seed(opts.seed, index, core);
            p.load_stochastic(scratch.configs, context_, cand.source);
            r.offered_rate = cand.source.rate > 0.0 ? cand.source.rate
                                                    : pc.injection_rate;
        } else {
            scratch.configs = stochastic_; // assignment reuses capacity
            for (u32 core = 0; core < n_cores_; ++core)
                scratch.configs[core].seed = derive_seed(opts.seed, index, core);
            p.load_stochastic(scratch.configs, context_, cand.source);
        }
        const platform::RunResult res = p.run(opts.max_cycles);
        r.completed = res.completed;
        r.cycles = res.cycles;
        r.per_core = res.per_core;
        r.total_instructions = res.total_instructions;
        r.wall_seconds = res.wall_seconds;
        r.busy_cycles = p.interconnect().busy_cycles();
        r.contention_cycles = p.interconnect().contention_cycles();
        if (res.completed && res.cycles > 0)
            r.busy_pct = 100.0 * static_cast<double>(r.busy_cycles) /
                         static_cast<double>(res.cycles);

        // Load–latency / reliability harvest: only the ×pipes mesh stamps
        // packets and draws faults.
        if (cfg.ic == platform::IcKind::Xpipes) {
            const auto* mesh =
                dynamic_cast<const ic::XpipesNetwork*>(&p.interconnect());
            if (mesh != nullptr && cfg.xpipes.collect_latency) {
                const ic::XpipesStats& xs = mesh->stats();
                const auto lat = xs.packet_latency.summary();
                r.has_latency = true;
                r.packets = xs.req_packets_delivered;
                r.error_packets = xs.resp_err_packets;
                // Errored transactions are not accepted service: count
                // them separately so fault/error runs don't inflate the
                // throughput column.
                const u64 good = r.packets -
                                 std::min(r.packets, r.error_packets);
                if (r.cycles > 0)
                    r.accepted_rate = static_cast<double>(good) /
                                      static_cast<double>(r.cycles) /
                                      static_cast<double>(n_cores_);
                r.lat_count = lat.count;
                r.lat_mean = lat.mean;
                r.lat_p50 = lat.p50;
                r.lat_p99 = lat.p99;
                r.lat_max = lat.max;
                if (cand.source.open()) {
                    const auto net = xs.net_latency.summary();
                    const auto sq = xs.source_q_latency.summary();
                    r.has_open = true;
                    r.pending_limit = cand.source.pending_limit;
                    r.pending_peak = xs.pending_peak;
                    r.net_lat_count = net.count;
                    r.net_lat_mean = net.mean;
                    r.net_lat_p50 = net.p50;
                    r.net_lat_p99 = net.p99;
                    r.net_lat_max = net.max;
                    r.sq_lat_count = sq.count;
                    r.sq_lat_mean = sq.mean;
                    r.sq_lat_p50 = sq.p50;
                    r.sq_lat_p99 = sq.p99;
                    r.sq_lat_max = sq.max;
                }
            }
            if (mesh != nullptr && cfg.xpipes.fault.enabled()) {
                const stats::ReliabilityStats& rel = mesh->stats().reliability;
                const auto rlat = rel.retry_latency.summary();
                r.has_faults = true;
                r.fault_injected = rel.injected;
                r.fault_delivered = rel.delivered;
                r.fault_err_delivered = rel.err_delivered;
                r.fault_recovered = rel.recovered;
                r.fault_lost = rel.lost;
                r.fault_retries = rel.retries;
                r.fault_corrupted = rel.flits_corrupted;
                r.fault_dropped = rel.packets_dropped;
                r.fault_stalls = rel.stall_events;
                r.fault_csum_fails = rel.checksum_fails;
                r.delivered_ratio = rel.delivered_ratio();
                r.retry_lat_count = rlat.count;
                r.retry_lat_mean = rlat.mean;
                r.retry_lat_p99 = rlat.p99;
            }
        }
        if (!res.completed) {
            r.error = "timeout/livelock within the cycle budget";
            r.failure = FailureKind::Timeout;
        } else if (opts.run_checks && !binaries_.empty()) {
            std::string msg;
            r.checks_ok = p.run_checks(context_, &msg);
            if (!r.checks_ok) {
                r.error = msg;
                r.failure = FailureKind::ChecksFailed;
            }
        } else {
            r.checks_ok = true; // nothing to check (stochastic payload)
        }

        if (opts.with_cpu_truth) {
            r.has_cpu_truth = true;
            // Isolated so a failure of the ground-truth half never clobbers
            // the TG result (or demotes an already-recorded TG failure).
            try {
                platform::Platform cpu{cfg};
                cpu.load_workload(context_);
                const platform::RunResult truth = cpu.run(opts.max_cycles);
                r.cpu_completed = truth.completed;
                r.cpu_cycles = truth.cycles;
                r.cpu_wall_seconds = truth.wall_seconds;
                if (r.completed && truth.completed && truth.cycles > 0)
                    r.err_pct = 100.0 *
                                (static_cast<double>(r.cycles) -
                                 static_cast<double>(truth.cycles)) /
                                static_cast<double>(truth.cycles);
            } catch (const std::exception& e) {
                if (r.failure == FailureKind::None) {
                    r.error = std::string{"cpu truth: "} + e.what();
                    r.failure = FailureKind::SetupError;
                }
            } catch (...) {
                if (r.failure == FailureKind::None) {
                    r.error = "cpu truth: unknown exception";
                    r.failure = FailureKind::SetupError;
                }
            }
        }
    } catch (const std::exception& e) {
        r.error = e.what();
        r.failure = FailureKind::SetupError;
    } catch (...) {
        // A non-std exception escaping the worker thread would terminate
        // the whole sweep; the never-aborts contract says failures are
        // per-candidate results.
        r.error = "unknown exception";
        r.failure = FailureKind::SetupError;
    }
    return r;
}

namespace {

/// Periodic stderr progress line over a sweep's completion counter
/// (SweepOptions::progress). Runs on its own thread so the line keeps
/// updating even when every worker is stuck inside one long candidate;
/// destruction (scope exit of run_cycle) stops it after a final summary.
class ProgressReporter {
public:
    ProgressReporter(const std::atomic<u32>& done, std::size_t total)
        : done_(done), total_(total), thread_([this] { loop(); }) {}
    ProgressReporter(const ProgressReporter&) = delete;
    ProgressReporter& operator=(const ProgressReporter&) = delete;
    ~ProgressReporter() {
        {
            std::lock_guard<std::mutex> lock{mu_};
            stop_ = true;
        }
        cv_.notify_all();
        thread_.join();
        std::fprintf(stderr, "sweep: %u/%zu candidates in %.1f s\n",
                     done_.load(std::memory_order_acquire), total_,
                     timer_.seconds());
    }

private:
    void loop() {
        std::unique_lock<std::mutex> lock{mu_};
        while (!stop_) {
            cv_.wait_for(lock, std::chrono::seconds(2));
            if (stop_) break;
            const u32 d = done_.load(std::memory_order_acquire);
            const double elapsed = timer_.seconds();
            const double rate =
                elapsed > 0.0 ? static_cast<double>(d) / elapsed : 0.0;
            const double eta =
                rate > 0.0 ? static_cast<double>(total_ - d) / rate : 0.0;
            std::fprintf(stderr,
                         "sweep: %u/%zu candidates, %.1f cand/s, ETA %.0f s\n",
                         d, total_, rate, eta);
        }
    }

    const std::atomic<u32>& done_;
    const std::size_t total_;
    sim::WallTimer timer_;
    std::mutex mu_;
    std::condition_variable cv_;
    bool stop_ = false;
    std::thread thread_;
};

} // namespace

std::vector<SweepResult> SweepDriver::run_cycle(
    const std::vector<Candidate>& candidates, const SweepOptions& opts,
    const std::vector<u32>* subset, std::vector<SweepResult> seed) const {
    std::vector<SweepResult> results = std::move(seed);
    results.resize(candidates.size());
    if (candidates.empty()) return results;

    const std::size_t n_work =
        subset != nullptr ? subset->size() : candidates.size();
    if (n_work == 0) return results;
    const u32 jobs = resolve_jobs(opts.jobs, n_work);

    // Dynamic work-stealing over an atomic cursor: candidates vary wildly
    // in cost (a livelocked fabric runs to the full cycle budget), so a
    // static partition would leave workers idle. Each result lands in its
    // candidate's slot — aggregation order never depends on scheduling.
    // With a funnel subset, the cursor walks the survivor list but every
    // candidate keeps its ORIGINAL index (derive_seed input), so survivor
    // results are bit-identical to an all-cycle run of the same grid.
    std::atomic<u32> next{0};
    std::atomic<u32> done{0};
    const auto work = [&] {
        EvalScratch scratch;
        for (u32 w;
             (w = next.fetch_add(1, std::memory_order_relaxed)) < n_work;) {
            const u32 i = subset != nullptr ? (*subset)[w] : w;
            results[i] = evaluate(candidates[i], i, opts, scratch);
            // Checkpoint the row the moment it exists: a preempted
            // campaign resumes from here, re-evaluating only what the
            // journal never saw.
            if (opts.journal != nullptr) opts.journal->append(results[i]);
            done.fetch_add(1, std::memory_order_release);
        }
    };

    // Declared after `done` so it joins (and stops reading the counter)
    // before the counter is destroyed.
    std::optional<ProgressReporter> progress;
    if (opts.progress) progress.emplace(done, n_work);

    if (jobs == 1) {
        work(); // inline: no thread, debugger- and TSan-baseline-friendly
        return results;
    }
    std::vector<std::thread> pool;
    pool.reserve(jobs);
    for (u32 t = 0; t < jobs; ++t) pool.emplace_back(work);
    for (std::thread& t : pool) t.join();
    return results;
}

std::vector<SweepResult> SweepDriver::run_analytic(
    const std::vector<Candidate>& candidates, const SweepOptions& opts,
    const std::vector<u32>* subset) const {
    std::vector<SweepResult> results(candidates.size());
    if (candidates.empty()) return results;
    const std::size_t n_work =
        subset != nullptr ? subset->size() : candidates.size();
    if (n_work == 0) return results;

    // One immutable evaluator shared by all workers; each worker owns a
    // Workspace so steady-state screening never allocates or contends.
    const analytic::Evaluator eval{*pattern_};
    const u32 jobs = resolve_jobs(opts.jobs, n_work);
    std::atomic<u32> next{0};
    const auto work = [&] {
        analytic::Workspace ws;
        for (u32 w;
             (w = next.fetch_add(1, std::memory_order_relaxed)) < n_work;) {
            const u32 i = subset != nullptr ? (*subset)[w] : w;
            results[i] = eval.evaluate(candidates[i], i, ws);
        }
    };
    if (jobs == 1) {
        work();
        return results;
    }
    std::vector<std::thread> pool;
    pool.reserve(jobs);
    for (u32 t = 0; t < jobs; ++t) pool.emplace_back(work);
    for (std::thread& t : pool) t.join();
    return results;
}

std::vector<SweepResult> SweepDriver::run(
    const std::vector<Candidate>& candidates, const SweepOptions& opts) const {
    if (opts.shard.count == 0 || opts.shard.index >= opts.shard.count)
        throw std::invalid_argument{
            "SweepDriver: shard index must be < shard count (nonzero)"};
    const bool sharded = opts.shard.count > 1;
    const auto in_shard = [&](u32 i) {
        return shard_of(i, opts.shard.count) == opts.shard.index;
    };

    // Rows a previous attempt journaled: reused verbatim, their indices
    // dropped from the work set. Later duplicates win (a journal can only
    // grow duplicates through operator error; last-write semantics keep
    // resume deterministic anyway).
    std::vector<const SweepResult*> resumed(candidates.size(), nullptr);
    if (opts.resume != nullptr)
        for (const SweepResult& r : *opts.resume)
            if (r.index < candidates.size()) resumed[r.index] = &r;

    // Compacts a full-grid result vector down to this shard's rows
    // (ascending original index). Unsharded runs skip this entirely.
    const auto compact = [&](std::vector<SweepResult> full) {
        if (!sharded) return full;
        std::vector<SweepResult> out;
        out.reserve(full.size() / opts.shard.count + 1);
        for (u32 i = 0; i < full.size(); ++i)
            if (in_shard(i)) out.push_back(std::move(full[i]));
        return out;
    };

    if (opts.tier == Tier::Cycle) {
        std::vector<u32> work;
        std::vector<SweepResult> seed(candidates.size());
        for (u32 i = 0; i < candidates.size(); ++i) {
            if (!in_shard(i)) continue;
            if (resumed[i] != nullptr)
                seed[i] = *resumed[i];
            else
                work.push_back(i);
        }
        return compact(run_cycle(candidates, opts, &work, std::move(seed)));
    }

    if (!pattern_)
        throw std::invalid_argument{
            "SweepDriver: analytic/funnel tiers need a pattern payload"};

    if (opts.tier == Tier::Analytic) {
        if (!sharded) return run_analytic(candidates, opts, nullptr);
        std::vector<u32> work;
        for (u32 i = 0; i < candidates.size(); ++i)
            if (in_shard(i)) work.push_back(i);
        return compact(run_analytic(candidates, opts, &work));
    }

    // Funnel: analytic phase over the full grid, cycle phase over the
    // top-K predicted candidates (docs/analytic.md). Survivor selection is
    // a pure function of the deterministic analytic scores, so the funnel
    // inherits the sweep's any-worker-count bit-identity — and because
    // EVERY shard screens the full grid (the analytic tier is ~microseconds
    // per candidate), every shard derives the same global top-K and
    // cycle-simulates only survivors ∩ shard. Merged shard reports are
    // therefore identical to an unsharded funnel run.
    if (opts.funnel_top == 0)
        throw std::invalid_argument{"SweepDriver: funnel_top must be nonzero"};

    std::vector<SweepResult> scored = run_analytic(candidates, opts, nullptr);

    std::vector<u32> survivors;
    std::vector<u32> ranked;
    for (u32 i = 0; i < candidates.size(); ++i) {
        if (!analytic::Evaluator::supports(candidates[i])) {
            // Outside the model's envelope (bus/crossbar fabrics): never
            // screen on a score the model cannot produce — cycle-simulate.
            survivors.push_back(i);
        } else if (scored[i].ok()) {
            ranked.push_back(i);
        }
        // Analytic SetupError rows (impossible mesh, bad fifo) are kept
        // as-is: the cycle tier would reject them identically.
    }
    std::sort(ranked.begin(), ranked.end(), [&](u32 a, u32 b) {
        if (scored[a].cycles != scored[b].cycles)
            return scored[a].cycles < scored[b].cycles;
        return a < b; // deterministic tie-break: submission order
    });
    if (ranked.size() > opts.funnel_top) ranked.resize(opts.funnel_top);
    survivors.insert(survivors.end(), ranked.begin(), ranked.end());
    std::sort(survivors.begin(), survivors.end());

    std::vector<u32> work;
    work.reserve(survivors.size());
    for (const u32 i : survivors) {
        if (!in_shard(i)) continue;
        if (resumed[i] != nullptr)
            scored[i] = *resumed[i];
        else
            work.push_back(i);
    }
    return compact(run_cycle(candidates, opts, &work, std::move(scored)));
}

} // namespace tgsim::sweep
