#include "workloads.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "analytic/analytic.hpp"
#include "apps/apps.hpp"
#include "digest.hpp"
#include "platform/memory_map.hpp"
#include "sweep/shard.hpp"
#include "sweep/sweep.hpp"
#include "test_util.hpp"
#include "tg/patterns.hpp"
#include "tg/translator.hpp"
#include "traced_platform.hpp"

namespace tgsim::bench {
namespace {

constexpr Cycle kMaxCycles = 600'000'000;

/// Core i's private window starts at priv_base(i); from core 16 on it lands
/// on the shared window, so a Platform cannot hold more than 16 cores.
void check_core_ceiling(u32 n_cores) {
    constexpr u32 kMaxCores =
        (platform::kSharedBase - platform::kPrivBase) / platform::kPrivStride;
    if (n_cores > kMaxCores)
        throw std::invalid_argument{
            "workload needs " + std::to_string(n_cores) +
            " cores, but a Platform holds at most " + std::to_string(kMaxCores) +
            ": core 16's private window would collide with shared memory"};
}

double percentile(std::vector<double> v, double p) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t rank = static_cast<std::size_t>(
        std::max(1.0, std::ceil(p / 100.0 * static_cast<double>(v.size()))));
    return v[std::min(rank, v.size()) - 1];
}

// --- tg_replay --------------------------------------------------------------

/// The paper's Table-2 use case: trace MP-matrix on 8 CPU cores over AMBA,
/// translate and assemble the traces, replay the TG programs.
class TgReplay final : public Workload {
public:
    explicit TgReplay(bool smoke) : Workload(true, 1), n_(smoke ? 16 : 64) {}

    void prepare(SpanLog& spans) override {
        check_core_ceiling(kCores);
        work_ = apps::make_mp_matrix({kCores, n_});
        platform::PlatformConfig ref_cfg = config();
        ref_cfg.collect_traces = true;
        platform::Platform ref{ref_cfg};
        ref.load_workload(work_);
        u64 t = now_ns();
        const platform::RunResult res = ref.run(kMaxCycles);
        const double ref_s = seconds_since(t);
        t = spans.close("cpu_ref", t);
        std::string msg;
        if (!res.completed)
            throw std::runtime_error{"tg_replay: CPU reference run did not complete"};
        if (!ref.run_checks(work_, &msg))
            throw std::runtime_error{"tg_replay: CPU reference failed its checks: " + msg};
        cpu_cycles_ = res.cycles;

        tg::TranslateOptions opt;
        opt.polls = work_.polls;
        std::vector<tg::TgProgram> programs;
        u64 events = 0;
        for (const tg::Trace& tr : ref.traces()) {
            events += tr.events.size();
            programs.push_back(tg::translate(tr, opt).program);
        }
        const u64 t_asm = spans.close("translate", t);
        binaries_ = tg::assemble_all(programs);
        const u64 t_end = spans.close("assemble", t_asm);

        layers_["cpu.ref_cycles_per_s"] = static_cast<double>(res.cycles) / ref_s;
        layers_["ocp.trace_events"] = static_cast<double>(events);
        layers_["tg.translate_ms"] = static_cast<double>(t_asm - t) * 1e-6;
        layers_["tg.assemble_ms"] = static_cast<double>(t_end - t_asm) * 1e-6;
    }

    void build(u32) override {
        platform_ = std::make_unique<platform::Platform>(config());
        platform_->load_tg_binaries(binaries_, work_);
    }

    void run() override { res_ = platform_->run(kMaxCycles); }

    OpResult check() override { return judge(*platform_, res_); }

    TracedOp run_traced(u32, SpanLog& spans, const ProbeCost&) override {
        TracedOp op;
        u64 t = now_ns();
        TracedPlatform tp{config(), op.tally};
        tp.load_tg_binaries(binaries_, work_);
        t = spans.close("build", t);
        const platform::RunResult res = tp.run(kMaxCycles);
        op.run_s = op.op_s = seconds_since(t);
        t = spans.close("run", t);
        op.result = judge(tp, res);
        spans.close("harvest", t);
        op.schedule = schedule_of(tp.kernel());
        return op;
    }

    std::string schedule() override { return schedule_of(platform_->kernel()); }

private:
    static constexpr u32 kCores = 8;
    /// The paper reports TG errors up to about 1.5% on contended
    /// multiprocessor rows; a larger error means the replay is wrong.
    static constexpr double kMaxErrorPct = 1.5;

    static platform::PlatformConfig config() {
        platform::PlatformConfig cfg;
        cfg.n_cores = kCores;
        cfg.ic = platform::IcKind::Amba;
        return cfg;
    }

    template <typename P>
    OpResult judge(P& p, const platform::RunResult& res) {
        OpResult r;
        r.sim_cycles = static_cast<double>(res.cycles);
        const double err = 100.0 *
                           (static_cast<double>(res.cycles) -
                            static_cast<double>(cpu_cycles_)) /
                           static_cast<double>(cpu_cycles_);
        layers_["tg.abs_error_pct"] = std::abs(err);
        std::string msg;
        if (!res.completed) {
            r.error = "TG replay did not complete";
        } else if (!p.run_checks(work_, &msg)) {
            r.error = "TG replay failed the workload checks: " + msg;
        } else if (std::abs(err) > kMaxErrorPct) {
            char buf[96];
            std::snprintf(buf, sizeof buf, "TG cycle error %.3f%% exceeds %.1f%%",
                          err, kMaxErrorPct);
            r.error = buf;
        }
        Digest d;
        d.add_run(res);
        d.add_fabric(p.interconnect());
        d.add_memory(p.shared_mem());
        r.digest = d.value();
        return r;
    }

    u32 n_;
    apps::Workload work_;
    Cycle cpu_cycles_ = 0;
    std::vector<tg::AssembledTg> binaries_;
    std::unique_ptr<platform::Platform> platform_;
    platform::RunResult res_;
};

// --- mesh_a2a ---------------------------------------------------------------

/// test::MeshRig with every component behind a probe; wired and run exactly
/// like MeshRig.
struct ProbedMeshRig {
    sim::Kernel kernel;
    std::vector<std::unique_ptr<ocp::Channel>> chans;
    std::vector<std::unique_ptr<test::TestMaster>> masters;
    std::vector<std::unique_ptr<mem::MemorySlave>> mems;
    ic::XpipesNetwork ic;
    Tally& tally;
    std::vector<std::unique_ptr<Probe>> probes;

    ProbedMeshRig(ic::XpipesConfig cfg, Tally& t) : ic(cfg), tally(t) {}

    void add(sim::Clocked& c, int stage, Layer layer) {
        probes.push_back(
            std::make_unique<Probe>(c, tally[static_cast<std::size_t>(layer)]));
        kernel.add(*probes.back(), stage);
    }
    test::TestMaster& add_master(int node) {
        chans.push_back(std::make_unique<ocp::Channel>());
        masters.push_back(std::make_unique<test::TestMaster>(kernel, *chans.back()));
        ic.connect_master(*chans.back(), node);
        add(*masters.back(), sim::kStageMaster, Layer::Master);
        return *masters.back();
    }
    mem::MemorySlave& add_mem(u32 base, u32 size, mem::SlaveTiming t, int node) {
        chans.push_back(std::make_unique<ocp::Channel>());
        mems.push_back(std::make_unique<mem::MemorySlave>(*chans.back(), t, base, size));
        ic.connect_slave(*chans.back(), base, size, node);
        add(*mems.back(), sim::kStageSlave, Layer::Mem);
        return *mems.back();
    }
    [[nodiscard]] bool run_to_idle(Cycle max = 200'000'000) {
        add(ic, sim::kStageInterconnect, Layer::Xpipes);
        const bool done = kernel.run_until(
            [&] {
                for (const auto& m : masters)
                    if (!m->idle()) return false;
                return true;
            },
            max);
        kernel.run(4000);
        return done;
    }
};

/// The ROADMAP's loaded-mesh baseline: a 16x16 mesh, masters on the even
/// nodes and memories on the odd ones, every master streaming 8-beat
/// write+read burst pairs to seeded random memories.
class MeshA2a final : public Workload {
public:
    MeshA2a(u64 seed, bool smoke)
        : Workload(true, kVariants), seed_(seed), pairs_(smoke ? 1 : 50) {}

    void prepare(SpanLog&) override {
        const u32 n_slaves = kNodes / 2;
        scripts_.assign(kVariants, std::vector<Script>(kNodes / 2));
        for (u32 v = 0; v < kVariants; ++v) {
            const u32 base = static_cast<u32>(sweep::derive_seed(seed_, v, 0)) | 1u;
            for (u32 i = 0; i < kNodes / 2; ++i) {
                Script& script = scripts_[v][i];
                u32 lcg = base * (i + 1);
                for (u32 r = 0; r < pairs_; ++r) {
                    lcg = lcg * 1664525u + 1013904223u;
                    const u32 slave = (lcg >> 8) % n_slaves;
                    const u32 addr = 0x100000u * slave + (r % 32) * 0x20;
                    std::vector<u32> beats;
                    for (u32 b = 0; b < 8; ++b) beats.push_back(lcg + b);
                    script.push_back({ocp::Cmd::BurstWrite, addr, 8, beats, 0});
                    script.push_back({ocp::Cmd::BurstRead, addr, 8, {}, 0});
                }
            }
        }
    }

    void build(u32 variant) override {
        rig_ = std::make_unique<test::MeshRig>(config());
        wire(*rig_, scripts_[variant]);
    }

    void run() override { done_ = rig_->run_to_idle(); }

    OpResult check() override { return judge(*rig_, done_); }

    TracedOp run_traced(u32 variant, SpanLog& spans, const ProbeCost&) override {
        TracedOp op;
        u64 t = now_ns();
        ProbedMeshRig rig{config(), op.tally};
        wire(rig, scripts_[variant]);
        t = spans.close("build", t);
        const bool done = rig.run_to_idle();
        op.run_s = op.op_s = seconds_since(t);
        t = spans.close("run", t);
        op.result = judge(rig, done);
        spans.close("harvest", t);
        const ic::XpipesStats& s = rig.ic.stats();
        op.flit_hops = s.flits_routed;
        op.router_visits = s.router_visits;
        op.busy_cycles = s.busy_cycles;
        op.schedule = schedule_of(rig.kernel);
        return op;
    }

    /// MeshRig names no component, so this compares the gating mode, the
    /// skip cap and the component count.
    std::string schedule() override { return schedule_of(rig_->kernel); }

private:
    static constexpr u32 kDim = 16;
    static constexpr u32 kNodes = kDim * kDim;
    static constexpr u32 kVariants = 4;
    using Script = std::vector<test::TestMaster::Op>;

    static ic::XpipesConfig config() {
        ic::XpipesConfig cfg;
        cfg.width = kDim;
        cfg.height = kDim;
        cfg.fifo_depth = 4;
        return cfg;
    }

    template <typename Rig>
    static void wire(Rig& rig, const std::vector<Script>& scripts) {
        std::vector<test::TestMaster*> masters;
        u32 n_slaves = 0;
        for (u32 n = 0; n < kNodes; ++n) {
            if (n % 2 == 0) {
                masters.push_back(&rig.add_master(static_cast<int>(n)));
            } else {
                rig.add_mem(0x100000u * n_slaves, 0x1000, mem::SlaveTiming{1, 1, 1},
                            static_cast<int>(n));
                ++n_slaves;
            }
        }
        for (u32 i = 0; i < masters.size(); ++i)
            for (const test::TestMaster::Op& op : scripts[i]) masters[i]->push(op);
    }

    template <typename Rig>
    OpResult judge(const Rig& rig, bool done) const {
        OpResult r;
        Digest d;
        for (const auto& m : rig.masters) {
            if (m->results().size() != 2u * pairs_ && r.error.empty())
                r.error = "a master did not complete its script";
            for (const auto& x : m->results()) {
                for (const u64 v : {x.t_assert, x.t_accept, x.t_resp_first, x.t_resp_last})
                    d.add(v);
                d.add_all(x.rdata);
                for (const ocp::Resp resp : x.resps) {
                    d.add(static_cast<u64>(resp));
                    if (resp != ocp::Resp::Dva && r.error.empty())
                        r.error = "a read returned an error response";
                }
            }
        }
        for (const auto& m : rig.mems) d.add_memory(*m);
        d.add_fabric(rig.ic);
        if (!done) r.error = "mesh run did not drain within the cycle budget";
        r.digest = d.value();
        // Every cycle the timed op ran, the posted-write drain after the
        // last master included.
        r.sim_cycles = static_cast<double>(rig.kernel.now());
        return r;
    }

    u64 seed_;
    u32 pairs_;
    std::vector<std::vector<Script>> scripts_; ///< [variant][master]
    std::unique_ptr<test::MeshRig> rig_;
    bool done_ = false;
};

// --- mesh_open_ur / torus_fault ---------------------------------------------

/// One synthetic-pattern run on 16 cores (a 4x4 logical grid) over a 4x5
/// ×pipes fabric, built the product way: tg::compile_patterns ->
/// Platform::load_stochastic, latency collection on.
struct PatternSpec {
    tg::Pattern pattern;
    double rate;
    tg::SourceMode mode;
    ic::TopologyKind topology;
    u32 fifo;
    double fault_rate; ///< split evenly over corrupt, drop and stall
    u64 txns_per_core;
};

class PatternRun final : public Workload {
public:
    PatternRun(const PatternSpec& spec, u64 seed, bool smoke)
        : Workload(true, kVariants), spec_(spec), seed_(seed) {
        if (smoke) spec_.txns_per_core /= 50;
    }

    void prepare(SpanLog&) override {
        check_core_ceiling(kCores);
        tg::PatternConfig pc;
        pc.pattern = spec_.pattern;
        pc.width = 4;
        pc.height = 4;
        pc.injection_rate = spec_.rate;
        pc.packets_per_core = spec_.txns_per_core;
        source_.mode = spec_.mode;
        const std::vector<tg::StochasticConfig> configs = tg::compile_patterns(pc, source_);
        configs_.assign(kVariants, configs);
        for (u32 v = 0; v < kVariants; ++v)
            for (u32 core = 0; core < kCores; ++core)
                configs_[v][core].seed = sweep::derive_seed(seed_, v, core);

        cfg_ = platform::PlatformConfig{};
        cfg_.n_cores = kCores;
        cfg_.ic = platform::IcKind::Xpipes;
        cfg_.xpipes.width = 4;
        cfg_.xpipes.height = platform::xpipes_height_for(kCores, 4);
        cfg_.xpipes.fifo_depth = spec_.fifo;
        cfg_.xpipes.topology = spec_.topology;
        cfg_.xpipes.collect_latency = true;
        const double each = spec_.fault_rate / 3.0;
        cfg_.xpipes.fault.corrupt_rate = each;
        cfg_.xpipes.fault.drop_rate = each;
        cfg_.xpipes.fault.stall_rate = each;
    }

    void build(u32 variant) override {
        platform_ = std::make_unique<platform::Platform>(config(variant));
        platform_->load_stochastic(configs_[variant], context_, source_);
    }

    void run() override {
        res_ = platform_->run(kMaxCycles);
        summaries_ = harvest(platform_->interconnect());
    }

    OpResult check() override {
        return judge(res_, platform_->interconnect(), summaries_);
    }

    TracedOp run_traced(u32 variant, SpanLog& spans, const ProbeCost&) override {
        TracedOp op;
        u64 t = now_ns();
        TracedPlatform tp{config(variant), op.tally};
        tp.load_stochastic(configs_[variant], context_, source_);
        t = spans.close("build", t);
        const u64 t_op = t;
        const platform::RunResult res = tp.run(kMaxCycles);
        op.run_s = seconds_since(t);
        t = spans.close("run", t);
        const Summaries sums = harvest(tp.interconnect());
        op.summary_ms = static_cast<double>(now_ns() - t) * 1e-6;
        op.op_s = seconds_since(t_op);
        spans.close("harvest", t);
        op.result = judge(res, tp.interconnect(), sums);
        const ic::XpipesStats& s = mesh(tp.interconnect()).stats();
        op.flit_hops = s.flits_routed;
        op.router_visits = s.router_visits;
        op.busy_cycles = s.busy_cycles;
        op.schedule = schedule_of(tp.kernel());
        return op;
    }

    std::string schedule() override { return schedule_of(platform_->kernel()); }

private:
    static constexpr u32 kCores = 16;
    static constexpr u32 kVariants = 4;
    using Summaries = std::array<stats::LatencyStats::Summary, 4>;

    /// The fabric of input `variant`: only the fault seed differs.
    platform::PlatformConfig config(u32 variant) const {
        platform::PlatformConfig cfg = cfg_;
        cfg.xpipes.fault.seed = sweep::derive_seed(seed_, variant, kCores);
        return cfg;
    }

    static const ic::XpipesNetwork& mesh(const ic::Interconnect& ic) {
        return dynamic_cast<const ic::XpipesNetwork&>(ic);
    }

    /// The stats harvest a sweep row does after each run.
    static Summaries harvest(const ic::Interconnect& ic) {
        const ic::XpipesStats& s = mesh(ic).stats();
        return {s.packet_latency.summary(), s.net_latency.summary(),
                s.source_q_latency.summary(), s.reliability.retry_latency.summary()};
    }

    OpResult judge(const platform::RunResult& res, const ic::Interconnect& ic,
                   const Summaries& sums) const {
        OpResult r;
        r.sim_cycles = static_cast<double>(res.cycles);
        const ic::XpipesStats& s = mesh(ic).stats();
        const u64 offered = kCores * spec_.txns_per_core;
        const stats::ReliabilityStats& rel = s.reliability;
        if (!res.completed) {
            r.error = "pattern run did not complete within the cycle budget";
        } else if (cfg_.xpipes.fault.enabled()) {
            if (rel.injected != offered ||
                rel.injected != rel.delivered + rel.err_delivered + rel.lost)
                r.error = "fault accounting broken: injected != delivered + "
                          "err_delivered + lost";
        } else if (s.req_packets_delivered != offered) {
            r.error = "not every offered transaction was delivered";
        } else if (source_.open()) {
            const auto& e2e = s.packet_latency.samples();
            const auto& net = s.net_latency.samples();
            const auto& sq = s.source_q_latency.samples();
            bool split_ok = e2e.size() == net.size() && e2e.size() == sq.size();
            for (std::size_t i = 0; split_ok && i < e2e.size(); ++i)
                split_ok = sq[i] + net[i] == e2e[i];
            if (!split_ok)
                r.error = "open-loop latency split: source queue + network != end to end";
        }
        Digest d;
        d.add_run(res);
        d.add_fabric(ic);
        for (const auto& x : sums)
            for (const u64 v : {x.count, x.min, x.p50, x.p99, x.max}) d.add(v);
        r.digest = d.value();
        return r;
    }

    PatternSpec spec_;
    u64 seed_;
    tg::SourceConfig source_;
    std::vector<std::vector<tg::StochasticConfig>> configs_; ///< [variant][core]
    apps::Workload context_;
    platform::PlatformConfig cfg_;
    std::unique_ptr<platform::Platform> platform_;
    platform::RunResult res_;
    Summaries summaries_{};
};

// --- dse_funnel -------------------------------------------------------------

/// The design-space campaign: transpose 4x4 over {mesh, torus} x five
/// 18-21-node shapes x four FIFO depths x a rate ladder, screened by the
/// analytic tier and funnelled to the top 16 for cycle simulation; then the
/// report is emitted, parsed back and merged, as a sharded campaign would.
class DseFunnel final : public Workload {
public:
    DseFunnel(u64 seed, bool smoke)
        : Workload(false, 1), seed_(seed), smoke_(smoke) {}

    void prepare(SpanLog&) override {
        pattern_ = tg::PatternConfig{};
        pattern_.pattern = tg::Pattern::Transpose;
        pattern_.packets_per_core = smoke_ ? 10 : 500;
        const u32 n_rates = smoke_ ? 10 : 500;
        std::vector<double> rates;
        for (u32 i = 0; i < n_rates; ++i)
            rates.push_back(0.005 + (0.8 - 0.005) * i / (n_rates - 1));

        candidates_.clear();
        const std::pair<u32, u32> shapes[] = {{5, 4}, {6, 3}, {4, 5}, {7, 3}, {9, 2}};
        for (const ic::TopologyKind topo : {ic::TopologyKind::Mesh, ic::TopologyKind::Torus})
            for (const auto& [w, h] : shapes)
                for (const u32 fifo : {2u, 4u, 8u, 16u}) {
                    platform::PlatformConfig base;
                    base.ic = platform::IcKind::Xpipes;
                    base.xpipes.width = w;
                    base.xpipes.height = h;
                    base.xpipes.fifo_depth = fifo;
                    base.xpipes.topology = topo;
                    for (sweep::Candidate& c : sweep::make_rate_sweep(base, rates))
                        candidates_.push_back(std::move(c));
                }
        sweep_ = std::make_unique<sweep::SweepDriver>(pattern_, apps::Workload{});
        opts_ = sweep::SweepOptions{};
        opts_.jobs = kJobs;
        opts_.tier = sweep::Tier::Funnel;
        opts_.funnel_top = kTop;
        opts_.seed = seed_;
        meta_ = sweep::SweepMeta{};
        meta_.app = "benchmark dse_funnel transpose 4x4";
        meta_.n_cores = sweep_->n_cores();
        meta_.jobs = kJobs;
        meta_.max_cycles = opts_.max_cycles;
        meta_.tier = sweep::Tier::Funnel;
        meta_.seed = seed_;
        meta_.n_candidates = static_cast<u32>(candidates_.size());
        meta_.funnel_top = kTop;
        // The report round trip goes through a file, kept beside the
        // binary so the benchmark writes only inside its checkout.
        report_path_ = (std::filesystem::read_symlink("/proc/self/exe").parent_path() /
                        ("dse_report." + std::to_string(::getpid()) + ".json"))
                           .string();
    }

    void build(u32) override {}

    void run() override {
        rows_ = sweep_->run(candidates_, opts_);
        trip_ = round_trip(rows_, nullptr);
    }

    OpResult check() override { return judge(std::move(rows_), std::move(trip_)); }

    TracedOp run_traced(u32, SpanLog& spans, const ProbeCost& cost) override {
        TracedOp op;
        time_analytic_calls(cost, op.layers);
        const u64 t_op = now_ns();
        u64 t = t_op;
        sweep::SweepOptions screen = opts_;
        screen.tier = sweep::Tier::Analytic;
        std::vector<sweep::SweepResult> scored = sweep_->run(candidates_, screen);
        const double screen_s = seconds_since(t);
        t = spans.close("screen", t);

        // The funnel's survivor rule: every supported candidate with an ok
        // score, ranked by predicted cycles then index, top kTop. The cycle
        // tier re-runs only those; resuming from the analytic rows keeps the
        // rest, so the rows equal the funnel's.
        std::vector<u32> ranked;
        for (u32 i = 0; i < scored.size(); ++i)
            if (analytic::Evaluator::supports(candidates_[i]) && scored[i].ok())
                ranked.push_back(i);
        std::sort(ranked.begin(), ranked.end(), [&](u32 a, u32 b) {
            if (scored[a].cycles != scored[b].cycles)
                return scored[a].cycles < scored[b].cycles;
            return a < b;
        });
        if (ranked.size() > kTop) ranked.resize(kTop);
        std::vector<bool> survivor(scored.size(), false);
        for (const u32 i : ranked) survivor[i] = true;
        std::vector<sweep::SweepResult> keep;
        for (u32 i = 0; i < scored.size(); ++i)
            if (!survivor[i]) keep.push_back(scored[i]);
        sweep::SweepOptions cycle = opts_;
        cycle.tier = sweep::Tier::Cycle;
        cycle.resume = &keep;
        t = spans.close("select", t);
        std::vector<sweep::SweepResult> rows = sweep_->run(candidates_, cycle);
        const double cycle_s = seconds_since(t);
        spans.close("cycle", t);

        RoundTrip trip = round_trip(rows, &spans);
        op.op_s = seconds_since(t_op);

        std::vector<double> survivor_s;
        for (const sweep::SweepResult& r : rows)
            if (!r.analytic) survivor_s.push_back(r.wall_seconds);
        double busy = 0.0;
        for (const double s : survivor_s) busy += s;
        op.layers["sweep.screen_share"] = screen_s / op.op_s;
        op.layers["sweep.survivor_run_s_p50"] = percentile(survivor_s, 50.0);
        op.layers["sweep.cycle_phase_s"] = cycle_s;
        op.layers["sweep.pool_efficiency"] =
            busy / (sweep::resolve_jobs(kJobs, survivor_s.size()) * cycle_s);
        op.layers["sweep.report_emit_ms"] = trip.emit_ms;
        op.layers["sweep.report_parse_ms"] = trip.parse_ms;
        op.layers["sweep.merge_ms"] = trip.merge_ms;
        op.layers["sweep.report_bytes"] = trip.bytes;
        op.result = judge(std::move(rows), std::move(trip));
        return op;
    }

    std::string schedule() override { return {}; }

private:
    static constexpr u32 kJobs = 1;
    static constexpr u32 kTop = 16;

    struct RoundTrip {
        std::optional<sweep::ParsedReport> merged;
        std::string error;
        double emit_ms = 0.0;
        double parse_ms = 0.0;
        double merge_ms = 0.0;
        double bytes = 0.0;
    };

    /// Emit -> parse -> merge, as the merge step of a sharded campaign sees
    /// its reports.
    RoundTrip round_trip(const std::vector<sweep::SweepResult>& rows, SpanLog* spans) {
        RoundTrip trip;
        const u64 t_emit = now_ns();
        std::FILE* f = std::fopen(report_path_.c_str(), "w");
        bool wrote = f != nullptr && sweep::json_report_to(f, rows, meta_);
        if (f != nullptr) wrote = std::fclose(f) == 0 && wrote;
        const u64 t_parse = now_ns();
        if (spans != nullptr) spans->close("emit", t_emit);
        if (!wrote) {
            trip.error = "cannot write the sweep report";
            return trip;
        }
        std::error_code ec;
        trip.bytes = static_cast<double>(std::filesystem::file_size(report_path_, ec));
        std::optional<sweep::ParsedReport> parsed =
            sweep::parse_report_file(report_path_, &trip.error);
        std::filesystem::remove(report_path_, ec);
        const u64 t_merge = now_ns();
        if (spans != nullptr) spans->close("parse", t_parse);
        if (!parsed) return trip;
        std::vector<sweep::ParsedReport> one;
        one.push_back(std::move(*parsed));
        trip.merged = sweep::merge_reports(std::move(one), &trip.error);
        const u64 t_end = now_ns();
        if (spans != nullptr) spans->close("merge", t_merge);
        trip.emit_ms = static_cast<double>(t_parse - t_emit) * 1e-6;
        trip.parse_ms = static_cast<double>(t_merge - t_parse) * 1e-6;
        trip.merge_ms = static_cast<double>(t_end - t_merge) * 1e-6;
        return trip;
    }

    /// Times each Evaluator::evaluate call on one thread, probe bias removed.
    void time_analytic_calls(const ProbeCost& cost, LayerValues& out) const {
        const analytic::Evaluator eval{pattern_};
        analytic::Workspace ws;
        std::vector<double> ns;
        ns.reserve(candidates_.size());
        for (u32 i = 0; i < candidates_.size(); ++i) {
            const u64 t0 = now_ns();
            const sweep::SweepResult r = eval.evaluate(candidates_[i], i, ws);
            ns.push_back(static_cast<double>(now_ns() - t0) - cost.inside_ns);
        }
        out["analytic.eval_ns_p50"] = percentile(ns, 50.0);
        out["analytic.eval_ns_p999"] = percentile(ns, 99.9);
    }

    /// Consumes the op's rows and round trip, so nothing of one op is still
    /// allocated while the next op runs.
    OpResult judge(std::vector<sweep::SweepResult> rows, RoundTrip trip) const {
        OpResult r;
        r.candidates = static_cast<double>(candidates_.size());
        u32 survivors = 0;
        for (const sweep::SweepResult& row : rows) {
            if (row.failure != sweep::FailureKind::None && r.error.empty())
                r.error = "candidate " + std::to_string(row.index) + " failed: " + row.error;
            if (!row.analytic) {
                ++survivors;
                r.sim_cycles += static_cast<double>(row.cycles);
            }
        }
        if (rows.size() != candidates_.size()) r.error = "sweep lost candidate rows";
        if (survivors != kTop && r.error.empty())
            r.error = "funnel simulated " + std::to_string(survivors) +
                      " candidates, expected " + std::to_string(kTop);
        sweep::SweepMeta meta = meta_;
        sweep::canonicalize(meta, rows);
        r.digest = report_digest(rows, meta);
        if (!trip.merged) {
            if (r.error.empty()) r.error = "report round trip failed: " + trip.error;
        } else if (report_digest(trip.merged->rows, trip.merged->meta) != r.digest &&
                   r.error.empty()) {
            r.error = "parse -> merge -> emit does not reproduce the bytes of the "
                      "canonical report";
        }
        return r;
    }

    /// Digest of the bytes json_report_to emits for a report, streamed
    /// through a hashing FILE so neither 10 MB report is ever held whole.
    static u64 report_digest(const std::vector<sweep::SweepResult>& rows,
                             const sweep::SweepMeta& meta) {
        Digest d;
        cookie_io_functions_t io{};
        io.write = [](void* cookie, const char* buf, std::size_t size) -> ssize_t {
            static_cast<Digest*>(cookie)->add_bytes(std::string_view{buf, size});
            return static_cast<ssize_t>(size);
        };
        std::FILE* f = fopencookie(&d, "w", io);
        if (f == nullptr) throw std::runtime_error{"fopencookie failed"};
        const bool wrote = sweep::json_report_to(f, rows, meta);
        if (std::fclose(f) != 0 || !wrote)
            throw std::runtime_error{"cannot stream the sweep report"};
        return d.value();
    }

    u64 seed_;
    bool smoke_;
    tg::PatternConfig pattern_;
    std::vector<sweep::Candidate> candidates_;
    std::unique_ptr<sweep::SweepDriver> sweep_;
    sweep::SweepOptions opts_;
    sweep::SweepMeta meta_;
    std::string report_path_;
    std::vector<sweep::SweepResult> rows_;
    RoundTrip trip_;
};

} // namespace

const std::vector<std::string>& workload_names() {
    static const std::vector<std::string> names = {
        "tg_replay", "mesh_a2a", "mesh_open_ur", "torus_fault", "dse_funnel"};
    return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name, u64 seed,
                                        bool smoke) {
    if (name == "tg_replay") return std::make_unique<TgReplay>(smoke);
    if (name == "mesh_a2a") return std::make_unique<MeshA2a>(seed, smoke);
    if (name == "mesh_open_ur")
        return std::make_unique<PatternRun>(
            PatternSpec{tg::Pattern::UniformRandom, 0.30, tg::SourceMode::Open,
                        ic::TopologyKind::Mesh, 8, 0.0, 6000},
            seed, smoke);
    if (name == "torus_fault")
        return std::make_unique<PatternRun>(
            PatternSpec{tg::Pattern::Transpose, 0.10, tg::SourceMode::Closed,
                        ic::TopologyKind::Torus, 4, 0.003, 2500},
            seed, smoke);
    if (name == "dse_funnel") return std::make_unique<DseFunnel>(seed, smoke);
    return nullptr;
}

} // namespace tgsim::bench
