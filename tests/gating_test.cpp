// Property tests for per-component clock gating (sim/kernel.hpp): on every
// example platform shape — the quickstart CPU->TG flow, the NoC-exploration
// fabrics and the stochastic traffic soak — the gated schedule must be
// observationally indistinguishable from the fully clocked one: identical
// completion cycles, register files, memory images, monitor traces
// (byte-for-byte) and component statistics. Only wall time may differ.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/apps.hpp"
#include "ic/amba/ahb_bus.hpp"
#include "ic/xpipes/xpipes.hpp"
#include "platform/platform.hpp"
#include "test_util.hpp"
#include "tg/stochastic.hpp"
#include "tg/trace.hpp"

namespace tgsim {
namespace {

using apps::Workload;
using platform::IcKind;
using platform::PlatformConfig;

PlatformConfig cfg_for(u32 cores, IcKind ic, bool gating) {
    PlatformConfig cfg;
    cfg.n_cores = cores;
    cfg.ic = ic;
    cfg.kernel_gating = gating;
    // The ungated reference is the fully clocked legacy schedule: no global
    // quiescence skip either, so every component ticks every cycle.
    if (!gating) cfg.max_idle_skip = 0;
    return cfg;
}

/// Everything externally observable about one simulation run.
struct Observation {
    platform::RunResult result;
    std::vector<Cycle> halts;
    std::vector<std::vector<u32>> regs; ///< per master, full register file
    std::vector<std::string> traces;    ///< rendered .trc text, per master
    /// Per TG master: every TgStats field, in declaration order.
    std::vector<std::vector<u64>> tg_stats;
    /// Per CPU: every CpuStats field, in declaration order.
    std::vector<std::vector<u64>> cpu_stats;
    /// AMBA only: per master, AhbStats::grants and wait_cycles.
    std::vector<u64> ahb_grants;
    std::vector<u64> ahb_waits;
    std::vector<u64> slave_counts;      ///< reads/writes served, per slave
    u64 ic_busy = 0;
    u64 ic_contention = 0;
    u64 sem_acquisitions = 0;
    u64 sem_failed_polls = 0;
    u64 shared_crc = 0; ///< FNV over a shared-memory window
    /// ×pipes fault accounting (zero elsewhere and without faults).
    std::vector<u64> reliability;
};

u64 fnv_step(u64 h, u32 w) { return (h ^ w) * 0x100000001b3ull; }

/// Fills the slave, interconnect, semaphore and shared-memory observables.
void observe_fabric(platform::Platform& p, Observation& o) {
    for (u32 i = 0; i < p.n_cores(); ++i) {
        o.slave_counts.push_back(p.private_mem(i).reads_served());
        o.slave_counts.push_back(p.private_mem(i).writes_served());
    }
    o.slave_counts.push_back(p.shared_mem().reads_served());
    o.slave_counts.push_back(p.shared_mem().writes_served());
    o.ic_busy = p.interconnect().busy_cycles();
    o.ic_contention = p.interconnect().contention_cycles();
    o.sem_acquisitions = p.semaphores().acquisitions();
    o.sem_failed_polls = p.semaphores().failed_polls();
    u64 h = 0xcbf29ce484222325ull;
    for (u32 a = 0; a < 0x2000; a += 4)
        h = fnv_step(h, p.peek(platform::kSharedBase + a));
    o.shared_crc = h;
    if (const auto* bus = dynamic_cast<const ic::AhbBus*>(&p.interconnect())) {
        o.ahb_grants = bus->stats().grants;
        o.ahb_waits = bus->stats().wait_cycles;
    }
    if (const auto* net = dynamic_cast<const ic::XpipesNetwork*>(&p.interconnect())) {
        const stats::ReliabilityStats& r = net->stats().reliability;
        o.reliability = {r.injected,        r.delivered,       r.err_delivered,
                         r.recovered,       r.lost,            r.retries,
                         r.flits_corrupted, r.packets_dropped, r.checksum_fails,
                         r.stale_discarded, r.dup_requests};
    }
}

Observation observe_cpu_run(const Workload& w, PlatformConfig cfg) {
    cfg.collect_traces = true;
    platform::Platform p{cfg};
    p.load_workload(w);
    Observation o;
    o.result = p.run(test::kMaxCycles);
    EXPECT_TRUE(o.result.completed);
    for (u32 i = 0; i < cfg.n_cores; ++i) {
        o.halts.push_back(p.core(i).halt_cycle());
        std::vector<u32> regs;
        for (u8 r = 0; r < cpu::kNumRegs; ++r)
            regs.push_back(p.core(i).reg(static_cast<cpu::Reg>(r)));
        o.regs.push_back(std::move(regs));
        const cpu::CpuStats& st = p.core(i).stats();
        o.cpu_stats.push_back({st.instructions, st.loads, st.stores,
                               st.stall_cycles, st.mem_wait_cycles, st.bus_errors});
    }
    for (const tg::Trace& t : p.traces()) o.traces.push_back(tg::to_text(t));
    observe_fabric(p, o);
    return o;
}

Observation observe_tg_run(const std::vector<tg::TgProgram>& programs,
                           const Workload& w, const PlatformConfig& cfg) {
    platform::Platform p{cfg};
    p.load_tg_programs(programs, w);
    Observation o;
    o.result = p.run(test::kMaxCycles);
    EXPECT_TRUE(o.result.completed);
    for (u32 i = 0; i < cfg.n_cores; ++i) {
        const tg::TgCore& tg = p.tg_core(i);
        o.halts.push_back(tg.halt_cycle());
        std::vector<u32> regs;
        for (u8 r = 0; r < tg::kTgNumRegs; ++r) regs.push_back(tg.reg(r));
        o.regs.push_back(std::move(regs));
        const tg::TgStats& st = tg.stats();
        o.tg_stats.push_back({st.instructions, st.ocp_reads, st.ocp_writes,
                              st.idle_cycles, st.mem_wait_cycles, st.bus_errors});
    }
    observe_fabric(p, o);
    return o;
}

void expect_identical(const Observation& a, const Observation& b,
                      const char* what) {
    EXPECT_EQ(a.result.cycles, b.result.cycles) << what;
    EXPECT_EQ(a.result.per_core, b.result.per_core) << what;
    EXPECT_EQ(a.result.total_instructions, b.result.total_instructions) << what;
    EXPECT_EQ(a.halts, b.halts) << what;
    EXPECT_EQ(a.regs, b.regs) << what;
    ASSERT_EQ(a.traces.size(), b.traces.size()) << what;
    for (std::size_t i = 0; i < a.traces.size(); ++i)
        EXPECT_EQ(a.traces[i], b.traces[i]) << what << " trace " << i;
    EXPECT_EQ(a.tg_stats, b.tg_stats) << what;
    EXPECT_EQ(a.cpu_stats, b.cpu_stats) << what;
    EXPECT_EQ(a.ahb_grants, b.ahb_grants) << what;
    EXPECT_EQ(a.ahb_waits, b.ahb_waits) << what;
    EXPECT_EQ(a.slave_counts, b.slave_counts) << what;
    EXPECT_EQ(a.ic_busy, b.ic_busy) << what;
    EXPECT_EQ(a.ic_contention, b.ic_contention) << what;
    EXPECT_EQ(a.sem_acquisitions, b.sem_acquisitions) << what;
    EXPECT_EQ(a.sem_failed_polls, b.sem_failed_polls) << what;
    EXPECT_EQ(a.shared_crc, b.shared_crc) << what;
    EXPECT_EQ(a.reliability, b.reliability) << what;
}

// --- CPU reference runs (quickstart / noc_exploration shapes) ---------------

// A CPU waiting on the fabric parks in MemWait and is woken in the cycle the
// interconnect answers; with 8 CPUs every request queues behind others.
TEST(GatingEquivalence, CpuFlowAllInterconnects) {
    struct Case {
        Workload w;
        u32 cores;
    };
    const Case cases[] = {
        {apps::make_mp_matrix({2, 12}), 2},
        {apps::make_mp_matrix({8, 16}), 8},
        {apps::make_des({3, 2}), 3},
        {apps::make_cacheloop({2, 4000}), 2},
    };
    for (const Case& c : cases) {
        for (const IcKind ic :
             {IcKind::Amba, IcKind::Crossbar, IcKind::Xpipes}) {
            const std::string what = c.w.name + "/" + std::to_string(c.cores) +
                                     "P/" + std::string(platform::to_string(ic));
            const auto gated = observe_cpu_run(c.w, cfg_for(c.cores, ic, true));
            const auto clocked =
                observe_cpu_run(c.w, cfg_for(c.cores, ic, false));
            EXPECT_GT(gated.cpu_stats[0][4], 0u) << what << ": no MemWait cycles";
            expect_identical(gated, clocked, what.c_str());
        }
    }
}

// The per-master bus counts and every CpuStats field of two contended CPU
// runs over AMBA round-robin, captured before CpuCore parked in MemWait:
// parking must settle each skipped wait cycle into mem_wait_cycles, and the
// bus must count the same grants and waits for a parked master.
TEST(GatingEquivalence, CpuCountsOnAmbaMatchGoldens) {
    struct Golden {
        Workload w;
        u32 cores;
        std::vector<u64> grants;
        std::vector<u64> waits;
        std::vector<std::vector<u64>> cpu; ///< CpuStats fields per core
    };
    const Golden goldens[] = {
        {apps::make_mp_matrix({8, 16}),
         8,
         {1012, 972, 964, 967, 977, 987, 1008, 1030},
         {14233, 14532, 14595, 14581, 14518, 14455, 14315, 14168},
         {{10488, 1543, 356, 4156, 18076, 0},
          {10408, 1511, 355, 4130, 18196, 0},
          {10392, 1503, 355, 4122, 18227, 0},
          {10398, 1506, 355, 4125, 18225, 0},
          {10418, 1516, 355, 4135, 18202, 0},
          {10438, 1526, 355, 4145, 18179, 0},
          {10480, 1547, 355, 4166, 18123, 0},
          {10524, 1569, 355, 4188, 18064, 0}}},
        {apps::make_des({4, 2}),
         4,
         {194, 195, 189, 188},
         {1227, 1229, 1275, 1286},
         {{4556, 621, 29, 108, 2314, 0},
          {4526, 610, 28, 99, 2361, 0},
          {4540, 617, 28, 106, 2344, 0},
          {4548, 621, 28, 110, 2336, 0}}},
    };
    for (const Golden& g : goldens) {
        for (const bool gating : {true, false}) {
            PlatformConfig cfg = cfg_for(g.cores, IcKind::Amba, gating);
            cfg.arbitration = ic::Arbitration::RoundRobin;
            const auto o = observe_cpu_run(g.w, cfg);
            const std::string what = g.w.name + "/" + std::to_string(g.cores) +
                                     (gating ? "P/gated" : "P/clocked");
            EXPECT_EQ(o.ahb_grants, g.grants) << what;
            EXPECT_EQ(o.ahb_waits, g.waits) << what;
            EXPECT_EQ(o.cpu_stats, g.cpu) << what;
        }
    }
}

/// Per-master AHB grants and wait cycles of one run.
struct BusCounts {
    std::vector<u64> grants;
    std::vector<u64> waits;
};

/// Fixed priority livelocks the semaphore workloads (the low-index pollers
/// starve the holder; noc_exploration reports it), so these runs stop at a
/// fixed horizon that covers the contended start and the livelock.
constexpr Cycle kFixedPriorityHorizon = 100'000;

BusCounts bus_counts_at_horizon(platform::Platform& p) {
    const platform::RunResult res = p.run(kFixedPriorityHorizon);
    EXPECT_FALSE(res.completed);
    const auto& bus = dynamic_cast<const ic::AhbBus&>(p.interconnect());
    EXPECT_EQ(bus.stats().busy_cycles + bus.stats().idle_cycles,
              kFixedPriorityHorizon);
    return {bus.stats().grants, bus.stats().wait_cycles};
}

// The per-master bus counts of the same two CPU runs under fixed priority,
// where master 0 wins every contested grant and the high indices wait longest.
TEST(GatingEquivalence, CpuBusCountsUnderFixedPriorityMatchGoldens) {
    struct Golden {
        Workload w;
        u32 cores;
        BusCounts counts;
    };
    const Golden goldens[] = {
        {apps::make_mp_matrix({8, 16}),
         8,
         {{10995, 10964, 776, 737, 661, 584, 432, 309},
          {11616, 11832, 83412, 85468, 88878, 92353, 95000, 96426}}},
        {apps::make_des({4, 2}),
         4,
         {{11924, 11915, 148, 143}, {12100, 12170, 94999, 95107}}},
    };
    for (const Golden& g : goldens) {
        for (const bool gating : {true, false}) {
            PlatformConfig cfg = cfg_for(g.cores, IcKind::Amba, gating);
            cfg.arbitration = ic::Arbitration::FixedPriority;
            platform::Platform p{cfg};
            p.load_workload(g.w);
            const BusCounts o = bus_counts_at_horizon(p);
            const std::string what = g.w.name + "/" + std::to_string(g.cores) +
                                     (gating ? "P/gated" : "P/clocked");
            EXPECT_EQ(o.grants, g.counts.grants) << what;
            EXPECT_EQ(o.waits, g.counts.waits) << what;
        }
    }
}

// --- TG replay runs ----------------------------------------------------------

/// Reactive programs translated from a gated CPU run on `cfg`.
std::vector<tg::TgProgram> translate_cpu_run(const Workload& w, PlatformConfig cfg) {
    cfg.collect_traces = true;
    platform::Platform ref{cfg};
    ref.load_workload(w);
    EXPECT_TRUE(ref.run(test::kMaxCycles).completed);
    tg::TranslateOptions topt;
    topt.polls = w.polls;
    std::vector<tg::TgProgram> programs;
    for (const tg::Trace& t : ref.traces())
        programs.push_back(tg::translate(t, topt).program);
    return programs;
}

// A TG waiting on the fabric parks in MemWait and is woken in the cycle the
// interconnect answers; the masters here queue behind each other on every
// fabric, so the replay exercises that wake on every request.
TEST(GatingEquivalence, TgReplayMatchesAcrossSchedules) {
    struct Case {
        Workload w;
        u32 cores;
    };
    const Case cases[] = {
        {apps::make_mp_matrix({2, 12}), 2},
        {apps::make_mp_matrix({8, 16}), 8},
        {apps::make_des({4, 2}), 4},
    };
    for (const Case& c : cases) {
        for (const IcKind ic : {IcKind::Amba, IcKind::Crossbar, IcKind::Xpipes}) {
            const std::string what =
                c.w.name + "/" + std::to_string(c.cores) + "P/" +
                std::string(platform::to_string(ic));
            const auto programs = translate_cpu_run(c.w, cfg_for(c.cores, ic, true));
            ASSERT_EQ(programs.size(), c.cores) << what;
            const auto gated = observe_tg_run(programs, c.w, cfg_for(c.cores, ic, true));
            const auto clocked =
                observe_tg_run(programs, c.w, cfg_for(c.cores, ic, false));
            EXPECT_GT(gated.tg_stats[0][4], 0u) << what << ": no MemWait cycles";
            expect_identical(gated, clocked, what.c_str());
        }
    }
}

// The per-master bus counts of one reactive replay of mp_matrix 8P n=16
// (translated from the round-robin CPU run) under each arbitration policy.
// The schedule comparison above runs one counting code on both sides; these
// pin the counts. Round-robin runs to completion, fixed priority to the
// horizon.
TEST(GatingEquivalence, TgReplayBusCountsMatchGoldens) {
    const Workload w = apps::make_mp_matrix({8, 16});
    const auto programs = translate_cpu_run(w, cfg_for(8, IcKind::Amba, true));
    ASSERT_EQ(programs.size(), 8u);
    const BusCounts round_robin{
        {1011, 972, 964, 967, 977, 987, 1008, 1030},
        {14190, 14489, 14552, 14538, 14475, 14412, 14272, 14125}};
    const BusCounts fixed_priority{
        {10987, 10955, 777, 737, 666, 584, 444, 307},
        {11628, 11852, 83356, 85426, 88684, 92333, 94860, 96447}};
    for (const bool gating : {true, false}) {
        const std::string mode = gating ? "/gated" : "/clocked";
        PlatformConfig cfg = cfg_for(8, IcKind::Amba, gating);
        const auto o = observe_tg_run(programs, w, cfg);
        EXPECT_EQ(o.ahb_grants, round_robin.grants) << "round-robin" << mode;
        EXPECT_EQ(o.ahb_waits, round_robin.waits) << "round-robin" << mode;

        cfg.arbitration = ic::Arbitration::FixedPriority;
        platform::Platform p{cfg};
        p.load_tg_programs(programs, w);
        const BusCounts f = bus_counts_at_horizon(p);
        EXPECT_EQ(f.grants, fixed_priority.grants) << "fixed-priority" << mode;
        EXPECT_EQ(f.waits, fixed_priority.waits) << "fixed-priority" << mode;
    }
}

TEST(GatingEquivalence, TgReplayOnAFaultedTorusMatches) {
    const Workload w = apps::make_mp_matrix({4, 16});
    const auto faulted = [](bool gating) {
        PlatformConfig cfg = cfg_for(4, IcKind::Xpipes, gating);
        cfg.xpipes.topology = ic::TopologyKind::Torus;
        cfg.xpipes.fault.corrupt_rate = 0.002;
        cfg.xpipes.fault.drop_rate = 0.001;
        cfg.xpipes.fault.seed = 1;
        return cfg;
    };
    const auto programs = translate_cpu_run(w, faulted(true));
    const auto gated = observe_tg_run(programs, w, faulted(true));
    const auto clocked = observe_tg_run(programs, w, faulted(false));
    ASSERT_FALSE(gated.reliability.empty());
    // Faults fired: some flits were corrupted or some packets dropped.
    EXPECT_GT(gated.reliability[6] + gated.reliability[7], 0u);
    expect_identical(gated, clocked, "mp_matrix/4P/torus+faults");
}

// --- stochastic soak (traffic_soak shape) -----------------------------------

TEST(GatingEquivalence, StochasticSoakMatches) {
    const Workload ctx = apps::make_cacheloop({2, 1});
    for (const IcKind ic : {IcKind::Amba, IcKind::Crossbar, IcKind::Xpipes}) {
        Cycle cycles[2];
        std::vector<u64> counters[2];
        for (int mode = 0; mode < 2; ++mode) {
            PlatformConfig cfg = cfg_for(2, ic, mode == 0);
            platform::Platform p{cfg};
            std::vector<tg::StochasticConfig> sc(2);
            for (u32 i = 0; i < 2; ++i) {
                sc[i].seed = 7 + i;
                sc[i].process = (i == 0) ? tg::ArrivalProcess::Bursty
                                         : tg::ArrivalProcess::Poisson;
                sc[i].inter_gap = 400; // idle-heavy: exercises long parks
                sc[i].total_transactions = 300;
                sc[i].targets = {{platform::kSharedBase, 0x1000, 3},
                                 {platform::sem_addr(0), 4, 1}};
            }
            p.load_stochastic(sc, ctx);
            const auto res = p.run(test::kMaxCycles);
            ASSERT_TRUE(res.completed);
            cycles[mode] = res.cycles;
            counters[mode] = {p.shared_mem().reads_served(),
                              p.shared_mem().writes_served(),
                              p.semaphores().acquisitions(),
                              p.semaphores().failed_polls(),
                              p.interconnect().busy_cycles(),
                              p.interconnect().contention_cycles()};
        }
        EXPECT_EQ(cycles[0], cycles[1]);
        EXPECT_EQ(counters[0], counters[1]);
    }
}

// --- ChannelStore migration goldens ------------------------------------------

// Bit-identity across the AoS -> structure-of-arrays ChannelStore migration:
// these observables (completion cycles, instruction counts, interconnect
// statistics, rendered trace text, shared-memory image) were captured on the
// pre-migration build for every interconnect, both gated and fully clocked.
// Any divergence means the store refactor changed simulated behaviour.
TEST(GatingEquivalence, ChannelStoreMigrationMatchesPreSoAGoldens) {
    struct Golden {
        const char* workload;
        IcKind ic;
        Cycle cycles;
        u64 instructions;
        u64 ic_busy;
        u64 ic_contention;
        u64 trace_fnv;
        u64 shared_crc;
    };
    const Golden goldens[] = {
        {"mp_matrix", IcKind::Amba, 21755u, 28040u, 4373u, 339u,
         0x428a17945fcca63full, 0xcc5e73bd8a1f1e76ull},
        {"mp_matrix", IcKind::Crossbar, 21636u, 28062u, 3891u, 6u,
         0x3956ba4a8d5baa16ull, 0xcc5e73bd8a1f1e76ull},
        {"mp_matrix", IcKind::Xpipes, 23900u, 28018u, 9820u, 3u,
         0x29b00af60c3252e1ull, 0xcc5e73bd8a1f1e76ull},
        {"cacheloop", IcKind::Amba, 12016u, 16004u, 14u, 7u,
         0x3b06328fa7c04c50ull, 0x28c31cf8df2ec325ull},
        {"cacheloop", IcKind::Crossbar, 12009u, 16004u, 7u, 0u,
         0x7bf87c8d32bee10dull, 0x28c31cf8df2ec325ull},
        {"cacheloop", IcKind::Xpipes, 12015u, 16004u, 13u, 0u,
         0xffe134ab843b78d1ull, 0x28c31cf8df2ec325ull},
    };
    const auto fnv_text = [](u64 h, const std::string& s) {
        for (const char c : s)
            h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
        return h;
    };
    for (const Golden& g : goldens) {
        const Workload w = (std::string(g.workload) == "mp_matrix")
                               ? apps::make_mp_matrix({2, 12})
                               : apps::make_cacheloop({2, 4000});
        for (const bool gating : {true, false}) {
            const auto o = observe_cpu_run(w, cfg_for(2, g.ic, gating));
            const std::string what = std::string(g.workload) + "/" +
                                     std::string(platform::to_string(g.ic)) +
                                     (gating ? "/gated" : "/clocked");
            EXPECT_EQ(o.result.cycles, g.cycles) << what;
            EXPECT_EQ(o.result.total_instructions, g.instructions) << what;
            EXPECT_EQ(o.ic_busy, g.ic_busy) << what;
            EXPECT_EQ(o.ic_contention, g.ic_contention) << what;
            u64 th = 0xcbf29ce484222325ull;
            for (const std::string& t : o.traces) th = fnv_text(th, t);
            EXPECT_EQ(th, g.trace_fnv) << what;
            EXPECT_EQ(o.shared_crc, g.shared_crc) << what;
        }
    }
}

// --- kernel-level behaviours -------------------------------------------------

TEST(GatingKernel, ParksIdleComponentsAndReportsCount) {
    sim::Kernel k;
    ocp::Channel ch;
    mem::MemorySlave mem{ch, mem::SlaveTiming{1, 1, 1}, 0x1000, 0x100, "m"};
    k.add(mem, sim::kStageSlave);
    EXPECT_EQ(k.parked_count(), 0u);
    k.run(10);
    EXPECT_EQ(k.parked_count(), 1u); // idle slave is clock-gated
    EXPECT_EQ(k.now(), 10u);
    k.tick(); // tick() settles and re-clocks everything
    EXPECT_EQ(k.parked_count(), 0u);
}

TEST(GatingKernel, CheckIntervalDoesNotChangeCompletion) {
    const apps::Workload w = apps::make_mp_matrix({2, 8});
    Cycle cycles[3];
    int i = 0;
    for (const Cycle interval : {Cycle{1}, Cycle{64}, Cycle{4096}}) {
        PlatformConfig cfg = cfg_for(2, IcKind::Amba, true);
        cfg.done_check_interval = interval;
        platform::Platform p{cfg};
        p.load_workload(w);
        const auto res = p.run(test::kMaxCycles);
        ASSERT_TRUE(res.completed);
        cycles[i++] = res.cycles;
    }
    EXPECT_EQ(cycles[0], cycles[1]);
    EXPECT_EQ(cycles[0], cycles[2]);
}

// --- push wake: visibility and lifetime ---------------------------------------

/// Parks whenever it can and logs the cycle of each eval() and update();
/// woken only by a bump of its channel's m_gen. A same-cycle watcher marks
/// its watch range WatchRange::in_update.
class Watcher final : public sim::Clocked {
public:
    Watcher(const sim::Kernel& k, ocp::ChannelRef ch, bool same_cycle = false)
        : k_(&k), ch_(ch), same_cycle_(same_cycle) {}
    void eval() override { evals.push_back(k_->now()); }
    void update() override { updates.push_back(k_->now()); }
    [[nodiscard]] Cycle quiet_for() const override { return sim::kQuietForever; }
    void watch_inputs(std::vector<sim::WatchRange>& out) const override {
        sim::WatchRange r = ch_.m_gen_watch();
        r.in_update = same_cycle_;
        out.push_back(r);
    }
    void rebind(const sim::Kernel& k) { k_ = &k; }

    std::vector<Cycle> evals;
    std::vector<Cycle> updates;

private:
    const sim::Kernel* k_;
    ocp::ChannelRef ch_;
    bool same_cycle_;
};

/// Never parks; bumps its channel's m_gen during the eval of cycle `at`.
class Toucher final : public sim::Clocked {
public:
    Toucher(const sim::Kernel& k, ocp::ChannelRef ch, Cycle at)
        : k_(k), ch_(ch), at_(at) {}
    void eval() override {
        if (k_.now() == at_) ch_.touch_m();
    }
    void update() override {}

private:
    const sim::Kernel& k_;
    ocp::ChannelRef ch_;
    Cycle at_;
};

TEST(PushWake, EarlierStageWriteWakesSameCycleLaterStageNextCycle) {
    for (const int stage : {sim::kStageMaster, sim::kStageObserver}) {
        sim::Kernel k;
        ocp::Channel ch;
        Watcher w{k, ch};
        Toucher t{k, ch, 5};
        k.add(w, sim::kStageSlave);
        k.add(t, stage);
        k.run(10);
        // The watcher parks after its first cycle. A bump ahead of it in the
        // eval order is seen in the cycle it happens; one behind it, in the
        // next — as in the fully clocked schedule.
        const Cycle seen = stage == sim::kStageMaster ? 5 : 6;
        EXPECT_EQ(w.evals, (std::vector<Cycle>{0, seen})) << "stage " << stage;
        EXPECT_EQ(k.now(), 10u);
    }
}

TEST(PushWake, SameCycleWatcherUpdatesInTheBumpCycle) {
    // A master (stage 0) whose update() samples wires the interconnect
    // (stage 2) drives: a same-cycle watcher wakes in the bump's own cycle,
    // with a late eval() and its update(); an unflagged one in the next.
    for (const bool same_cycle : {true, false}) {
        sim::Kernel k;
        ocp::Channel ch;
        Watcher w{k, ch, same_cycle};
        Toucher t{k, ch, 5};
        k.add(w, sim::kStageMaster);
        k.add(t, sim::kStageInterconnect);
        k.run(10);
        const Cycle seen = same_cycle ? 5 : 6;
        EXPECT_EQ(w.evals, (std::vector<Cycle>{0, seen})) << same_cycle;
        EXPECT_EQ(w.updates, (std::vector<Cycle>{0, seen})) << same_cycle;
        EXPECT_EQ(k.parked_count(), 1u) << same_cycle;
        EXPECT_EQ(k.now(), 10u);
    }
}

TEST(PushWake, SameCycleWatcherSettlesSkippedCyclesAndSurvivesAResort) {
    /// Keeps an internal clock the way a parked TG counts MemWait cycles.
    class Counter final : public sim::Clocked {
    public:
        Counter(const sim::Kernel& k, ocp::ChannelRef ch) : k_(k), ch_(ch) {}
        void eval() override {
            evals.push_back(k_.now());
            EXPECT_EQ(cycles_, k_.now()) << "skipped cycles not settled";
        }
        void update() override { ++cycles_; }
        [[nodiscard]] Cycle quiet_for() const override { return sim::kQuietForever; }
        void advance(Cycle n) override { cycles_ += n; }
        void watch_inputs(std::vector<sim::WatchRange>& out) const override {
            sim::WatchRange r = ch_.m_gen_watch();
            r.in_update = true;
            out.push_back(r);
        }
        [[nodiscard]] Cycle cycles() const noexcept { return cycles_; }
        std::vector<Cycle> evals;

    private:
        const sim::Kernel& k_;
        ocp::ChannelRef ch_;
        Cycle cycles_ = 0;
    };
    sim::Kernel k;
    ocp::Channel ch;
    Counter c{k, ch};
    Toucher t{k, ch, 7};
    k.add(c, sim::kStageSlave);
    k.add(t, sim::kStageInterconnect);
    k.run(12);
    EXPECT_EQ(c.evals, (std::vector<Cycle>{0, 7}));
    EXPECT_EQ(c.cycles(), 12u);
    // A late master moves the watcher one tick position back (add() re-arms
    // it, so it evals at 12); its same-cycle flag must follow it.
    Toucher never{k, ch, 1000};
    k.add(never, sim::kStageMaster);
    Toucher late{k, ch, 15};
    k.add(late, sim::kStageInterconnect);
    k.run(8);
    EXPECT_EQ(c.evals, (std::vector<Cycle>{0, 7, 12, 15}));
    EXPECT_EQ(c.cycles(), 20u);
}

TEST(PushWake, BumpBetweenRunsWakesOnTheNextCycle) {
    sim::Kernel k;
    ocp::Channel ch;
    Watcher w{k, ch};
    k.add(w, sim::kStageSlave);
    k.run(4);
    ch.touch_m();
    k.run(4);
    EXPECT_EQ(w.evals, (std::vector<Cycle>{0, 4}));
}

TEST(PushWake, StoreDiesBeforeKernel) {
    // Destruction order of the GatingKernel tests: the store first.
    sim::Kernel k;
    auto store = std::make_unique<ocp::ChannelStore>();
    const ocp::ChannelRef ch = store->allocate();
    Watcher w{k, ch};
    k.add(w, sim::kStageSlave);
    k.run(3);
    ASSERT_EQ(k.parked_count(), 1u);
    EXPECT_EQ(store->m_wake[0].size(), 1u);
    store.reset();
}

TEST(PushWake, KernelDiesBeforeStore) {
    ocp::Channel ch;
    {
        sim::Kernel k;
        Watcher w{k, ch};
        k.add(w, sim::kStageSlave);
        k.run(3);
        ASSERT_EQ(k.parked_count(), 1u);
    }
    ch.touch_m(); // sets a bit of the dead kernel's run bits: harmless
    EXPECT_EQ(ch.store()->m_wake[ch.index()].size(), 1u);
}

TEST(PushWake, AddAfterParkingResortsWithoutResubscribing) {
    sim::Kernel k;
    ocp::Channel ch;
    Watcher w{k, ch};
    k.add(w, sim::kStageSlave);
    k.run(3);
    ASSERT_EQ(k.parked_count(), 1u);
    // A late master moves the watcher one tick position back; its
    // subscription (by registration id) must follow it.
    Toucher t{k, ch, 6};
    k.add(t, sim::kStageMaster);
    k.run(7);
    EXPECT_EQ(w.evals, (std::vector<Cycle>{0, 3, 6}));
    EXPECT_EQ(ch.store()->m_wake[ch.index()].size(), 1u);
}

TEST(PushWake, ComponentReusedInASecondKernel) {
    ocp::Channel ch;
    auto first = std::make_unique<sim::Kernel>();
    Watcher w{*first, ch};
    first->add(w, sim::kStageSlave);
    first->run(3);
    first.reset();
    sim::Kernel second;
    w.rebind(second);
    w.evals.clear();
    Toucher t{second, ch, 4};
    second.add(t, sim::kStageMaster);
    second.add(w, sim::kStageSlave);
    second.run(8);
    EXPECT_EQ(w.evals, (std::vector<Cycle>{0, 4}));
    // The dead kernel's subscription was dropped when the second one joined.
    EXPECT_EQ(ch.store()->m_wake[ch.index()].size(), 1u);
}

TEST(PushWake, WatchRangeWithoutWakeListsIsALogicError) {
    /// Names a bare counter slice: nothing could ever wake it.
    class Bare final : public sim::Clocked {
    public:
        void eval() override {}
        void update() override {}
        [[nodiscard]] Cycle quiet_for() const override { return sim::kQuietForever; }
        void watch_inputs(std::vector<sim::WatchRange>& out) const override {
            out.push_back(sim::WatchRange{&gen_, 1});
        }

    private:
        u32 gen_ = 0;
    };
    sim::Kernel k;
    Bare b;
    k.add(b, sim::kStageSlave, "bare");
    EXPECT_THROW(k.run(2), std::logic_error);
}

} // namespace
} // namespace tgsim
