// E4 — reproduces the two transaction patterns of paper Figure 2:
//
//  (a) processor <-> exclusively-owned slave: posted write, blocking read,
//      and a read stalled behind the slave's write service time;
//  (b) two masters contending for one hardware semaphore by polling — the
//      number of failed polls depends on the interconnect, which is the
//      reactive behaviour a TG must regenerate rather than duplicate.
#include <cstdio>

#include "bench_util.hpp"
#include "cpu/assembler.hpp"

using namespace tgsim;
using namespace tgsim::bench;

namespace {

apps::Workload fig2a_workload() {
    using cpu::Reg;
    apps::Workload w;
    w.name = "fig2a";
    cpu::Assembler a;
    // Uncached (shared) slave so the OCP interface shows plain RD/WR like
    // the paper's Fig. 2(a); the initial BRD in the trace is the I$ refill.
    const u32 buf = platform::kSharedBase + 0x2000;
    a.li(Reg::R1, buf);
    a.movi(Reg::R2, 0x111);
    a.st(Reg::R2, Reg::R1, 0); // WR
    for (int i = 0; i < 8; ++i) a.nop(); // think time
    a.ld(Reg::R3, Reg::R1, 0); // RD, slave now idle: nominal latency
    for (int i = 0; i < 8; ++i) a.nop();
    a.st(Reg::R2, Reg::R1, 4); // WR ...
    a.ld(Reg::R3, Reg::R1, 4); // ... RD right behind: stalled at the slave
    a.halt();
    apps::CoreProgram prog;
    prog.code = a.finish();
    w.cores.push_back(prog);
    return w;
}

apps::Workload fig2b_workload(u32 hold_iters) {
    using cpu::Reg;
    apps::Workload w;
    w.name = "fig2b";
    for (u32 core = 0; core < 2; ++core) {
        cpu::Assembler a;
        a.li(Reg::R1, platform::sem_addr(0));
        if (core == 1) { // M2 arrives a little later
            a.li(Reg::R4, 6);
            a.bind("delay");
            a.addi(Reg::R4, Reg::R4, -1);
            a.bne(Reg::R4, Reg::R0, "delay");
        }
        a.bind("lock");
        a.ld(Reg::R2, Reg::R1, 0); // test-and-set read
        a.beq(Reg::R2, Reg::R0, "lock");
        // critical section: spin in cache to hold the semaphore
        a.li(Reg::R4, hold_iters);
        a.bind("hold");
        a.addi(Reg::R4, Reg::R4, -1);
        a.bne(Reg::R4, Reg::R0, "hold");
        a.movi(Reg::R2, 1);
        a.st(Reg::R2, Reg::R1, 0); // unlock
        a.halt();
        apps::CoreProgram prog;
        prog.code = a.finish();
        w.cores.push_back(prog);
    }
    tg::PollSpec sems;
    sems.base = platform::kSemBase;
    sems.size = 4 * platform::kSemCount;
    sems.retry_cmp = tg::TgCmp::Eq;
    sems.retry_value = 0;
    sems.inter_poll_idle = 1;
    w.polls.push_back(sems);
    return w;
}

void print_trace(const tg::Trace& t, const char* who) {
    std::printf("-- %s --\n", who);
    for (const auto& ev : t.events) {
        const auto data = t.beats_of(ev);
        const unsigned long long a = ev.t_assert * kCyclePeriodNs;
        if (ocp::is_read(ev.cmd)) {
            std::printf("  %-3s 0x%08X @%lluns  -> Resp 0x%08X @%lluns"
                        "  (wait %llu cyc)\n",
                        ocp::is_burst(ev.cmd) ? "BRD" : "RD", ev.addr, a,
                        data.empty() ? 0 : data.back(),
                        static_cast<unsigned long long>(ev.t_resp_last *
                                                        kCyclePeriodNs),
                        static_cast<unsigned long long>(ev.t_resp_last -
                                                        ev.t_assert));
        } else {
            std::printf("  %-3s 0x%08X 0x%08X @%lluns -> accepted @%lluns"
                        "  (wait %llu cyc)\n",
                        ocp::is_burst(ev.cmd) ? "BWR" : "WR", ev.addr,
                        data.empty() ? 0 : data.front(), a,
                        static_cast<unsigned long long>(ev.t_accept *
                                                        kCyclePeriodNs),
                        static_cast<unsigned long long>(ev.t_accept -
                                                        ev.t_assert));
        }
    }
}

void fig2b_on(platform::IcKind ic) {
    const apps::Workload w = fig2b_workload(40);
    platform::PlatformConfig cfg;
    cfg.n_cores = 2;
    cfg.ic = ic;
    const TimedRun run = run_cpu(w, cfg, /*traced=*/true);
    std::printf("interconnect %-8s: completion %6llu cycles;  semaphore events:\n",
                std::string(platform::to_string(ic)).c_str(),
                static_cast<unsigned long long>(run.result.cycles));
    for (u32 m = 0; m < 2; ++m) {
        u64 fails = 0, wins = 0;
        const tg::Trace& t = run.traces[m];
        for (const auto& ev : t.events) {
            if (ev.cmd != ocp::Cmd::Read || ev.addr != platform::sem_addr(0))
                continue;
            if (ev.beat_count != 0 && t.beats_of(ev).back() != 0)
                ++wins;
            else
                ++fails;
        }
        std::printf("  M%u: %llu failed polls (RD -> 0), %llu acquisition(s)\n",
                    m + 1, static_cast<unsigned long long>(fails),
                    static_cast<unsigned long long>(wins));
    }
}

} // namespace

int main() {
    std::printf("=== Figure 2(a): master <-> private slave transactions ===\n\n");
    {
        platform::PlatformConfig cfg;
        cfg.n_cores = 1;
        cfg.ic = platform::IcKind::Amba;
        cfg.shared_timing = mem::SlaveTiming{1, 8, 1}; // long WR service time
        const apps::Workload w = fig2a_workload();
        const TimedRun run = run_cpu(w, cfg, /*traced=*/true);
        print_trace(run.traces[0], "M1 (all transactions at the OCP interface)");
        std::printf(
            "\nNote the final RD: it reaches the slave while the preceding WR\n"
            "is still being serviced and stalls at the slave interface — its\n"
            "response wait exceeds the earlier RD to the same slave.\n");
    }

    std::printf("\n=== Figure 2(b): two masters polling one semaphore ===\n\n");
    fig2b_on(platform::IcKind::Amba);
    fig2b_on(platform::IcKind::Xpipes);
    std::printf(
        "\nExpected (paper): the loser master's number of failed polls is a\n"
        "function of network latency (t_nwk), so the transaction count at the\n"
        "OCP interfaces varies with the interconnect — the traffic must be\n"
        "regenerated reactively, not replayed verbatim.\n");
    return 0;
}
