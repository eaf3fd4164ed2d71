// Platform builder: assembles a complete MPARM-like system — N masters
// (cycle-true CPU cores or traffic generators), an interconnect (AMBA
// AHB-like bus, STBus-like crossbar, or ×pipes-like mesh NoC), per-core
// private memories, one shared memory and a hardware semaphore bank — wires
// everything into a simulation kernel, optionally attaches trace monitors at
// every master OCP interface, and runs to completion.
//
// The same Platform type hosts both halves of the paper's methodology:
//
//   reference run:  Platform(cfg) -> load_workload(w) -> run()  [+ traces]
//   TG run:         Platform(cfg) -> load_tg_programs(...) -> run()
//
// A Platform instance represents one simulation; build a fresh one per run.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "apps/workload.hpp"
#include "cpu/core.hpp"
#include "ic/amba/ahb_bus.hpp"
#include "ic/crossbar/crossbar.hpp"
#include "ic/xpipes/xpipes.hpp"
#include "mem/memory.hpp"
#include "mem/semaphore.hpp"
#include "ocp/monitor.hpp"
#include "platform/memory_map.hpp"
#include "tg/program.hpp"
#include "tg/source.hpp"
#include "tg/stochastic.hpp"
#include "tg/tg_core.hpp"
#include "tg/trace.hpp"

namespace tgsim::platform {

enum class IcKind : u8 { Amba, Crossbar, Xpipes };

/// Mesh nodes a ×pipes platform needs for `n_cores` cores: one per core
/// (master NI + co-located private memory) plus one each for the shared
/// memory and the semaphore bank — build_fabric()'s layout, kept here so
/// surfaces that pick explicit mesh dimensions (bench/pattern_sweep, the
/// tgsim_sweep --grid/--mesh mapping in docs/traffic.md) cannot drift
/// from it.
[[nodiscard]] constexpr u32 xpipes_nodes_needed(u32 n_cores) noexcept {
    return n_cores + 2;
}

/// Physical mesh height for a row-major core grid of the given width:
/// cores occupy nodes [0, n_cores) so logical grid coordinates equal
/// physical mesh coordinates; the extra slaves fill the row(s) below.
[[nodiscard]] constexpr u32 xpipes_height_for(u32 n_cores, u32 width) noexcept {
    return (xpipes_nodes_needed(n_cores) + width - 1) / width;
}

[[nodiscard]] constexpr std::string_view to_string(IcKind k) noexcept {
    switch (k) {
        case IcKind::Amba: return "amba";
        case IcKind::Crossbar: return "crossbar";
        case IcKind::Xpipes: return "xpipes";
    }
    return "?";
}

struct PlatformConfig {
    u32 n_cores = 2;
    IcKind ic = IcKind::Amba;
    ic::Arbitration arbitration = ic::Arbitration::RoundRobin;
    mem::SlaveTiming priv_timing{1, 1, 1};
    mem::SlaveTiming shared_timing{1, 1, 1};
    mem::SlaveTiming sem_timing{1, 0, 1};
    cpu::CacheConfig icache{4, 64};
    cpu::CacheConfig dcache{4, 64};
    cpu::CpuTiming cpu_timing{};
    /// Mesh dimensions for IcKind::Xpipes; 0 = choose automatically.
    ic::XpipesConfig xpipes{0, 0, 4, true, false, {}, ic::TopologyKind::Mesh, {}};
    bool collect_traces = false;
    /// Per-component clock gating in the kernel (sim/kernel.hpp). On by
    /// default; disable for the legacy every-component-every-cycle schedule.
    /// Results are bit-identical either way — only wall time changes.
    bool kernel_gating = true;
    /// Legacy-mode (kernel_gating = false) global quiescence-skip bound in
    /// cycles; 0 disables skipping entirely (fully clocked kernel). Skips
    /// never cross a completion-poll boundary, so this only pays off with a
    /// done_check_interval coarser than the default 1.
    Cycle max_idle_skip = 1u << 20;
    /// How often run() polls its completion predicate, in cycles. Coarser
    /// intervals amortise the all-masters-halted scan on large platforms
    /// and are required for multi-cycle fast-forwards (gated jumps, legacy
    /// skips) to engage. Completion times are derived from per-master halt
    /// cycles, so reported cycle counts do not depend on this; only the
    /// post-completion settle point (and thus wall time) does, which is why
    /// the default is coarse. Set to 1 to poll every cycle.
    Cycle done_check_interval = 1024;
};

struct RunResult {
    bool completed = false; ///< all masters halted within the cycle budget
    Cycle cycles = 0;       ///< global completion time (paper's metric)
    std::vector<Cycle> per_core;
    double wall_seconds = 0.0;
    u64 total_instructions = 0;
};

class Platform {
public:
    explicit Platform(PlatformConfig cfg);

    /// Instantiates CPU masters and loads the workload (code, private data,
    /// shared memory images).
    void load_workload(const apps::Workload& w);

    /// Instantiates TG masters from translated programs; `context` supplies
    /// the initial shared-memory images (the environment must start in the
    /// same state as the reference run).
    void load_tg_programs(const std::vector<tg::TgProgram>& programs,
                          const apps::Workload& context);

    /// Same, from pre-assembled binaries (tg::assemble_all). The binaries
    /// are shared, read-only inputs — nothing is re-translated or
    /// re-assembled per platform, which is what makes per-candidate setup
    /// in a design-space sweep (src/sweep/) cheap and lets many threads
    /// inject the same set concurrently.
    void load_tg_binaries(const std::vector<tg::AssembledTg>& binaries,
                          const apps::Workload& context);

    /// Instantiates stochastic traffic generators (the related-work baseline
    /// of paper Sec. 2); one config per core, with the tg::SourceConfig
    /// mode (docs/traffic.md) applied uniformly. SourceMode::Closed, the
    /// default, runs each generator closed loop; SourceMode::Open
    /// additionally switches the ×pipes master NIs into open-loop
    /// pending-queue injection (xpipes fabric only, mutually exclusive
    /// with fault injection) and extends the run until the network
    /// backlog drains.
    void load_stochastic(const std::vector<tg::StochasticConfig>& configs,
                         const apps::Workload& context,
                         const tg::SourceConfig& source = {});

    /// Runs until every master halts or `max_cycles` elapse.
    [[nodiscard]] RunResult run(Cycle max_cycles);

    /// Collected traces (one per master; valid after run() when
    /// cfg.collect_traces was set).
    [[nodiscard]] const std::vector<tg::Trace>& traces() const noexcept {
        return traces_;
    }

    /// Verifies the workload's expected memory values; returns true when all
    /// pass, otherwise fills `msg` with the first mismatch.
    [[nodiscard]] bool run_checks(const apps::Workload& w, std::string* msg) const;

    /// Zero-time read of any decoded address (tests and checks).
    [[nodiscard]] u32 peek(u32 addr) const;

    [[nodiscard]] u32 n_cores() const noexcept { return cfg_.n_cores; }
    [[nodiscard]] const PlatformConfig& config() const noexcept { return cfg_; }
    [[nodiscard]] sim::Kernel& kernel() noexcept { return kernel_; }
    [[nodiscard]] ic::Interconnect& interconnect() { return *ic_; }
    /// Const plumbing so read-only consumers (sweep result harvesting,
    /// checks) can take `const Platform&`.
    [[nodiscard]] const ic::Interconnect& interconnect() const { return *ic_; }
    [[nodiscard]] mem::MemorySlave& private_mem(u32 core) { return *privs_.at(core); }
    [[nodiscard]] mem::MemorySlave& shared_mem() { return *shared_; }
    [[nodiscard]] mem::SemaphoreDevice& semaphores() { return *sems_; }
    [[nodiscard]] cpu::CpuCore& core(u32 i) { return *cpus_.at(i); }
    [[nodiscard]] tg::TgCore& tg_core(u32 i) { return *tgs_.at(i); }
    [[nodiscard]] bool has_cpus() const noexcept { return !cpus_.empty(); }
    [[nodiscard]] ocp::ChannelRef master_channel(u32 i) { return master_ch_.at(i); }
    /// The platform's wire store: master channels occupy indices
    /// [0, n_cores), slave channels follow.
    [[nodiscard]] const ocp::ChannelStore& channel_store() const noexcept {
        return channels_;
    }

private:
    void build_fabric();
    void apply_images(const apps::Workload& w, bool load_code);
    void attach_monitors();
    [[nodiscard]] bool all_done() const;

    PlatformConfig cfg_;
    /// Source mode for stochastic masters (closed unless load_stochastic
    /// asked for open) — drives the open-loop drain condition in
    /// all_done() and the cycle accounting in run().
    tg::SourceConfig source_{};
    sim::Kernel kernel_;
    /// Structure-of-arrays store owning all wire state: masters first (so
    /// the fabrics' arbitration and gen scans sweep one contiguous run),
    /// then slaves. Locality matters: the bus scans every master channel
    /// every active cycle.
    ocp::ChannelStore channels_;
    std::vector<ocp::ChannelRef> master_ch_;
    std::unique_ptr<ic::Interconnect> ic_;
    std::vector<std::unique_ptr<cpu::CpuCore>> cpus_;
    std::vector<std::unique_ptr<tg::TgCore>> tgs_;
    std::vector<std::unique_ptr<tg::StochasticTg>> stochs_;
    std::vector<std::unique_ptr<mem::MemorySlave>> privs_;
    std::unique_ptr<mem::MemorySlave> shared_;
    std::unique_ptr<mem::SemaphoreDevice> sems_;
    std::vector<std::unique_ptr<ocp::ChannelMonitor>> monitors_;
    std::vector<tg::Trace> traces_;
};

} // namespace tgsim::platform
