// The platform of platform::Platform, rebuilt from its public parts with a
// Probe in front of every component.
//
// Platform registers its components with its own private kernel, so a run
// that times each layer has to wire the same system itself: the same
// channel allocation order, the same fabric, slaves and masters, registered
// at the same stages in the same order, run with the same completion
// predicate and poll interval. The benchmark checks that this copy stays
// faithful on every traced run: its kernel's schedule_of() and its digest
// must equal those of an untraced run of the real Platform, or the run
// fails. Components are registered under Platform's names for that reason.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "apps/workload.hpp"
#include "ic/interconnect.hpp"
#include "mem/memory.hpp"
#include "mem/semaphore.hpp"
#include "platform/platform.hpp"
#include "probe.hpp"
#include "tg/program.hpp"
#include "tg/source.hpp"
#include "tg/stochastic.hpp"
#include "tg/tg_core.hpp"

namespace tgsim::bench {

class TracedPlatform {
public:
    /// AMBA and ×pipes fabrics only (the benchmark's workloads).
    TracedPlatform(const platform::PlatformConfig& cfg, Tally& tally);

    void load_tg_binaries(const std::vector<tg::AssembledTg>& binaries,
                          const apps::Workload& context);
    void load_stochastic(const std::vector<tg::StochasticConfig>& configs,
                         const apps::Workload& context,
                         const tg::SourceConfig& source);

    [[nodiscard]] platform::RunResult run(Cycle max_cycles);

    [[nodiscard]] bool run_checks(const apps::Workload& w, std::string* msg) const;
    [[nodiscard]] const ic::Interconnect& interconnect() const { return *ic_; }
    [[nodiscard]] const mem::MemorySlave& shared_mem() const { return *shared_; }
    [[nodiscard]] const sim::Kernel& kernel() const { return kernel_; }

private:
    void add(sim::Clocked& component, int stage, Layer layer, std::string name);
    void apply_images(const apps::Workload& w);
    [[nodiscard]] bool all_done() const;
    [[nodiscard]] u32 peek(u32 addr) const;

    platform::PlatformConfig cfg_;
    Tally& tally_;
    tg::SourceConfig source_{};
    sim::Kernel kernel_;
    ocp::ChannelStore channels_;
    std::vector<ocp::ChannelRef> master_ch_;
    std::unique_ptr<ic::Interconnect> ic_;
    std::vector<std::unique_ptr<tg::TgCore>> tgs_;
    std::vector<std::unique_ptr<tg::StochasticTg>> stochs_;
    std::vector<std::unique_ptr<mem::MemorySlave>> privs_;
    std::unique_ptr<mem::MemorySlave> shared_;
    std::unique_ptr<mem::SemaphoreDevice> sems_;
    std::vector<std::unique_ptr<Probe>> probes_;
};

} // namespace tgsim::bench
