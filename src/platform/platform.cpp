#include "platform/platform.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "tg/program.hpp"

namespace tgsim::platform {

Platform::Platform(PlatformConfig cfg) : cfg_(std::move(cfg)) {
    if (cfg_.n_cores == 0) throw std::invalid_argument{"Platform: zero cores"};
    kernel_.set_max_skip(cfg_.max_idle_skip);
    kernel_.set_gating(cfg_.kernel_gating);
    build_fabric();
}

void Platform::build_fabric() {
    const u32 n = cfg_.n_cores;

    // Channels: one per master, one per slave (n privates + shared + sems).
    // Masters are allocated first so their store indices — and thus their
    // m_cmd/m_gen array slices — form one contiguous run.
    channels_.reserve(2u * n + 2u);
    for (u32 i = 0; i < n; ++i) master_ch_.push_back(channels_.allocate());
    std::vector<ocp::ChannelRef> slave_ch;
    for (u32 i = 0; i < n + 2; ++i) slave_ch.push_back(channels_.allocate());

    // Interconnect.
    switch (cfg_.ic) {
        case IcKind::Amba:
            ic_ = std::make_unique<ic::AhbBus>(cfg_.arbitration);
            break;
        case IcKind::Crossbar:
            ic_ = std::make_unique<ic::Crossbar>();
            break;
        case IcKind::Xpipes: {
            ic::XpipesConfig xc = cfg_.xpipes;
            if (xc.width == 0 || xc.height == 0) {
                const u32 nodes = xpipes_nodes_needed(n);
                xc.width = static_cast<u32>(
                    std::ceil(std::sqrt(static_cast<double>(nodes))));
                xc.height = xpipes_height_for(n, xc.width);
            }
            ic_ = std::make_unique<ic::XpipesNetwork>(xc);
            break;
        }
    }

    // Slaves: core i's private memory is co-located with the core (same mesh
    // node for ×pipes); shared memory and semaphores get their own nodes.
    for (u32 i = 0; i < n; ++i) {
        privs_.push_back(std::make_unique<mem::MemorySlave>(
            slave_ch[i], cfg_.priv_timing, priv_base(i), kPrivSize,
            "priv" + std::to_string(i)));
        ic_->connect_slave(slave_ch[i], priv_base(i), kPrivSize,
                           static_cast<int>(i));
    }
    shared_ = std::make_unique<mem::MemorySlave>(
        slave_ch[n], cfg_.shared_timing, kSharedBase, kSharedSize, "shared");
    ic_->connect_slave(slave_ch[n], kSharedBase, kSharedSize,
                       static_cast<int>(n));
    sems_ = std::make_unique<mem::SemaphoreDevice>(
        slave_ch[n + 1], cfg_.sem_timing, kSemBase, kSemCount, "sems");
    ic_->connect_slave(slave_ch[n + 1], kSemBase, 4 * kSemCount,
                       static_cast<int>(n + 1), sems_->read_side_effects());

    // Master ports.
    for (u32 i = 0; i < n; ++i)
        ic_->connect_master(master_ch_[i], static_cast<int>(i));

    // Kernel registration. Masters join in load_*().
    for (auto& p : privs_) kernel_.add(*p, sim::kStageSlave, p->name());
    kernel_.add(*shared_, sim::kStageSlave, "shared");
    kernel_.add(*sems_, sim::kStageSlave, "sems");
    kernel_.add(*ic_, sim::kStageInterconnect, "ic");
}

void Platform::apply_images(const apps::Workload& w, bool load_code) {
    if (load_code) {
        if (w.cores.size() != cfg_.n_cores)
            throw std::invalid_argument{
                "Platform: workload core count mismatch (workload " +
                std::to_string(w.cores.size()) + ", platform " +
                std::to_string(cfg_.n_cores) + ")"};
        for (u32 i = 0; i < cfg_.n_cores; ++i)
            privs_[i]->load(priv_base(i), w.cores[i].code);
    }
    // Private data segments (absolute addresses).
    for (u32 i = 0; i < w.cores.size() && i < cfg_.n_cores; ++i) {
        for (const apps::Segment& seg : w.cores[i].data) {
            bool placed = false;
            for (auto& pm : privs_) {
                if (pm->contains(seg.addr)) {
                    pm->load(seg.addr, seg.words);
                    placed = true;
                    break;
                }
            }
            if (!placed && shared_->contains(seg.addr)) {
                shared_->load(seg.addr, seg.words);
                placed = true;
            }
            if (!placed)
                throw std::invalid_argument{"Platform: data segment outside memory"};
        }
    }
    for (const apps::Segment& seg : w.shared_init)
        shared_->load(seg.addr, seg.words);
}

void Platform::load_workload(const apps::Workload& w) {
    if (!cpus_.empty() || !tgs_.empty() || !stochs_.empty())
        throw std::logic_error{"Platform: masters already loaded"};
    apply_images(w, /*load_code=*/true);
    for (u32 i = 0; i < cfg_.n_cores; ++i) {
        cpu::CpuConfig cc;
        cc.core_id = i;
        cc.icache = cfg_.icache;
        cc.dcache = cfg_.dcache;
        cc.timing = cfg_.cpu_timing;
        cc.cacheable.push_back(cpu::AddrRange{priv_base(i), kPrivSize});
        cpus_.push_back(std::make_unique<cpu::CpuCore>(master_ch_[i], cc));
        cpus_.back()->reset(priv_base(i) + w.cores[i].entry);
        kernel_.add(*cpus_.back(), sim::kStageMaster, "cpu" + std::to_string(i));
    }
    if (cfg_.collect_traces) attach_monitors();
}

void Platform::load_tg_programs(const std::vector<tg::TgProgram>& programs,
                                const apps::Workload& context) {
    load_tg_binaries(tg::assemble_all(programs), context);
}

void Platform::load_tg_binaries(const std::vector<tg::AssembledTg>& binaries,
                                const apps::Workload& context) {
    if (!cpus_.empty() || !tgs_.empty() || !stochs_.empty())
        throw std::logic_error{"Platform: masters already loaded"};
    if (binaries.size() != cfg_.n_cores)
        throw std::invalid_argument{"Platform: TG program count mismatch"};
    apply_images(context, /*load_code=*/false);
    for (u32 i = 0; i < cfg_.n_cores; ++i) {
        tgs_.push_back(std::make_unique<tg::TgCore>(master_ch_[i]));
        tgs_.back()->load(binaries[i].image);
        for (const auto& [reg, value] : binaries[i].reg_init)
            tgs_.back()->preset_reg(reg, value);
        kernel_.add(*tgs_.back(), sim::kStageMaster, "tg" + std::to_string(i));
    }
    if (cfg_.collect_traces) attach_monitors();
}

void Platform::load_stochastic(const std::vector<tg::StochasticConfig>& configs,
                               const apps::Workload& context,
                               const tg::SourceConfig& source) {
    if (!cpus_.empty() || !tgs_.empty() || !stochs_.empty())
        throw std::logic_error{"Platform: masters already loaded"};
    if (configs.size() != cfg_.n_cores)
        throw std::invalid_argument{"Platform: stochastic config count mismatch"};
    if (source.open() && cfg_.ic != IcKind::Xpipes)
        throw std::invalid_argument{
            "Platform: open-loop sources need the xpipes fabric"};
    apply_images(context, /*load_code=*/false);
    source_ = source;
    if (source.open()) {
        // configure_open_source validates pending_limit and rejects the
        // fault-injection combination before any master exists.
        auto* mesh = dynamic_cast<ic::XpipesNetwork*>(ic_.get());
        mesh->configure_open_source(source.max_outstanding,
                                    source.pending_limit);
    }
    for (u32 i = 0; i < cfg_.n_cores; ++i) {
        tg::StochasticConfig c = configs[i];
        c.open_loop = source.open(); // the source mode is authoritative
        stochs_.push_back(
            std::make_unique<tg::StochasticTg>(master_ch_[i], std::move(c)));
        kernel_.add(*stochs_.back(), sim::kStageMaster,
                    "stg" + std::to_string(i));
    }
    // The transaction budget bounds the latency samples (every transaction
    // delivers at most a request and a response packet), so the mesh can
    // pre-size its sample store and never reallocate mid-simulation.
    if (cfg_.ic == IcKind::Xpipes && cfg_.xpipes.collect_latency) {
        if (auto* mesh = dynamic_cast<ic::XpipesNetwork*>(ic_.get())) {
            u64 budget = 0;
            for (const tg::StochasticConfig& c : configs)
                budget += c.total_transactions * 2;
            mesh->reserve_latency(budget);
        }
    }
    if (cfg_.collect_traces) attach_monitors();
}

void Platform::attach_monitors() {
    traces_.resize(cfg_.n_cores);
    for (u32 i = 0; i < cfg_.n_cores; ++i) {
        traces_[i].core_id = i;
        monitors_.push_back(std::make_unique<ocp::ChannelMonitor>(
            kernel_, master_ch_[i], traces_[i]));
        kernel_.add(*monitors_.back(), sim::kStageObserver,
                    "mon" + std::to_string(i));
    }
}

bool Platform::all_done() const {
    for (const auto& c : cpus_)
        if (!c->done()) return false;
    for (const auto& t : tgs_)
        if (!t->done()) return false;
    for (const auto& s : stochs_)
        if (!s->done()) return false;
    // The masters are done, but ×pipes may still hold their traffic. With
    // faults, the NI can still await an ack or replay a dropped packet;
    // with an open-loop source, the generators halt as soon as they have
    // *offered* their budget, and the NI queues and the network may hold
    // most of it. Drain completely (quiet_for() is 0 exactly while flits
    // are in flight or retries or packets are pending), or pending
    // transactions would be harvested as neither delivered nor lost and
    // throughput measured against a truncated run. Zero-fault closed-loop
    // runs never take this branch, so their cycle counts are untouched.
    if (cfg_.ic == IcKind::Xpipes &&
        (cfg_.xpipes.fault.enabled() || source_.open()) && ic_->quiet_for() == 0)
        return false;
    return true;
}

RunResult Platform::run(Cycle max_cycles) {
    if (cpus_.empty() && tgs_.empty() && stochs_.empty())
        throw std::logic_error{"Platform: no masters loaded"};
    sim::WallTimer timer;
    const bool completed =
        kernel_.run_until([this] { return all_done(); }, max_cycles,
                          cfg_.done_check_interval);
    RunResult res;
    res.completed = completed;
    res.wall_seconds = timer.seconds();
    for (u32 i = 0; i < cfg_.n_cores; ++i) {
        Cycle hc = 0;
        if (has_cpus()) {
            hc = cpus_[i]->halt_cycle();
            res.total_instructions += cpus_[i]->stats().instructions;
        } else if (!tgs_.empty()) {
            hc = tgs_[i]->halt_cycle();
            res.total_instructions += tgs_[i]->stats().instructions;
        } else {
            hc = stochs_[i]->halt_cycle();
            res.total_instructions += stochs_[i]->issued();
        }
        res.per_core.push_back(hc);
        res.cycles = std::max(res.cycles, hc);
    }
    // Open-loop runs end when the last packet delivers, not when the last
    // generator halts — the halt only marks the end of *offering*. Using
    // the delivery time keeps accepted-rate denominators honest.
    if (source_.open() && cfg_.ic == IcKind::Xpipes) {
        if (const auto* mesh =
                dynamic_cast<const ic::XpipesNetwork*>(ic_.get()))
            res.cycles = std::max(res.cycles, mesh->stats().last_delivery);
    }
    if (!completed) res.cycles = kernel_.now();
    for (u32 i = 0; i < traces_.size(); ++i)
        traces_[i].end_cycle = res.per_core[i];
    return res;
}

u32 Platform::peek(u32 addr) const {
    for (const auto& pm : privs_)
        if (pm->contains(addr)) return pm->peek(addr);
    if (shared_->contains(addr)) return shared_->peek(addr);
    if (addr >= kSemBase && (addr - kSemBase) / 4 < kSemCount)
        return sems_->peek((addr - kSemBase) / 4);
    throw std::out_of_range{"Platform::peek: undecoded address"};
}

bool Platform::run_checks(const apps::Workload& w, std::string* msg) const {
    for (const apps::Check& c : w.checks) {
        const u32 got = peek(c.addr);
        if (got != c.expect) {
            if (msg != nullptr) {
                char buf[96];
                std::snprintf(buf, sizeof buf,
                              "check failed @0x%08X: got 0x%08X expect 0x%08X",
                              c.addr, got, c.expect);
                *msg = buf;
            }
            return false;
        }
    }
    return true;
}

} // namespace tgsim::platform
