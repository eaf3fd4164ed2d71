#include "traced_platform.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "ic/amba/ahb_bus.hpp"
#include "ic/xpipes/xpipes.hpp"
#include "platform/memory_map.hpp"

namespace tgsim::bench {

TracedPlatform::TracedPlatform(const platform::PlatformConfig& cfg, Tally& tally)
    : cfg_(cfg), tally_(tally) {
    const u32 n = cfg_.n_cores;
    kernel_.set_max_skip(cfg_.max_idle_skip);
    kernel_.set_gating(cfg_.kernel_gating);

    channels_.reserve(2u * n + 2u);
    for (u32 i = 0; i < n; ++i) master_ch_.push_back(channels_.allocate());
    std::vector<ocp::ChannelRef> slave_ch;
    for (u32 i = 0; i < n + 2; ++i) slave_ch.push_back(channels_.allocate());

    Layer ic_layer = Layer::Amba;
    switch (cfg_.ic) {
        case platform::IcKind::Amba:
            ic_ = std::make_unique<ic::AhbBus>(cfg_.arbitration);
            break;
        case platform::IcKind::Xpipes: {
            ic::XpipesConfig xc = cfg_.xpipes;
            if (xc.width == 0 || xc.height == 0) {
                xc.width = static_cast<u32>(std::ceil(std::sqrt(
                    static_cast<double>(platform::xpipes_nodes_needed(n)))));
                xc.height = platform::xpipes_height_for(n, xc.width);
            }
            ic_ = std::make_unique<ic::XpipesNetwork>(xc);
            ic_layer = Layer::Xpipes;
            break;
        }
        case platform::IcKind::Crossbar:
            throw std::invalid_argument{"TracedPlatform: crossbar not traced"};
    }

    for (u32 i = 0; i < n; ++i) {
        privs_.push_back(std::make_unique<mem::MemorySlave>(
            slave_ch[i], cfg_.priv_timing, platform::priv_base(i),
            platform::kPrivSize, "priv" + std::to_string(i)));
        ic_->connect_slave(slave_ch[i], platform::priv_base(i),
                           platform::kPrivSize, static_cast<int>(i));
    }
    shared_ = std::make_unique<mem::MemorySlave>(
        slave_ch[n], cfg_.shared_timing, platform::kSharedBase,
        platform::kSharedSize, "shared");
    ic_->connect_slave(slave_ch[n], platform::kSharedBase,
                       platform::kSharedSize, static_cast<int>(n));
    sems_ = std::make_unique<mem::SemaphoreDevice>(
        slave_ch[n + 1], cfg_.sem_timing, platform::kSemBase,
        platform::kSemCount, "sems");
    ic_->connect_slave(slave_ch[n + 1], platform::kSemBase,
                       4 * platform::kSemCount, static_cast<int>(n + 1));
    for (u32 i = 0; i < n; ++i)
        ic_->connect_master(master_ch_[i], static_cast<int>(i));

    for (auto& p : privs_) add(*p, sim::kStageSlave, Layer::Mem, p->name());
    add(*shared_, sim::kStageSlave, Layer::Mem, "shared");
    add(*sems_, sim::kStageSlave, Layer::Mem, "sems");
    add(*ic_, sim::kStageInterconnect, ic_layer, "ic");
}

void TracedPlatform::add(sim::Clocked& component, int stage, Layer layer,
                         std::string name) {
    probes_.push_back(std::make_unique<Probe>(
        component, tally_[static_cast<std::size_t>(layer)]));
    kernel_.add(*probes_.back(), stage, std::move(name));
}

void TracedPlatform::apply_images(const apps::Workload& w) {
    for (u32 i = 0; i < w.cores.size() && i < cfg_.n_cores; ++i) {
        for (const apps::Segment& seg : w.cores[i].data) {
            mem::MemorySlave* target = nullptr;
            for (auto& pm : privs_)
                if (target == nullptr && pm->contains(seg.addr)) target = pm.get();
            if (target == nullptr && shared_->contains(seg.addr))
                target = shared_.get();
            if (target == nullptr)
                throw std::invalid_argument{"TracedPlatform: segment outside memory"};
            target->load(seg.addr, seg.words);
        }
    }
    for (const apps::Segment& seg : w.shared_init)
        shared_->load(seg.addr, seg.words);
}

void TracedPlatform::load_tg_binaries(const std::vector<tg::AssembledTg>& binaries,
                                      const apps::Workload& context) {
    if (binaries.size() != cfg_.n_cores)
        throw std::invalid_argument{"TracedPlatform: TG program count mismatch"};
    apply_images(context);
    for (u32 i = 0; i < cfg_.n_cores; ++i) {
        tgs_.push_back(std::make_unique<tg::TgCore>(master_ch_[i]));
        tgs_.back()->load(binaries[i].image);
        for (const auto& [reg, value] : binaries[i].reg_init)
            tgs_.back()->preset_reg(reg, value);
        add(*tgs_.back(), sim::kStageMaster, Layer::Master, "tg" + std::to_string(i));
    }
}

void TracedPlatform::load_stochastic(const std::vector<tg::StochasticConfig>& configs,
                                     const apps::Workload& context,
                                     const tg::SourceConfig& source) {
    if (configs.size() != cfg_.n_cores)
        throw std::invalid_argument{"TracedPlatform: stochastic config count mismatch"};
    apply_images(context);
    source_ = source;
    auto* mesh = dynamic_cast<ic::XpipesNetwork*>(ic_.get());
    if (source.open()) {
        if (mesh == nullptr)
            throw std::invalid_argument{"TracedPlatform: open sources need xpipes"};
        mesh->configure_open_source(source.max_outstanding, source.pending_limit);
    }
    for (u32 i = 0; i < cfg_.n_cores; ++i) {
        tg::StochasticConfig c = configs[i];
        c.open_loop = source.open();
        stochs_.push_back(
            std::make_unique<tg::StochasticTg>(master_ch_[i], std::move(c)));
        add(*stochs_.back(), sim::kStageMaster, Layer::Master, "stg" + std::to_string(i));
    }
    if (mesh != nullptr && cfg_.xpipes.collect_latency) {
        u64 budget = 0;
        for (const tg::StochasticConfig& c : configs)
            budget += c.total_transactions * 2;
        mesh->reserve_latency(budget);
    }
}

bool TracedPlatform::all_done() const {
    for (const auto& t : tgs_)
        if (!t->done()) return false;
    for (const auto& s : stochs_)
        if (!s->done()) return false;
    const bool xpipes = cfg_.ic == platform::IcKind::Xpipes;
    if (xpipes && cfg_.xpipes.fault.enabled() && ic_->quiet_for() == 0)
        return false;
    if (xpipes && source_.open() && ic_->quiet_for() == 0) return false;
    return true;
}

platform::RunResult TracedPlatform::run(Cycle max_cycles) {
    if (tgs_.empty() && stochs_.empty())
        throw std::logic_error{"TracedPlatform: no masters loaded"};
    const u64 t0 = now_ns();
    const bool completed = kernel_.run_until([this] { return all_done(); },
                                             max_cycles, cfg_.done_check_interval);
    platform::RunResult res;
    res.completed = completed;
    res.wall_seconds = seconds_since(t0);
    for (u32 i = 0; i < cfg_.n_cores; ++i) {
        Cycle hc = 0;
        if (!tgs_.empty()) {
            hc = tgs_[i]->halt_cycle();
            res.total_instructions += tgs_[i]->stats().instructions;
        } else {
            hc = stochs_[i]->halt_cycle();
            res.total_instructions += stochs_[i]->issued();
        }
        res.per_core.push_back(hc);
        res.cycles = std::max(res.cycles, hc);
    }
    if (source_.open()) {
        if (const auto* mesh = dynamic_cast<const ic::XpipesNetwork*>(ic_.get()))
            res.cycles = std::max(res.cycles, mesh->stats().last_delivery);
    }
    if (!completed) res.cycles = kernel_.now();
    return res;
}

u32 TracedPlatform::peek(u32 addr) const {
    for (const auto& pm : privs_)
        if (pm->contains(addr)) return pm->peek(addr);
    if (shared_->contains(addr)) return shared_->peek(addr);
    if (sems_->contains(addr)) return sems_->peek((addr - platform::kSemBase) / 4);
    throw std::out_of_range{"TracedPlatform::peek: undecoded address"};
}

bool TracedPlatform::run_checks(const apps::Workload& w, std::string* msg) const {
    for (const apps::Check& c : w.checks) {
        const u32 got = peek(c.addr);
        if (got != c.expect) {
            char buf[96];
            std::snprintf(buf, sizeof buf,
                          "check failed @0x%08X: got 0x%08X expect 0x%08X",
                          c.addr, got, c.expect);
            *msg = buf;
            return false;
        }
    }
    return true;
}

} // namespace tgsim::bench
