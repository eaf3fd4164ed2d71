// Stochastic traffic generator — the related-work baseline (paper Sec. 2,
// ref [6]: uniform / Poisson-like / bursty synthetic traffic).
//
// Generates random reads and writes over weighted address ranges with a
// configurable inter-arrival process. Used by the ablation benches to show
// quantitatively why distribution-based generators are "unreliable for
// optimizing NoC features": they reproduce average load but not the
// reactive, bursty structure of real core traffic.
//
// StochasticTg keeps only its arrival draws and the open-loop rule (a read
// is done once the fabric accepts its command); the OCP protocol is the
// shared ocp::MasterPort. The constructor refuses a burst_len outside
// [1, ocp::kMaxBurstLen], the longest burst the fabrics carry.
#pragma once

#include <vector>

#include "ocp/master_port.hpp"
#include "sim/kernel.hpp"
#include "sim/rng.hpp"

namespace tgsim::tg {

enum class ArrivalProcess : u8 {
    Uniform, ///< gap ~ U[min_gap, max_gap]
    Poisson, ///< gap ~ Geometric(rate): memoryless per-cycle arrivals
    Bursty,  ///< runs of back-to-back transactions separated by long gaps
};

struct StochasticTarget {
    u32 base = 0;
    u32 size = 4;
    u32 weight = 1;
};

struct StochasticConfig {
    u64 seed = 1;
    double read_fraction = 0.7;
    double burst_fraction = 0.0; ///< fraction of transactions that are bursts
    u16 burst_len = 4; ///< beats per burst, in [1, ocp::kMaxBurstLen]
    ArrivalProcess process = ArrivalProcess::Uniform;
    u32 min_gap = 1;
    u32 max_gap = 40;
    double rate = 0.05; ///< Poisson: expected arrivals per cycle
    u32 train_len = 8;  ///< Bursty: transactions per train
    u32 intra_gap = 1;  ///< Bursty: gap inside a train
    u32 inter_gap = 200; ///< Bursty: gap between trains
    std::vector<StochasticTarget> targets;
    u64 total_transactions = 1000; ///< halt after this many
    /// Open-loop source mode (tg::SourceConfig, docs/traffic.md): a
    /// transaction completes as soon as the fabric accepts its command, so
    /// the next inter-arrival gap starts immediately and the offered rate
    /// keeps arriving regardless of in-flight responses. The master NI
    /// buffers the resulting packets and absorbs read responses.
    bool open_loop = false;
};

class StochasticTg final : public sim::Clocked {
public:
    StochasticTg(ocp::ChannelRef channel, StochasticConfig cfg);

    void eval() override { port_.drive(); }
    void update() override;
    [[nodiscard]] Cycle quiet_for() const override {
        // Waiting on the fabric: woken by the port's s_gen watch.
        if (state_ == State::MemWait) return port_.waiting() ? sim::kQuietForever : 0;
        if (!port_.idle()) return 0;
        if (state_ == State::Halted) return sim::kQuietForever;
        if (state_ == State::Gap) return gap_left_ - 1;
        return 0;
    }
    void advance(Cycle cycles) override {
        cycle_ += cycles;
        if (state_ == State::Gap) gap_left_ -= cycles;
    }
    /// Only MemWait parks on an input: the port's slave side.
    void watch_inputs(std::vector<sim::WatchRange>& out) const override {
        port_.watch_slave(out);
    }

    [[nodiscard]] bool done() const noexcept { return state_ == State::Halted; }
    [[nodiscard]] Cycle halt_cycle() const noexcept { return halt_cycle_; }
    [[nodiscard]] u64 issued() const noexcept { return issued_; }

private:
    enum class State : u8 { Gap, Issue, MemWait, Halted };

    [[nodiscard]] u64 draw_gap();
    [[nodiscard]] u32 draw_addr();

    ocp::MasterPort port_;
    StochasticConfig cfg_;
    sim::Rng rng_;
    u32 total_weight_ = 0;

    State state_ = State::Gap;
    u64 gap_left_ = 1;
    u32 train_left_ = 0;

    u64 issued_ = 0;
    Cycle cycle_ = 0;
    Cycle halt_cycle_ = 0;
};

} // namespace tgsim::tg
