#include "tg/stochastic.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace tgsim::tg {

StochasticTg::StochasticTg(ocp::ChannelRef channel, StochasticConfig cfg)
    : port_(channel), cfg_(std::move(cfg)), rng_(cfg_.seed) {
    if (cfg_.targets.empty())
        throw std::invalid_argument{"StochasticTg: no targets"};
    if (cfg_.burst_len < 1 || cfg_.burst_len > ocp::kMaxBurstLen)
        throw std::invalid_argument{"StochasticTg: burst_len must be in [1, " +
                                    std::to_string(ocp::kMaxBurstLen) + "]"};
    for (const auto& t : cfg_.targets) total_weight_ += std::max<u32>(1, t.weight);
    gap_left_ = std::max<u64>(1, draw_gap());
    if (cfg_.total_transactions == 0) state_ = State::Halted;
}

u64 StochasticTg::draw_gap() {
    switch (cfg_.process) {
        case ArrivalProcess::Uniform:
            return rng_.range(cfg_.min_gap, std::max(cfg_.min_gap, cfg_.max_gap));
        case ArrivalProcess::Poisson: {
            const double p = std::clamp(cfg_.rate, 1e-6, 1.0);
            return 1 + rng_.geometric(p);
        }
        case ArrivalProcess::Bursty:
            if (train_left_ > 0) {
                --train_left_;
                return cfg_.intra_gap;
            }
            train_left_ = cfg_.train_len > 0 ? cfg_.train_len - 1 : 0;
            return cfg_.inter_gap;
    }
    return 1;
}

u32 StochasticTg::draw_addr() {
    u32 pick = static_cast<u32>(rng_.below(total_weight_));
    for (const auto& t : cfg_.targets) {
        const u32 w = std::max<u32>(1, t.weight);
        if (pick < w) {
            const u32 words = std::max<u32>(1, t.size / 4u);
            return t.base + 4u * static_cast<u32>(rng_.below(words));
        }
        pick -= w;
    }
    return cfg_.targets.front().base;
}

void StochasticTg::update() {
    ++cycle_;
    switch (state_) {
        case State::Halted:
            break;
        case State::Gap:
            if (--gap_left_ == 0) state_ = State::Issue;
            break;
        case State::Issue: {
            const bool read = rng_.chance(cfg_.read_fraction);
            const bool burst = rng_.chance(cfg_.burst_fraction);
            const ocp::Cmd cmd = read ? (burst ? ocp::Cmd::BurstRead : ocp::Cmd::Read)
                                      : (burst ? ocp::Cmd::BurstWrite : ocp::Cmd::Write);
            const u32 addr = draw_addr();
            // Write beat k carries data + k: distinguishable beat values.
            const auto data = static_cast<u32>(rng_.next());
            port_.issue(cmd, addr, burst ? cfg_.burst_len : u16{1}, data);
            ++issued_;
            state_ = State::MemWait;
            break;
        }
        case State::MemWait: {
            // Open loop: a read completes once the fabric owns the command;
            // the NI absorbs the response beats, so the next gap starts
            // without waiting for them.
            const bool done = port_.sample().done;
            if (!done && !(cfg_.open_loop && port_.accepted())) break;
            port_.release();
            if (issued_ >= cfg_.total_transactions) {
                state_ = State::Halted;
                halt_cycle_ = cycle_;
            } else {
                gap_left_ = std::max<u64>(1, draw_gap());
                state_ = State::Gap;
            }
            break;
        }
    }
}

} // namespace tgsim::tg
