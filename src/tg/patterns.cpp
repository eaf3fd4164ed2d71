#include "tg/patterns.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "platform/memory_map.hpp"

namespace tgsim::tg {

std::string_view to_string(Pattern p) noexcept {
    switch (p) {
        case Pattern::UniformRandom: return "uniform_random";
        case Pattern::BitComplement: return "bit_complement";
        case Pattern::Transpose: return "transpose";
        case Pattern::Shuffle: return "shuffle";
        case Pattern::Tornado: return "tornado";
        case Pattern::Neighbor: return "neighbor";
        case Pattern::Hotspot: return "hotspot";
    }
    return "?";
}

std::optional<Pattern> parse_pattern(const std::string& name) {
    if (name == "uniform_random" || name == "uniform")
        return Pattern::UniformRandom;
    if (name == "bit_complement") return Pattern::BitComplement;
    if (name == "transpose") return Pattern::Transpose;
    if (name == "shuffle") return Pattern::Shuffle;
    if (name == "tornado") return Pattern::Tornado;
    if (name == "neighbor" || name == "nearest_neighbor")
        return Pattern::Neighbor;
    if (name == "hotspot") return Pattern::Hotspot;
    return std::nullopt;
}

namespace {

[[nodiscard]] constexpr bool is_pow2(u32 v) noexcept {
    return v != 0 && (v & (v - 1)) == 0;
}

/// Position of the highest set bit of a power of two.
[[nodiscard]] constexpr u32 log2_pow2(u32 v) noexcept {
    u32 b = 0;
    while (v > 1) {
        v >>= 1;
        ++b;
    }
    return b;
}

/// Target covering the destination core's private scratch region.
[[nodiscard]] StochasticTarget core_target(u32 dest, u32 span, u32 weight) {
    StochasticTarget t;
    t.base = platform::priv_base(dest) + platform::kPrivScratch;
    t.size = span;
    t.weight = weight;
    return t;
}

} // namespace

u32 pattern_dest(Pattern p, u32 src, u32 w, u32 h) noexcept {
    const u32 x = src % w;
    const u32 y = src / w;
    switch (p) {
        case Pattern::BitComplement:
            return (h - 1 - y) * w + (w - 1 - x);
        case Pattern::Transpose:
            return x * w + y; // (x, y) -> (y, x) on a square grid
        case Pattern::Shuffle: {
            const u32 n = w * h;
            if (n == 1) return src;
            const u32 bits = log2_pow2(n);
            return ((src << 1) | (src >> (bits - 1))) & (n - 1);
        }
        case Pattern::Tornado: {
            const u32 dx = (x + (w + 1) / 2 - 1) % w;
            const u32 dy = (y + (h + 1) / 2 - 1) % h;
            return dy * w + dx;
        }
        case Pattern::Neighbor:
            return y * w + (x + 1) % w;
        case Pattern::UniformRandom:
        case Pattern::Hotspot:
            break; // weighted draws; no single destination
    }
    return src;
}

void validate(const PatternConfig& cfg) {
    if (cfg.width == 0 || cfg.height == 0)
        throw std::invalid_argument{"pattern: empty core grid"};
    const u32 n = cfg.width * cfg.height;
    if (cfg.pattern == Pattern::Transpose && cfg.width != cfg.height)
        throw std::invalid_argument{"pattern: transpose needs a square grid"};
    if (cfg.pattern == Pattern::Shuffle && !is_pow2(n))
        throw std::invalid_argument{
            "pattern: shuffle needs a power-of-two core count"};
    if (cfg.pattern == Pattern::Hotspot && cfg.hotspot_core >= n)
        throw std::invalid_argument{"pattern: hotspot_core out of range"};
    if (cfg.pattern == Pattern::Hotspot &&
        (cfg.hotspot_fraction <= 0.0 || cfg.hotspot_fraction >= 1.0))
        throw std::invalid_argument{
            "pattern: hotspot_fraction must be in (0, 1)"};
    if (!(cfg.injection_rate > 0.0) || cfg.injection_rate > 1.0)
        throw std::invalid_argument{
            "pattern: injection_rate must be in (0, 1]"};
    if (cfg.packets_per_core == 0)
        throw std::invalid_argument{"pattern: zero packet budget"};
    if (cfg.burst_len < 1 || cfg.burst_len > ocp::kMaxBurstLen)
        throw std::invalid_argument{"pattern: burst_len must be in [1, " +
                                    std::to_string(ocp::kMaxBurstLen) + "]"};
    if (cfg.target_span < 4)
        throw std::invalid_argument{"pattern: target_span below one word"};
}

std::vector<DestWeight> pattern_dest_weights(const PatternConfig& cfg,
                                             u32 src) {
    const u32 n = cfg.width * cfg.height;
    std::vector<DestWeight> out;
    switch (cfg.pattern) {
        case Pattern::UniformRandom:
            for (u32 d = 0; d < n; ++d)
                if (d != src) out.push_back({d, 1});
            if (out.empty()) // single-core grid: nowhere else to go
                out.push_back({src, 1});
            break;
        case Pattern::Hotspot: {
            // hotspot weight H over `others` unit weights so that
            // H / (H + others) ~ hotspot_fraction.
            u32 others = 0;
            for (u32 d = 0; d < n; ++d)
                if (d != src && d != cfg.hotspot_core) ++others;
            if (src == cfg.hotspot_core || others == 0) {
                // The hotspot itself (or a tiny grid) sends uniform traffic.
                for (u32 d = 0; d < n; ++d)
                    if (d != src) out.push_back({d, 1});
                if (out.empty()) out.push_back({src, 1});
                break;
            }
            const double f = cfg.hotspot_fraction;
            const u32 hot = std::max<u32>(
                1, static_cast<u32>(std::lround(f / (1.0 - f) * others)));
            out.push_back({cfg.hotspot_core, hot});
            for (u32 d = 0; d < n; ++d)
                if (d != src && d != cfg.hotspot_core) out.push_back({d, 1});
            break;
        }
        default:
            out.push_back(
                {pattern_dest(cfg.pattern, src, cfg.width, cfg.height), 1});
            break;
    }
    return out;
}

std::vector<StochasticTarget> pattern_targets(const PatternConfig& cfg,
                                              u32 src) {
    std::vector<StochasticTarget> out;
    for (const DestWeight& dw : pattern_dest_weights(cfg, src))
        out.push_back(core_target(dw.dest, cfg.target_span, dw.weight));
    return out;
}

std::vector<StochasticConfig> make_pattern_configs(const PatternConfig& cfg) {
    std::vector<StochasticConfig> out;
    make_pattern_configs(cfg, out);
    return out;
}

void make_pattern_configs(const PatternConfig& cfg,
                          std::vector<StochasticConfig>& out) {
    validate(cfg);
    const u32 n = cfg.width * cfg.height;
    const double rate = cfg.injection_rate;

    StochasticConfig base;
    base.read_fraction = cfg.read_fraction;
    base.burst_fraction = cfg.burst_fraction;
    base.burst_len = cfg.burst_len;
    base.process = cfg.process;
    base.total_transactions = cfg.packets_per_core;
    switch (cfg.process) {
        case ArrivalProcess::Poisson:
            // StochasticTg draws gap = 1 + Geometric(p), mean 1/p.
            base.rate = rate;
            break;
        case ArrivalProcess::Uniform:
            // gap ~ U[1, max]: mean (1 + max) / 2 = 1/rate.
            base.min_gap = 1;
            base.max_gap = std::max<u32>(
                1, static_cast<u32>(std::lround(2.0 / rate)) - 1);
            break;
        case ArrivalProcess::Bursty: {
            // train_len transactions per train, one inter_gap plus
            // (train_len - 1) intra_gaps per train period.
            base.train_len = std::max<u32>(1, cfg.train_len);
            base.intra_gap = std::max<u32>(1, cfg.intra_gap);
            const double period = static_cast<double>(base.train_len) / rate;
            const double intra =
                static_cast<double>(base.train_len - 1) *
                static_cast<double>(base.intra_gap);
            base.inter_gap = std::max<u32>(
                1, static_cast<u32>(std::lround(period - intra)));
            break;
        }
    }

    out.resize(n);
    for (u32 core = 0; core < n; ++core) {
        // Keep the element's existing targets storage alive across the
        // overwrite so a sweep worker's scratch vector stops allocating
        // once it has seen its largest fan-out.
        std::vector<StochasticTarget> targets = std::move(out[core].targets);
        targets.clear();
        for (const DestWeight& dw : pattern_dest_weights(cfg, core))
            targets.push_back(core_target(dw.dest, cfg.target_span, dw.weight));
        out[core] = base;
        out[core].targets = std::move(targets);
    }
}

void compile_patterns(const PatternConfig& cfg, const SourceConfig& source,
                      std::vector<StochasticConfig>& out) {
    PatternConfig effective = cfg;
    effective.injection_rate = offered_rate(cfg, source);
    make_pattern_configs(effective, out);
    if (source.open())
        for (StochasticConfig& c : out) c.open_loop = true;
}

std::vector<StochasticConfig> compile_patterns(const PatternConfig& cfg,
                                               const SourceConfig& source) {
    std::vector<StochasticConfig> out;
    compile_patterns(cfg, source, out);
    return out;
}

} // namespace tgsim::tg
