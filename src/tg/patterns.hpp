// Synthetic traffic patterns — the classic NoC evaluation workloads.
//
// A pattern maps each source core's position in a logical width × height
// grid to a destination core (or a weighted set of destinations), giving the
// *spatial* axis of the standard load–latency methodology; the *temporal*
// axis (when transactions are offered) reuses StochasticTg's arrival
// processes, parameterised here by a single offered injection rate in
// transactions per core per cycle. make_pattern_configs() compiles a
// PatternConfig down to one StochasticConfig per core, so patterns run on
// every fabric and ride the sweep driver unchanged (docs/traffic.md).
//
// Destination functions (src at grid coordinates (x, y), grid w × h,
// N = w*h cores, node id = y*w + x):
//
//   uniform_random    every core except src, equal weight
//   bit_complement    (w-1-x, h-1-y)           — full-diameter crossing
//   transpose         (y, x)                   — requires w == h
//   shuffle           rotate-left of the node id's bits — requires N = 2^k
//   tornado           ((x + ceil(w/2) - 1) mod w, (y + ceil(h/2) - 1) mod h)
//   neighbor          ((x+1) mod w, y)         — nearest-neighbor ring
//   hotspot           hotspot_fraction of traffic to hotspot_core, the
//                     rest uniform over the other cores
//
// Traffic addresses the destination core's private memory window (the
// platform co-locates core i's private memory with core i, so destination
// core == destination mesh node when the physical mesh is laid out
// row-major with width w — see tgsim_sweep --grid in docs/traffic.md).
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "tg/source.hpp"
#include "tg/stochastic.hpp"

namespace tgsim::tg {

enum class Pattern : u8 {
    UniformRandom,
    BitComplement,
    Transpose,
    Shuffle,
    Tornado,
    Neighbor,
    Hotspot,
};

[[nodiscard]] std::string_view to_string(Pattern p) noexcept;
/// Accepts the canonical names above (plus "uniform" and
/// "nearest_neighbor" aliases); nullopt for anything else.
[[nodiscard]] std::optional<Pattern> parse_pattern(const std::string& name);

struct PatternConfig {
    Pattern pattern = Pattern::UniformRandom;
    /// Logical core grid; n_cores = width * height.
    u32 width = 4;
    u32 height = 4;
    /// Offered injection rate, transactions per core per cycle, in (0, 1].
    /// Mapped onto the arrival process so the mean inter-arrival gap is
    /// 1/rate cycles (the generator is closed-loop: past saturation the
    /// accepted rate plateaus below the offered rate — that plateau is the
    /// saturation throughput, docs/traffic.md).
    double injection_rate = 0.01;
    ArrivalProcess process = ArrivalProcess::Poisson;
    double read_fraction = 0.5;
    double burst_fraction = 0.0; ///< fraction of transactions that burst
    u16 burst_len = 4; ///< beats per burst, in [1, ocp::kMaxBurstLen]
    u64 packets_per_core = 2000; ///< halt after this many transactions
    /// Bursty process shape (mean rate still honours injection_rate).
    u32 train_len = 8;
    u32 intra_gap = 1;
    /// Hotspot pattern only.
    u32 hotspot_core = 0;
    double hotspot_fraction = 0.5; ///< share of traffic aimed at the hotspot
    /// Addressed span inside each destination core's private window
    /// (starting at the scratch offset, clear of code and workload data).
    u32 target_span = 0x1000;
};

/// Destination core for the deterministic patterns (everything except
/// UniformRandom/Hotspot, which are weighted draws). Requires src < w*h and
/// the pattern's grid constraints (see validate()).
[[nodiscard]] u32 pattern_dest(Pattern p, u32 src, u32 w, u32 h) noexcept;

/// Throws std::invalid_argument when the config violates a pattern
/// constraint: empty grid, transpose on a non-square grid, shuffle on a
/// non-power-of-two core count, hotspot_core out of range, a rate outside
/// (0, 1], or a zero packet budget.
void validate(const PatternConfig& cfg);

/// One (destination core, weight) entry of a source's fan-out.
struct DestWeight {
    u32 dest = 0;
    u32 weight = 1;
};

/// Weighted destination-core set for core `src` (validate()d config): a
/// single entry for deterministic patterns, the weighted fan-out for
/// UniformRandom/Hotspot. Self-traffic only occurs where the pattern
/// demands it (e.g. the transpose diagonal). This is the pattern's spatial
/// destination matrix — pattern_targets() maps it to addresses for the
/// stochastic generators, and analytic::Evaluator consumes it directly, so
/// the two tiers cannot drift apart.
[[nodiscard]] std::vector<DestWeight> pattern_dest_weights(
    const PatternConfig& cfg, u32 src);

/// Weighted destination set for core `src` (validate()d config), as
/// address-range targets over each destination core's private scratch
/// window (pattern_dest_weights mapped through core_target).
[[nodiscard]] std::vector<StochasticTarget> pattern_targets(
    const PatternConfig& cfg, u32 src);

/// Compiles the pattern into one StochasticConfig per core (index = core =
/// logical node id). Seeds are left at the default — sweep workers reseed
/// per candidate via sweep::derive_seed, keeping results bit-identical at
/// any worker count.
[[nodiscard]] std::vector<StochasticConfig> make_pattern_configs(
    const PatternConfig& cfg);

/// Out-parameter form for hot sweep loops: refills `out` in place, reusing
/// its capacity (and each element's targets storage) across calls instead
/// of reallocating one config vector per candidate.
void make_pattern_configs(const PatternConfig& cfg,
                          std::vector<StochasticConfig>& out);

/// The offered rate of `cfg` under `source`: a nonzero source.rate
/// overrides cfg.injection_rate (the sweep's offered-rate axis lives on the
/// source, not on per-pattern copies). The one place the fallback lives;
/// compile_patterns, the sweep's offered_rate column and the analytic tier
/// all read it.
[[nodiscard]] inline double offered_rate(const PatternConfig& cfg,
                                         const SourceConfig& source) noexcept {
    return source.rate > 0.0 ? source.rate : cfg.injection_rate;
}

/// The tg::SourceConfig surface (docs/traffic.md): compiles the pattern
/// like make_pattern_configs at offered_rate(cfg, source), and
/// SourceMode::Open marks every per-core config open-loop. With a
/// default-constructed source this is exactly make_pattern_configs.
void compile_patterns(const PatternConfig& cfg, const SourceConfig& source,
                      std::vector<StochasticConfig>& out);

[[nodiscard]] std::vector<StochasticConfig> compile_patterns(
    const PatternConfig& cfg, const SourceConfig& source);

} // namespace tgsim::tg
