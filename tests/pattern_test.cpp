// Synthetic traffic patterns (src/tg/patterns.hpp): destination-function
// fixtures, config validation, rate->arrival mapping, and the sweep-level
// properties the CI bench enforces at scale — bit-identity of a pattern
// rate sweep at any --jobs and the presence of latency samples.
#include <gtest/gtest.h>

#include <cstdio>
#include <vector>

#include "platform/memory_map.hpp"
#include "sweep/sweep.hpp"
#include "tg/patterns.hpp"

namespace tgsim::tg {
namespace {

TEST(PatternDest, Transpose4x4) {
    // (x, y) -> (y, x): node id y*4+x -> x*4+y.
    EXPECT_EQ(pattern_dest(Pattern::Transpose, 0, 4, 4), 0u);   // (0,0) diag
    EXPECT_EQ(pattern_dest(Pattern::Transpose, 1, 4, 4), 4u);   // (1,0)->(0,1)
    EXPECT_EQ(pattern_dest(Pattern::Transpose, 9, 4, 4), 6u);   // (1,2)->(2,1)
    EXPECT_EQ(pattern_dest(Pattern::Transpose, 15, 4, 4), 15u); // (3,3) diag
}

TEST(PatternDest, BitComplement4x4) {
    // (x, y) -> (3-x, 3-y).
    EXPECT_EQ(pattern_dest(Pattern::BitComplement, 0, 4, 4), 15u);
    EXPECT_EQ(pattern_dest(Pattern::BitComplement, 15, 4, 4), 0u);
    EXPECT_EQ(pattern_dest(Pattern::BitComplement, 5, 4, 4), 10u); // (1,1)->(2,2)
}

TEST(PatternDest, Tornado4x4) {
    // ceil(4/2)-1 = 1 hop in each dimension: (x, y) -> (x+1 mod 4, y+1 mod 4).
    EXPECT_EQ(pattern_dest(Pattern::Tornado, 0, 4, 4), 5u);  // (0,0)->(1,1)
    EXPECT_EQ(pattern_dest(Pattern::Tornado, 15, 4, 4), 0u); // (3,3)->(0,0)
}

TEST(PatternDest, Neighbor) {
    EXPECT_EQ(pattern_dest(Pattern::Neighbor, 0, 4, 4), 1u);
    EXPECT_EQ(pattern_dest(Pattern::Neighbor, 3, 4, 4), 0u); // row wrap
    EXPECT_EQ(pattern_dest(Pattern::Neighbor, 7, 4, 4), 4u); // second row wrap
}

TEST(PatternDest, Shuffle16) {
    // Rotate-left of the 4-bit node id.
    EXPECT_EQ(pattern_dest(Pattern::Shuffle, 5, 4, 4), 10u); // 0101 -> 1010
    EXPECT_EQ(pattern_dest(Pattern::Shuffle, 9, 4, 4), 3u);  // 1001 -> 0011
    EXPECT_EQ(pattern_dest(Pattern::Shuffle, 0, 4, 4), 0u);
    EXPECT_EQ(pattern_dest(Pattern::Shuffle, 15, 4, 4), 15u);
}

TEST(PatternDest, ShuffleIsAPermutation) {
    std::vector<bool> hit(16, false);
    for (u32 s = 0; s < 16; ++s) {
        const u32 d = pattern_dest(Pattern::Shuffle, s, 4, 4);
        ASSERT_LT(d, 16u);
        EXPECT_FALSE(hit[d]);
        hit[d] = true;
    }
}

TEST(PatternValidate, RejectsBadConfigs) {
    PatternConfig cfg;
    cfg.width = 4;
    cfg.height = 3;
    cfg.pattern = Pattern::Transpose;
    EXPECT_THROW(validate(cfg), std::invalid_argument); // non-square

    cfg.pattern = Pattern::Shuffle;
    EXPECT_THROW(validate(cfg), std::invalid_argument); // 12 not a power of 2

    cfg.pattern = Pattern::Hotspot;
    cfg.hotspot_core = 12;
    EXPECT_THROW(validate(cfg), std::invalid_argument); // core out of range

    cfg.hotspot_core = 0;
    cfg.injection_rate = 0.0;
    EXPECT_THROW(validate(cfg), std::invalid_argument); // zero rate

    cfg.injection_rate = 0.1;
    EXPECT_NO_THROW(validate(cfg));
}

// A burst longer than the fabrics carry (ocp::kMaxBurstLen) would leave the
// master waiting for beats the NI never sends: refused up front, both by
// validate() and by the StochasticTg it configures.
TEST(PatternValidate, BurstLenWithinTheProtocolLimit) {
    PatternConfig cfg;
    StochasticConfig sc;
    sc.targets = {{0x1000, 0x100, 1}};
    ocp::Channel ch;
    for (const u16 len : {u16{0}, u16{65}}) {
        cfg.burst_len = len;
        sc.burst_len = len;
        EXPECT_THROW(validate(cfg), std::invalid_argument) << len;
        EXPECT_THROW((StochasticTg{ch, sc}), std::invalid_argument) << len;
    }
    cfg.burst_len = ocp::kMaxBurstLen;
    sc.burst_len = ocp::kMaxBurstLen;
    EXPECT_NO_THROW(validate(cfg));
    EXPECT_NO_THROW((StochasticTg{ch, sc}));
}

TEST(PatternTargets, UniformExcludesSelf) {
    PatternConfig cfg;
    cfg.pattern = Pattern::UniformRandom;
    cfg.width = 2;
    cfg.height = 2;
    const auto targets = pattern_targets(cfg, 1);
    ASSERT_EQ(targets.size(), 3u);
    for (const auto& t : targets) {
        EXPECT_NE(t.base, platform::priv_base(1) + platform::kPrivScratch);
        EXPECT_EQ(t.weight, 1u);
    }
}

TEST(PatternTargets, HotspotWeightMatchesFraction) {
    PatternConfig cfg;
    cfg.pattern = Pattern::Hotspot;
    cfg.width = 4;
    cfg.height = 4;
    cfg.hotspot_core = 3;
    cfg.hotspot_fraction = 0.5;
    // src 0: 14 unit-weight others, hotspot weight 14 -> exactly half.
    const auto targets = pattern_targets(cfg, 0);
    ASSERT_EQ(targets.size(), 15u);
    EXPECT_EQ(targets.front().base,
              platform::priv_base(3) + platform::kPrivScratch);
    EXPECT_EQ(targets.front().weight, 14u);
    // The hotspot core itself falls back to uniform traffic.
    const auto own = pattern_targets(cfg, 3);
    EXPECT_EQ(own.size(), 15u);
    for (const auto& t : own) EXPECT_EQ(t.weight, 1u);
}

TEST(PatternConfigs, RateMapsOntoArrivalProcess) {
    PatternConfig cfg;
    cfg.width = 2;
    cfg.height = 2;
    cfg.injection_rate = 0.05;

    cfg.process = ArrivalProcess::Poisson;
    auto cfgs = make_pattern_configs(cfg);
    ASSERT_EQ(cfgs.size(), 4u);
    EXPECT_DOUBLE_EQ(cfgs[0].rate, 0.05);
    EXPECT_EQ(cfgs[0].total_transactions, cfg.packets_per_core);

    cfg.process = ArrivalProcess::Uniform;
    cfgs = make_pattern_configs(cfg);
    // mean gap (1 + max)/2 = 1/0.05 = 20 -> max_gap 39.
    EXPECT_EQ(cfgs[0].min_gap, 1u);
    EXPECT_EQ(cfgs[0].max_gap, 39u);

    cfg.process = ArrivalProcess::Bursty;
    cfg.train_len = 8;
    cfg.intra_gap = 1;
    cfgs = make_pattern_configs(cfg);
    // 8 txns per train over ~8/0.05 = 160 cycles: inter_gap 160 - 7 = 153.
    EXPECT_EQ(cfgs[0].train_len, 8u);
    EXPECT_EQ(cfgs[0].inter_gap, 153u);
}

TEST(PatternDest, NonSquareGrids) {
    // 4x2: bit complement is (x, y) -> (3-x, 1-y).
    EXPECT_EQ(pattern_dest(Pattern::BitComplement, 0, 4, 2), 7u);
    EXPECT_EQ(pattern_dest(Pattern::BitComplement, 7, 4, 2), 0u);
    EXPECT_EQ(pattern_dest(Pattern::BitComplement, 1, 4, 2), 6u);
    // Tornado on 4x2 moves ceil(4/2)-1 = 1 east and ceil(2/2)-1 = 0 south.
    EXPECT_EQ(pattern_dest(Pattern::Tornado, 0, 4, 2), 1u);
    EXPECT_EQ(pattern_dest(Pattern::Tornado, 3, 4, 2), 0u); // (3,0)->(0,0)
    EXPECT_EQ(pattern_dest(Pattern::Tornado, 4, 4, 2), 5u); // (0,1)->(1,1)
    // 8x4: 3 east, 1 south.
    EXPECT_EQ(pattern_dest(Pattern::Tornado, 0, 8, 4), 11u); // (0,0)->(3,1)
    // Neighbor wraps within the row, whatever its length.
    EXPECT_EQ(pattern_dest(Pattern::Neighbor, 3, 4, 2), 0u);
    EXPECT_EQ(pattern_dest(Pattern::Neighbor, 7, 4, 2), 4u);
    // Shuffle on 8 cores (4x2): rotate-left of the 3-bit node id.
    EXPECT_EQ(pattern_dest(Pattern::Shuffle, 5, 4, 2), 3u); // 101 -> 011
    EXPECT_EQ(pattern_dest(Pattern::Shuffle, 4, 4, 2), 1u); // 100 -> 001
    EXPECT_EQ(pattern_dest(Pattern::Shuffle, 7, 4, 2), 7u);
}

TEST(PatternWeights, NonSquareDeterministicPatternsMatchDestFunction) {
    // pattern_dest_weights is the destination matrix both tiers consume
    // (docs/analytic.md): on every grid shape the deterministic patterns
    // must yield exactly one unit-weight entry that agrees with
    // pattern_dest, and uniform must fan out to everyone but self.
    for (const auto& [w, h] :
         {std::pair<u32, u32>{4, 2}, {8, 4}, {2, 4}, {3, 5}}) {
        PatternConfig cfg;
        cfg.width = w;
        cfg.height = h;
        for (const Pattern p : {Pattern::BitComplement, Pattern::Tornado,
                                Pattern::Neighbor}) {
            cfg.pattern = p;
            for (u32 src = 0; src < w * h; ++src) {
                const auto weights = pattern_dest_weights(cfg, src);
                ASSERT_EQ(weights.size(), 1u)
                    << w << "x" << h << " src " << src;
                EXPECT_EQ(weights[0].dest, pattern_dest(p, src, w, h));
                EXPECT_EQ(weights[0].weight, 1u);
                EXPECT_LT(weights[0].dest, w * h);
            }
        }
        cfg.pattern = Pattern::UniformRandom;
        for (u32 src = 0; src < w * h; ++src) {
            const auto weights = pattern_dest_weights(cfg, src);
            ASSERT_EQ(weights.size(), w * h - 1);
            for (const auto& dw : weights) {
                EXPECT_NE(dw.dest, src);
                EXPECT_EQ(dw.weight, 1u);
            }
        }
    }
}

TEST(PatternValidate, NonSquareGridConstraints) {
    PatternConfig cfg;
    cfg.width = 4;
    cfg.height = 2;
    cfg.pattern = Pattern::Transpose;
    EXPECT_THROW(validate(cfg), std::invalid_argument); // needs square
    cfg.pattern = Pattern::Shuffle; // 8 cores: power of two, fine
    EXPECT_NO_THROW(validate(cfg));
    cfg.pattern = Pattern::BitComplement;
    EXPECT_NO_THROW(validate(cfg));
    cfg.width = 3; // 6 cores
    cfg.pattern = Pattern::Shuffle;
    EXPECT_THROW(validate(cfg), std::invalid_argument); // not a power of two
    cfg.pattern = Pattern::Tornado;
    EXPECT_NO_THROW(validate(cfg));
}

TEST(PatternCompile, NonSquareGridsCompileEveryCore) {
    for (const auto& [w, h] : {std::pair<u32, u32>{4, 2}, {8, 4}}) {
        PatternConfig cfg;
        cfg.width = w;
        cfg.height = h;
        cfg.injection_rate = 0.05;
        cfg.pattern = Pattern::Tornado;
        const auto cfgs = make_pattern_configs(cfg);
        ASSERT_EQ(cfgs.size(), std::size_t{w} * h);
        for (u32 core = 0; core < w * h; ++core) {
            ASSERT_FALSE(cfgs[core].targets.empty());
            EXPECT_EQ(cfgs[core].total_transactions, cfg.packets_per_core);
            // The single deterministic target lands on the destination
            // core's private scratch window.
            const u32 dest = pattern_dest(Pattern::Tornado, core, w, h);
            EXPECT_EQ(cfgs[core].targets.front().base,
                      platform::priv_base(dest) + platform::kPrivScratch);
        }
        cfg.pattern = Pattern::Hotspot;
        cfg.hotspot_core = w * h - 1;
        cfg.hotspot_fraction = 0.25;
        const auto hot = make_pattern_configs(cfg);
        ASSERT_EQ(hot.size(), std::size_t{w} * h);
        for (u32 core = 0; core + 1 < w * h; ++core)
            EXPECT_EQ(hot[core].targets.front().base,
                      platform::priv_base(w * h - 1) + platform::kPrivScratch);
    }
}

/// End-to-end sweep properties on a 2x2 transpose grid: every worker count
/// produces bit-identical results (THE sweep invariant), latency samples
/// are collected, and the accepted rate never exceeds the offered rate.
TEST(PatternSweep, BitIdenticalAtAnyJobs) {
    PatternConfig pc;
    pc.pattern = Pattern::Transpose;
    pc.width = 2;
    pc.height = 2;
    pc.injection_rate = 0.02;
    pc.packets_per_core = 120;

    platform::PlatformConfig base;
    base.ic = platform::IcKind::Xpipes;
    base.xpipes.width = 2;
    base.xpipes.height = 3; // 4 cores + shared + sems

    apps::Workload context;
    context.name = "transpose2x2";
    const sweep::SweepDriver driver{pc, context};
    const auto candidates =
        sweep::make_rate_sweep(base, {0.02, 0.08, 0.30});

    sweep::SweepOptions opts;
    opts.jobs = 1;
    const auto baseline = driver.run(candidates, opts);
    ASSERT_EQ(baseline.size(), 3u);
    for (const auto& r : baseline) {
        ASSERT_TRUE(r.ok()) << r.error;
        EXPECT_TRUE(r.has_latency);
        EXPECT_GT(r.lat_count, 0u);
        EXPECT_EQ(r.packets, 4u * 120u); // every offered packet delivered
        EXPECT_LE(r.accepted_rate, r.offered_rate * 1.10 + 1e-6);
        EXPECT_GT(r.lat_mean, 0.0);
        EXPECT_LE(r.lat_p50, r.lat_p99);
        EXPECT_LE(r.lat_p99, r.lat_max);
    }
    // Rate points differ (the sweep is actually sweeping).
    EXPECT_NE(baseline[0].cycles, baseline[2].cycles);

    for (const u32 jobs : {2u, 3u}) {
        opts.jobs = jobs;
        const auto results = driver.run(candidates, opts);
        ASSERT_EQ(results.size(), baseline.size());
        for (std::size_t i = 0; i < results.size(); ++i)
            EXPECT_TRUE(sweep::bit_identical(results[i], baseline[i]))
                << "candidate " << i << " diverged at jobs=" << jobs;
    }
}

/// The latency path is purely observational: the same pattern run with and
/// without sample collection completes in the same number of cycles.
TEST(PatternSweep, LatencyCollectionIsObservational) {
    PatternConfig pc;
    pc.pattern = Pattern::Neighbor;
    pc.width = 2;
    pc.height = 2;
    pc.injection_rate = 0.05;
    pc.packets_per_core = 80;

    platform::PlatformConfig base;
    base.ic = platform::IcKind::Xpipes;
    base.xpipes.width = 2;
    base.xpipes.height = 3;

    apps::Workload context;
    const sweep::SweepDriver driver{pc, context};

    sweep::Candidate with;
    with.name = "with";
    with.cfg = base;
    with.cfg.xpipes.collect_latency = true;
    with.source.rate = 0.05;
    sweep::Candidate without = with;
    without.name = "without";
    without.cfg.xpipes.collect_latency = false;

    sweep::SweepOptions opts;
    opts.jobs = 1;
    // Same candidate index on separate runs: derive_seed depends on the
    // index, so two sweeps of one candidate each are seed-identical.
    const auto a = driver.run({with}, opts);
    const auto b = driver.run({without}, opts);
    ASSERT_TRUE(a[0].ok()) << a[0].error;
    ASSERT_TRUE(b[0].ok()) << b[0].error;
    EXPECT_TRUE(a[0].has_latency);
    EXPECT_FALSE(b[0].has_latency);
    EXPECT_EQ(a[0].cycles, b[0].cycles);
    EXPECT_EQ(a[0].per_core, b[0].per_core);
    EXPECT_EQ(a[0].busy_cycles, b[0].busy_cycles);
}

TEST(Saturation, DetectsLatencyBlowupAndKnee) {
    std::vector<sweep::SweepResult> curve(4);
    for (u32 i = 0; i < curve.size(); ++i) {
        curve[i].has_latency = true;
        curve[i].lat_count = 100;
    }
    curve[0].offered_rate = 0.01; curve[0].accepted_rate = 0.01;
    curve[0].lat_mean = 20.0;
    curve[1].offered_rate = 0.05; curve[1].accepted_rate = 0.05;
    curve[1].lat_mean = 25.0;
    curve[2].offered_rate = 0.10; curve[2].accepted_rate = 0.09;
    curve[2].lat_mean = 40.0;
    curve[3].offered_rate = 0.20; curve[3].accepted_rate = 0.095;
    curve[3].lat_mean = 90.0; // >= 3x zero-load: saturated

    const auto sat = sweep::find_saturation(curve);
    EXPECT_TRUE(sat.found);
    EXPECT_EQ(sat.index, 3u);
    EXPECT_DOUBLE_EQ(sat.offered, 0.20);
    EXPECT_DOUBLE_EQ(sat.throughput, 0.095); // best accepted up to the knee
}

TEST(Saturation, ReportsBestPointWhenUnsaturated) {
    std::vector<sweep::SweepResult> curve(2);
    for (auto& r : curve) {
        r.has_latency = true;
        r.lat_count = 10;
    }
    curve[0].offered_rate = 0.01; curve[0].accepted_rate = 0.01;
    curve[0].lat_mean = 20.0;
    curve[1].offered_rate = 0.02; curve[1].accepted_rate = 0.02;
    curve[1].lat_mean = 22.0;
    const auto sat = sweep::find_saturation(curve);
    EXPECT_FALSE(sat.found);
    EXPECT_EQ(sat.index, 1u);
    EXPECT_DOUBLE_EQ(sat.throughput, 0.02);
}

TEST(RateSweepGrid, NamesAndFlags) {
    platform::PlatformConfig base;
    base.ic = platform::IcKind::Xpipes;
    const auto cands = sweep::make_rate_sweep(base, {0.01, 0.25});
    ASSERT_EQ(cands.size(), 2u);
    EXPECT_EQ(cands[0].name, "rate=0.0100");
    EXPECT_EQ(cands[1].name, "rate=0.2500");
    EXPECT_TRUE(cands[0].cfg.xpipes.collect_latency);
    EXPECT_DOUBLE_EQ(cands[1].source.rate, 0.25);

    // Every name is printf's "rate=%.4f": the benchmark's 500-rate ladder,
    // the top of the range and two values that round at the fourth place.
    std::vector<double> rates;
    for (u32 i = 0; i < 500; ++i) rates.push_back(0.005 + (0.8 - 0.005) * i / 499);
    for (const double r : {1.0, 0.00005, 0.00015}) rates.push_back(r);
    const auto ladder = sweep::make_rate_sweep(base, rates);
    ASSERT_EQ(ladder.size(), rates.size());
    for (std::size_t i = 0; i < rates.size(); ++i) {
        char want[64];
        std::snprintf(want, sizeof want, "rate=%.4f", rates[i]);
        EXPECT_EQ(ladder[i].name, want) << rates[i];
    }
}

} // namespace
} // namespace tgsim::tg
