// Tests for the traffic-source construction surface (src/tg/source.hpp)
// and the open-loop injection mode behind it (docs/traffic.md): the
// per-packet latency decomposition invariant, a closed-mode run that
// leaves the open-loop series empty, open-loop sweep bit-identity at
// any worker count, the open-loop saturation triggers, and the JSON
// round-trip of the open result block.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ic/xpipes/xpipes.hpp"
#include "platform/platform.hpp"
#include "sweep/shard.hpp"
#include "sweep/sweep.hpp"
#include "test_util.hpp"
#include "tg/patterns.hpp"
#include "tg/source.hpp"

namespace tgsim {
namespace {

TEST(SourceConfig, ModeNamesRoundTrip) {
    EXPECT_EQ(tg::to_string(tg::SourceMode::Closed), "closed");
    EXPECT_EQ(tg::to_string(tg::SourceMode::Open), "open");
    EXPECT_EQ(tg::parse_source_mode("open"), tg::SourceMode::Open);
    EXPECT_EQ(tg::parse_source_mode("closed"), tg::SourceMode::Closed);
    EXPECT_FALSE(tg::parse_source_mode("ajar").has_value());
}

/// Builds a small open-loop platform, runs it, and returns the xpipes
/// stats. The fixture every decomposition test reads.
struct OpenRun {
    platform::RunResult res;
    ic::XpipesStats stats;
};

OpenRun run_open(double rate, u32 pending_limit, u32 max_outstanding) {
    // 3x3 uniform random: enough flows to congest the mesh at high offered
    // rates (a 2x2 would drain as fast as the generators can issue).
    tg::PatternConfig pc;
    pc.pattern = tg::Pattern::UniformRandom;
    pc.width = 3;
    pc.height = 3;
    pc.injection_rate = rate;
    pc.packets_per_core = 150;

    tg::SourceConfig src;
    src.mode = tg::SourceMode::Open;
    src.pending_limit = pending_limit;
    src.max_outstanding = max_outstanding;

    platform::PlatformConfig cfg;
    cfg.n_cores = 9;
    cfg.ic = platform::IcKind::Xpipes;
    cfg.xpipes.width = 3;
    cfg.xpipes.height = 4; // 9 cores + shared + sems
    cfg.xpipes.collect_latency = true;

    apps::Workload context;
    context.cores.resize(9);

    platform::Platform p{cfg};
    p.load_stochastic(tg::compile_patterns(pc, src), context, src);
    OpenRun out;
    out.res = p.run(2'000'000);
    const auto* net =
        dynamic_cast<const ic::XpipesNetwork*>(&p.interconnect());
    EXPECT_NE(net, nullptr);
    out.stats = net->stats();
    return out;
}

/// THE decomposition invariant: the two open-loop series are recorded in
/// lock-step with the end-to-end series, and for every delivered packet
/// source-queueing plus in-network latency equals end-to-end latency
/// exactly (all u64 cycles, no rounding).
TEST(OpenLoop, LatencySplitSumsExactlyPerPacket) {
    for (const double rate : {0.02, 1.0}) { // pre- and post-knee
        const OpenRun run = run_open(rate, 16, 0);
        ASSERT_TRUE(run.res.completed);
        const auto& e2e = run.stats.packet_latency.samples();
        const auto& net = run.stats.net_latency.samples();
        const auto& sq = run.stats.source_q_latency.samples();
        ASSERT_GT(e2e.size(), 0u);
        ASSERT_EQ(net.size(), e2e.size());
        ASSERT_EQ(sq.size(), e2e.size());
        for (std::size_t i = 0; i < e2e.size(); ++i)
            ASSERT_EQ(sq[i] + net[i], e2e[i]) << "packet " << i;
    }
}

TEST(OpenLoop, PostKneeQueueingLandsInSourceQueueSeries) {
    // Past the knee the pending queue fills: the source-queue share must be
    // nonzero and the peak must reach the configured bound.
    const OpenRun hot = run_open(1.0, 16, 0);
    ASSERT_TRUE(hot.res.completed);
    EXPECT_EQ(hot.stats.pending_peak, 16u);
    EXPECT_GT(hot.stats.source_q_latency.summary().mean, 0.0);
    // At trickle load the pending queue never builds: zero source-queueing.
    const OpenRun cold = run_open(0.005, 16, 0);
    ASSERT_TRUE(cold.res.completed);
    EXPECT_EQ(cold.stats.source_q_latency.summary().max, 0u);
}

TEST(OpenLoop, MaxOutstandingBoundsInFlightReads) {
    // A tight read bound throttles injection: the bounded run cannot beat
    // the unbounded one, and both keep the decomposition exact (covered by
    // the property above; here we check the bound actually bites).
    const OpenRun unbounded = run_open(1.0, 16, 0);
    const OpenRun bounded = run_open(1.0, 16, 1);
    ASSERT_TRUE(unbounded.res.completed);
    ASSERT_TRUE(bounded.res.completed);
    EXPECT_GT(bounded.res.cycles, unbounded.res.cycles);
}

/// load_stochastic without a source config runs closed loop: the run
/// completes and leaves the open-loop instrumentation empty.
TEST(ClosedLoop, SourceOverloadReproducesLegacyPathBitForBit) {
    tg::PatternConfig pc;
    pc.pattern = tg::Pattern::Neighbor;
    pc.width = 2;
    pc.height = 2;
    pc.injection_rate = 0.05;
    pc.packets_per_core = 120;

    platform::PlatformConfig cfg;
    cfg.n_cores = 4;
    cfg.ic = platform::IcKind::Xpipes;
    cfg.xpipes.width = 2;
    cfg.xpipes.height = 3;
    cfg.xpipes.collect_latency = true;

    apps::Workload context;
    context.cores.resize(4);

    platform::Platform p{cfg};
    p.load_stochastic(tg::make_pattern_configs(pc), context);
    ASSERT_TRUE(p.run(2'000'000).completed);
    const auto* net = dynamic_cast<const ic::XpipesNetwork*>(&p.interconnect());
    ASSERT_NE(net, nullptr);
    const ic::XpipesStats& stats = net->stats();
    EXPECT_EQ(stats.net_latency.summary().count, 0u);
    EXPECT_EQ(stats.source_q_latency.summary().count, 0u);
    EXPECT_EQ(stats.pending_peak, 0u);
}

TEST(OpenLoop, RejectsNonXpipesFabricAndFaultInjection) {
    apps::Workload context;
    context.cores.resize(2);
    tg::PatternConfig pc;
    pc.pattern = tg::Pattern::Neighbor;
    pc.width = 2;
    pc.height = 1;
    pc.injection_rate = 0.05;
    tg::SourceConfig open;
    open.mode = tg::SourceMode::Open;
    const auto configs = tg::compile_patterns(pc, open);

    platform::PlatformConfig amba;
    amba.n_cores = 2;
    amba.ic = platform::IcKind::Amba;
    platform::Platform p{amba};
    EXPECT_THROW(p.load_stochastic(configs, context, open),
                 std::invalid_argument);

    platform::PlatformConfig faulted;
    faulted.n_cores = 2;
    faulted.ic = platform::IcKind::Xpipes;
    faulted.xpipes.width = 2;
    faulted.xpipes.height = 2;
    faulted.xpipes.fault.drop_rate = 0.01;
    platform::Platform q{faulted};
    EXPECT_THROW(q.load_stochastic(configs, context, open),
                 std::invalid_argument);
}

/// Open-loop sweeps hold THE sweep invariant: bit-identical results at any
/// worker count, with the open result block populated on every row.
TEST(OpenSweep, BitIdenticalAtAnyJobs) {
    tg::PatternConfig pc;
    pc.pattern = tg::Pattern::UniformRandom;
    pc.width = 3;
    pc.height = 3;
    pc.injection_rate = 0.02;
    pc.packets_per_core = 120;

    platform::PlatformConfig base;
    base.ic = platform::IcKind::Xpipes;
    base.xpipes.width = 3;
    base.xpipes.height = 4;

    tg::SourceConfig src;
    src.mode = tg::SourceMode::Open;
    src.pending_limit = 16;

    apps::Workload context;
    context.name = "open3x3";
    const sweep::SweepDriver driver{pc, context};
    const auto candidates =
        sweep::make_rate_sweep(base, {0.02, 0.10, 1.0}, src);

    sweep::SweepOptions opts;
    opts.jobs = 1;
    const auto baseline = driver.run(candidates, opts);
    ASSERT_EQ(baseline.size(), 3u);
    for (const auto& r : baseline) {
        ASSERT_TRUE(r.ok()) << r.error;
        ASSERT_TRUE(r.has_open);
        EXPECT_EQ(r.pending_limit, 16u);
        EXPECT_EQ(r.net_lat_count, r.lat_count);
        EXPECT_EQ(r.sq_lat_count, r.lat_count);
        EXPECT_LE(r.accepted_rate, r.offered_rate * 1.10 + 1e-6);
        // Aggregate form of the per-packet decomposition.
        EXPECT_NEAR(r.sq_lat_mean + r.net_lat_mean, r.lat_mean, 1e-9);
    }
    // The knee point actually backpressured the source.
    EXPECT_EQ(baseline[2].pending_peak, 16u);
    EXPECT_GT(baseline[2].sq_lat_mean, baseline[0].sq_lat_mean);

    for (const u32 jobs : {2u, 3u}) {
        opts.jobs = jobs;
        const auto results = driver.run(candidates, opts);
        ASSERT_EQ(results.size(), baseline.size());
        for (std::size_t i = 0; i < results.size(); ++i)
            EXPECT_TRUE(sweep::bit_identical(results[i], baseline[i]))
                << "candidate " << i << " diverged at jobs=" << jobs;
    }
}

namespace {

/// An open-loop rate point as a sweep would produce it.
sweep::SweepResult open_point(double offered, double accepted,
                              double net_lat_mean, u64 pending_peak,
                              u64 pending_limit = 64) {
    sweep::SweepResult r;
    r.completed = true;
    r.checks_ok = true;
    r.has_latency = true;
    r.offered_rate = offered;
    r.accepted_rate = accepted;
    r.lat_count = 100;
    // End-to-end mean explodes with source queueing past the knee; the
    // open curve must be judged on the in-network series instead.
    r.lat_mean = net_lat_mean * 10.0;
    r.has_open = true;
    r.net_lat_count = 100;
    r.net_lat_mean = net_lat_mean;
    r.sq_lat_count = 100;
    r.pending_peak = pending_peak;
    r.pending_limit = pending_limit;
    return r;
}

} // namespace

TEST(OpenSaturation, PreKneeOnlyLadderReportsBestUnsaturated) {
    // Every point is below the knee: flat in-network latency, queues never
    // fill. No saturation — even though the end-to-end means (10x) would
    // trip the closed-loop 3x trigger if the curve were judged on them.
    const std::vector<sweep::SweepResult> rows = {
        open_point(0.01, 0.0099, 10.0, 2),
        open_point(0.02, 0.0198, 10.5, 3),
        open_point(0.04, 0.0395, 11.0, 5),
    };
    const auto sat = sweep::find_saturation(rows);
    EXPECT_FALSE(sat.found);
    EXPECT_EQ(sat.index, 2u);
    EXPECT_DOUBLE_EQ(sat.throughput, 0.0395);
}

TEST(OpenSaturation, ImmediatelySaturatedFirstPointIsTheKnee) {
    // A ladder that starts past the knee: the first point's pending queue
    // already hit its bound, so index 0 IS the saturation point even though
    // there is no earlier zero-load sample to compare latency against.
    const std::vector<sweep::SweepResult> rows = {
        open_point(0.50, 0.21, 40.0, 64),
        open_point(1.00, 0.22, 42.0, 64),
    };
    const auto sat = sweep::find_saturation(rows);
    EXPECT_TRUE(sat.found);
    EXPECT_EQ(sat.index, 0u);
    EXPECT_DOUBLE_EQ(sat.offered, 0.50);
    EXPECT_DOUBLE_EQ(sat.throughput, 0.21);
}

TEST(OpenSaturation, NonMonotoneAcceptedRateIsHandled) {
    // A dip in accepted throughput (legal noisy input) must not crash or
    // fake a knee; the best accepted rate wins.
    const std::vector<sweep::SweepResult> rows = {
        open_point(0.01, 0.0099, 10.0, 1),
        open_point(0.02, 0.0090, 10.4, 2), // dip
        open_point(0.04, 0.0395, 11.0, 4),
    };
    const auto sat = sweep::find_saturation(rows);
    EXPECT_FALSE(sat.found);
    EXPECT_DOUBLE_EQ(sat.throughput, 0.0395);
    EXPECT_EQ(sat.index, 2u);
}

TEST(OpenSaturation, PlateauTriggerIsRetiredForOpenRows) {
    // 4x the offered load buys no extra accepted throughput — on a CLOSED
    // curve that is the plateau trigger. An open source cannot load-shed,
    // so with flat in-network latency and unfilled queues these rows must
    // NOT be declared saturated (the real triggers would have fired).
    const std::vector<sweep::SweepResult> rows = {
        open_point(0.01, 0.0099, 10.0, 2),
        open_point(0.02, 0.0100, 10.2, 3),
        open_point(0.08, 0.0101, 10.4, 5),
    };
    EXPECT_FALSE(sweep::find_saturation(rows).found);

    // The same shape as closed-loop rows IS a plateau knee.
    std::vector<sweep::SweepResult> closed = rows;
    for (auto& r : closed) {
        r.has_open = false;
        r.lat_mean = r.net_lat_mean;
    }
    const auto sat = sweep::find_saturation(closed);
    EXPECT_TRUE(sat.found);
    EXPECT_EQ(sat.index, 1u); // plateau fires at the first flat step
}

TEST(OpenSaturation, InNetworkLatencyBlowupIsTheKnee) {
    const std::vector<sweep::SweepResult> rows = {
        open_point(0.01, 0.0099, 10.0, 2),
        open_point(0.04, 0.0390, 12.0, 6),
        open_point(0.16, 0.0900, 35.0, 20), // >= 3x zero-load in-network
    };
    const auto sat = sweep::find_saturation(rows);
    EXPECT_TRUE(sat.found);
    EXPECT_EQ(sat.index, 2u);
    EXPECT_DOUBLE_EQ(sat.offered, 0.16);
    EXPECT_DOUBLE_EQ(sat.throughput, 0.0900);
    EXPECT_DOUBLE_EQ(sat.mean_latency, 35.0); // the curve's series, not e2e
}

/// The open block survives the report round-trip: append_result_row ->
/// the report reader reproduces the row bit for bit (the property the
/// shard/merge/resume machinery rests on, docs/sweep.md).
TEST(OpenReport, ResultRowRoundTripsBitIdentical) {
    sweep::SweepResult r = open_point(0.40, 0.21, 17.25, 64);
    r.name = "rate=0.4000";
    r.fabric = "xpipes 2x3 fifo8";
    r.index = 5;
    r.cycles = 123456;
    r.busy_cycles = 4321;
    r.wall_seconds = 0.5;
    r.lat_p50 = 150;
    r.lat_p99 = 900;
    r.lat_max = 1200;
    r.net_lat_p50 = 15;
    r.net_lat_p99 = 40;
    r.net_lat_max = 55;
    r.sq_lat_mean = 155.25;
    r.sq_lat_p50 = 140;
    r.sq_lat_p99 = 880;
    r.sq_lat_max = 1190;

    std::string line;
    sweep::append_result_row(line, r);
    sweep::SweepResult parsed;
    std::string error;
    ASSERT_TRUE(test::parse_row(line, &parsed, &error)) << error;
    EXPECT_TRUE(sweep::bit_identical(parsed, r));

    // A closed row must not grow an open block on the way through.
    sweep::SweepResult closed;
    closed.name = "rate=0.0100";
    closed.completed = true;
    closed.has_latency = true;
    closed.lat_count = 10;
    closed.lat_mean = 8.0;
    line.clear();
    sweep::append_result_row(line, closed);
    EXPECT_EQ(line.find("pending_limit"), std::string::npos);
    sweep::SweepResult closed_parsed;
    ASSERT_TRUE(test::parse_row(line, &closed_parsed, &error))
        << error;
    EXPECT_FALSE(closed_parsed.has_open);
    EXPECT_TRUE(sweep::bit_identical(closed_parsed, closed));
}

} // namespace
} // namespace tgsim
