// Tests for the analytical screening tier (src/analytic/) and the two-phase
// sweep funnel: determinism, geometry/ordering sanity of the closed-form
// model, envelope rejection, Spearman rank correlation, and the funnel's
// contract — survivors bit-identical to an all-cycle run at any --jobs,
// same top-1 as the cycle tier.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "analytic/analytic.hpp"
#include "sweep/sweep.hpp"
#include "tg/patterns.hpp"
#include "tg/program.hpp"

namespace tgsim::analytic {
namespace {

tg::PatternConfig small_pattern(tg::Pattern p = tg::Pattern::Transpose) {
    tg::PatternConfig pc;
    pc.pattern = p;
    pc.width = 4;
    pc.height = 4;
    pc.injection_rate = 0.02;
    pc.packets_per_core = 200;
    return pc;
}

sweep::Candidate mesh_candidate(u32 w, u32 h, u32 fifo, double rate) {
    sweep::Candidate c;
    c.cfg.ic = platform::IcKind::Xpipes;
    c.cfg.xpipes = ic::XpipesConfig{w, h, fifo};
    c.cfg.xpipes.collect_latency = true;
    c.source.rate = rate;
    c.name = sweep::describe_fabric(c.cfg);
    return c;
}

/// Rate ladder over one 5x4 mesh — the canonical screening grid shape.
std::vector<sweep::Candidate> rate_grid(const std::vector<double>& rates) {
    std::vector<sweep::Candidate> out;
    for (const double r : rates) out.push_back(mesh_candidate(5, 4, 4, r));
    return out;
}

TEST(Evaluator, DeterministicAcrossCallsAndWorkspaces) {
    const Evaluator eval{small_pattern()};
    const sweep::Candidate cand = mesh_candidate(5, 4, 4, 0.05);
    Workspace ws1, ws2;
    const sweep::SweepResult a = eval.evaluate(cand, 3, ws1);
    const sweep::SweepResult b = eval.evaluate(cand, 3, ws2);
    const sweep::SweepResult c = eval.evaluate(cand, 3, ws1); // reused ws
    EXPECT_TRUE(sweep::bit_identical(a, b));
    EXPECT_TRUE(sweep::bit_identical(a, c));
    EXPECT_TRUE(a.analytic);
    EXPECT_TRUE(a.ok()) << a.error;
    EXPECT_TRUE(a.completed);
    EXPECT_TRUE(a.has_latency);
    EXPECT_GT(a.cycles, 0u);
    EXPECT_GT(a.predicted_saturation, 0.0);
    EXPECT_EQ(a.index, 3u);
}

TEST(Evaluator, HigherRateNeverSlowsCompletion) {
    // The predicted completion time is packets / accepted-rate based; more
    // offered load can only complete the fixed budget sooner (the accepted
    // rate saturates, never falls, in the model).
    const Evaluator eval{small_pattern()};
    Workspace ws;
    Cycle prev = ~Cycle{0};
    for (const double r : {0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5}) {
        const auto res = eval.evaluate(mesh_candidate(5, 4, 4, r), 0, ws);
        ASSERT_TRUE(res.ok()) << res.error;
        EXPECT_LE(res.cycles, prev) << "rate " << r;
        EXPECT_LE(res.accepted_rate, r + 1e-12);
        prev = res.cycles;
    }
}

TEST(Evaluator, LongerPathsRaiseLatencyAndCutSaturation) {
    // Neighbor traffic (1 hop) must be predicted faster and
    // higher-saturating than bit_complement (full-diameter crossing) on
    // the same mesh — the core geometric ordering the screen exists for.
    const Evaluator near{small_pattern(tg::Pattern::Neighbor)};
    const Evaluator far{small_pattern(tg::Pattern::BitComplement)};
    // Width-aligned mesh (4 wide, cores on rows 0-3): logical grid coords
    // equal physical coords, so "1 hop" really is one link.
    const sweep::Candidate cand = mesh_candidate(4, 5, 4, 0.4);
    const auto rn = near.evaluate(cand, 0);
    const auto rf = far.evaluate(cand, 0);
    ASSERT_TRUE(rn.ok() && rf.ok());
    EXPECT_LT(rn.lat_mean, rf.lat_mean);
    EXPECT_GT(rn.predicted_saturation, rf.predicted_saturation);
    EXPECT_LT(rn.cycles, rf.cycles);
}

TEST(Evaluator, HotspotSaturatesBelowUniform) {
    tg::PatternConfig hot = small_pattern(tg::Pattern::Hotspot);
    hot.hotspot_core = 5;
    hot.hotspot_fraction = 0.6;
    const Evaluator hotspot{hot};
    const Evaluator uniform{small_pattern(tg::Pattern::UniformRandom)};
    const sweep::Candidate cand = mesh_candidate(4, 5, 4, 0.4);
    const auto rh = hotspot.evaluate(cand, 0);
    const auto ru = uniform.evaluate(cand, 0);
    ASSERT_TRUE(rh.ok() && ru.ok());
    EXPECT_LT(rh.predicted_saturation, ru.predicted_saturation);
}

TEST(Evaluator, RejectsWhatThePlatformRejects) {
    const Evaluator eval{small_pattern()};
    // 16 cores need 18 nodes; 4x4 cannot host the shared slaves.
    const auto too_small = eval.evaluate(mesh_candidate(4, 4, 4, 0.05), 0);
    EXPECT_FALSE(too_small.ok());
    EXPECT_EQ(too_small.failure, sweep::FailureKind::SetupError);
    EXPECT_TRUE(too_small.analytic);

    const auto bad_fifo = eval.evaluate(mesh_candidate(5, 4, 1, 0.05), 0);
    EXPECT_FALSE(bad_fifo.ok());
    EXPECT_EQ(bad_fifo.failure, sweep::FailureKind::SetupError);

    sweep::Candidate bus = mesh_candidate(5, 4, 4, 0.05);
    bus.cfg.ic = platform::IcKind::Amba;
    EXPECT_FALSE(Evaluator::supports(bus));
    const auto unsupported = eval.evaluate(bus, 0);
    EXPECT_FALSE(unsupported.ok());
}

TEST(Evaluator, AutoMeshMatchesExplicitPlatformSizing) {
    // "auto" must resolve to exactly the geometry the Platform would build
    // (width ceil(sqrt(n+2))), or funnel screening would rank a different
    // mesh than phase 2 simulates.
    const Evaluator eval{small_pattern()};
    const auto auto_mesh = eval.evaluate(mesh_candidate(0, 0, 4, 0.05), 0);
    const u32 w = 5; // ceil(sqrt(18))
    const auto explicit_mesh = eval.evaluate(
        mesh_candidate(w, platform::xpipes_height_for(16, w), 4, 0.05), 0);
    ASSERT_TRUE(auto_mesh.ok() && explicit_mesh.ok());
    EXPECT_EQ(auto_mesh.cycles, explicit_mesh.cycles);
    EXPECT_EQ(auto_mesh.lat_mean, explicit_mesh.lat_mean);
    EXPECT_EQ(auto_mesh.predicted_saturation,
              explicit_mesh.predicted_saturation);
}

TEST(Spearman, KnownValues) {
    EXPECT_DOUBLE_EQ(spearman_rho({1, 2, 3, 4}, {10, 20, 30, 40}), 1.0);
    EXPECT_DOUBLE_EQ(spearman_rho({1, 2, 3, 4}, {40, 30, 20, 10}), -1.0);
    // Degenerate inputs answer 0, never NaN.
    EXPECT_DOUBLE_EQ(spearman_rho({}, {}), 0.0);
    EXPECT_DOUBLE_EQ(spearman_rho({1.0}, {2.0}), 0.0);
    EXPECT_DOUBLE_EQ(spearman_rho({1, 2}, {5, 5}), 0.0); // constant series
    EXPECT_DOUBLE_EQ(spearman_rho({1, 2}, {1, 2, 3}), 0.0); // size mismatch
    // Ties get average ranks: {1,1,2} vs {3,3,4} is still perfect
    // agreement.
    EXPECT_DOUBLE_EQ(spearman_rho({1, 1, 2}, {3, 3, 4}), 1.0);
}

// --- funnel integration --------------------------------------------------

apps::Workload empty_context() {
    apps::Workload w;
    w.name = "pattern";
    return w;
}

TEST(Funnel, TiersNeedPatternPayload) {
    apps::Workload env;
    env.cores.resize(2);
    std::vector<tg::TgProgram> programs(2);
    for (tg::TgProgram& p : programs) p.instrs.emplace_back(); // Halt
    const sweep::SweepDriver driver{programs, env};
    sweep::SweepOptions opts;
    opts.tier = sweep::Tier::Analytic;
    EXPECT_THROW((void)driver.run({mesh_candidate(2, 2, 4, 0.0)}, opts),
                 std::invalid_argument);
    opts.tier = sweep::Tier::Funnel;
    EXPECT_THROW((void)driver.run({mesh_candidate(2, 2, 4, 0.0)}, opts),
                 std::invalid_argument);
}

TEST(Funnel, ZeroSurvivorBudgetIsAnError) {
    const sweep::SweepDriver driver{small_pattern(), empty_context()};
    sweep::SweepOptions opts;
    opts.tier = sweep::Tier::Funnel;
    opts.funnel_top = 0;
    EXPECT_THROW((void)driver.run(rate_grid({0.01}), opts),
                 std::invalid_argument);
}

TEST(Funnel, SurvivorsBitIdenticalToAllCycleRunAtAnyJobs) {
    const sweep::SweepDriver driver{small_pattern(), empty_context()};
    const auto grid = rate_grid({0.005, 0.01, 0.02, 0.04, 0.08, 0.16});

    sweep::SweepOptions cycle_opts;
    cycle_opts.jobs = 1;
    const auto truth = driver.run(grid, cycle_opts);

    sweep::SweepOptions funnel_opts;
    funnel_opts.tier = sweep::Tier::Funnel;
    funnel_opts.funnel_top = 2;
    funnel_opts.jobs = 1;
    const auto serial = driver.run(grid, funnel_opts);
    funnel_opts.jobs = 4;
    const auto parallel = driver.run(grid, funnel_opts);

    ASSERT_EQ(serial.size(), grid.size());
    u32 cycle_rows = 0;
    for (std::size_t i = 0; i < grid.size(); ++i) {
        // The funnel itself is jobs-invariant end to end...
        EXPECT_TRUE(sweep::bit_identical(serial[i], parallel[i]))
            << grid[i].name << " rate " << grid[i].source.rate;
        // ...and every survivor row (the non-analytic ones) is exactly the
        // all-cycle row: same ORIGINAL index, same derived seeds.
        if (!serial[i].analytic) {
            ++cycle_rows;
            EXPECT_TRUE(sweep::bit_identical(serial[i], truth[i]))
                << grid[i].name << " rate " << grid[i].source.rate;
        }
    }
    EXPECT_EQ(cycle_rows, funnel_opts.funnel_top);
}

TEST(Funnel, Top1MatchesAllCycleRun) {
    // The acceptance gate in miniature: the candidate the funnel crowns
    // (fastest cycle-measured survivor) is the one an exhaustive cycle
    // sweep would crown.
    const sweep::SweepDriver driver{small_pattern(tg::Pattern::Tornado),
                                    empty_context()};
    std::vector<sweep::Candidate> grid;
    for (const double r : {0.01, 0.02, 0.04, 0.08})
        for (const u32 fifo : {2u, 4u}) {
            grid.push_back(mesh_candidate(5, 4, fifo, r));
            grid.push_back(mesh_candidate(6, 3, fifo, r));
        }

    const auto best_of = [](const std::vector<sweep::SweepResult>& rows,
                            bool cycle_only) {
        u32 best = 0;
        bool have = false;
        for (u32 i = 0; i < rows.size(); ++i) {
            if (!rows[i].ok() || (cycle_only && rows[i].analytic)) continue;
            if (!have || rows[i].cycles < rows[best].cycles) {
                best = i;
                have = true;
            }
        }
        EXPECT_TRUE(have);
        return best;
    };

    const auto truth = driver.run(grid, {});
    sweep::SweepOptions funnel_opts;
    funnel_opts.tier = sweep::Tier::Funnel;
    funnel_opts.funnel_top = 6;
    const auto funneled = driver.run(grid, funnel_opts);
    EXPECT_EQ(best_of(funneled, true), best_of(truth, false));
}

TEST(Funnel, UnsupportedFabricsPassThroughToCycleTier) {
    // A bus candidate has no analytic score; screening must never discard
    // it, whatever the survivor budget.
    const sweep::SweepDriver driver{small_pattern(), empty_context()};
    std::vector<sweep::Candidate> grid = rate_grid({0.01, 0.02, 0.04});
    sweep::Candidate bus;
    bus.cfg.ic = platform::IcKind::Amba;
    bus.name = "amba rr";
    grid.push_back(bus);

    sweep::SweepOptions opts;
    opts.tier = sweep::Tier::Funnel;
    opts.funnel_top = 1;
    const auto rows = driver.run(grid, opts);
    ASSERT_EQ(rows.size(), 4u);
    EXPECT_FALSE(rows[3].analytic); // cycle-simulated despite top-1 budget
    EXPECT_TRUE(rows[3].completed);
}

TEST(Funnel, AnalyticTierScoresWholeGridWithoutSimulating) {
    const sweep::SweepDriver driver{small_pattern(), empty_context()};
    const auto grid = rate_grid({0.01, 0.02, 0.04});
    sweep::SweepOptions opts;
    opts.tier = sweep::Tier::Analytic;
    opts.jobs = 1;
    const auto serial = driver.run(grid, opts);
    opts.jobs = 3;
    const auto parallel = driver.run(grid, opts);
    ASSERT_EQ(serial.size(), 3u);
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_TRUE(serial[i].analytic);
        EXPECT_TRUE(serial[i].ok()) << serial[i].error;
        EXPECT_TRUE(sweep::bit_identical(serial[i], parallel[i]));
    }
}

} // namespace
} // namespace tgsim::analytic
