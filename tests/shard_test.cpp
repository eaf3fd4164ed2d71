// Tests for the distributed-sweep sharding layer (src/sweep/shard.*):
// the k/N spec parser, shard-union == unsharded-run byte identity for the
// cycle AND funnel tiers, merge_reports' cross-shard invariant checks, the
// checkpoint journal's durability contract (torn final line tolerated,
// corrupt interior rejected, torn tail sealed on reopen), resume
// re-evaluating exactly the unjournaled candidates, and the streaming
// report/journal reader: random-row round trips, key order, line-numbered
// errors, bounded reservations and a deterministic fuzz loop over the seed
// corpus in tests/data/reports/.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "apps/apps.hpp"
#include "sweep/shard.hpp"
#include "sweep/sweep.hpp"
#include "test_util.hpp"
#include "tg/patterns.hpp"

namespace tgsim::sweep {
namespace {

// --- fixture: a small pattern campaign --------------------------------------

/// transpose on a 4x4 core grid — the cheapest payload that exercises both
/// the cycle simulator and the analytic screen (funnel tier).
tg::PatternConfig small_pattern() {
    tg::PatternConfig pc;
    pc.pattern = tg::Pattern::Transpose;
    pc.width = 4;
    pc.height = 4;
    pc.injection_rate = 0.01;
    pc.packets_per_core = 40;
    pc.read_fraction = 0.5;
    return pc;
}

Candidate mesh_candidate(const ic::XpipesConfig& mesh, double rate) {
    Candidate c;
    c.cfg.ic = platform::IcKind::Xpipes;
    c.cfg.xpipes = mesh;
    c.cfg.xpipes.collect_latency = true;
    c.source.rate = rate;
    c.name = describe_fabric(c.cfg) + " r=" + std::to_string(rate);
    return c;
}

/// 2 meshes x 5 rates = 10 candidates (mesh must host 16 cores + slaves).
std::vector<Candidate> small_shard_grid() {
    std::vector<Candidate> out;
    for (const ic::XpipesConfig& mesh :
         {ic::XpipesConfig{5, 4, 2}, ic::XpipesConfig{6, 3, 2}})
        for (const double rate : {0.01, 0.02, 0.04, 0.08, 0.16})
            out.push_back(mesh_candidate(mesh, rate));
    return out;
}

struct Campaign {
    tg::PatternConfig pc = small_pattern();
    apps::Workload context;
    SweepDriver driver;
    std::vector<Candidate> grid = small_shard_grid();

    Campaign() : context{make_context()}, driver{pc, context} {}

    static apps::Workload make_context() {
        apps::Workload w;
        w.name = "shard_test transpose";
        return w;
    }

    SweepMeta meta(const SweepOptions& opts) const {
        SweepMeta m;
        m.app = context.name;
        m.n_cores = driver.n_cores();
        m.jobs = opts.jobs;
        m.max_cycles = opts.max_cycles;
        m.tier = opts.tier;
        m.seed = opts.seed;
        m.n_candidates = static_cast<u32>(grid.size());
        if (opts.tier == Tier::Funnel) m.funnel_top = opts.funnel_top;
        m.shard = opts.shard;
        return m;
    }

    /// The canonical (--deterministic) report text of one run.
    std::string canonical_text(SweepOptions opts) const {
        SweepMeta m = meta(opts);
        std::vector<SweepResult> rows = driver.run(grid, opts);
        canonicalize(m, rows);
        return json_report(rows, m);
    }

    /// Runs every shard of an N-way split (varying --jobs per shard, which
    /// must not matter) and round-trips each report through text — the
    /// same bytes tgsim_sweep writes and tgsim_merge reads.
    std::vector<ParsedReport> shard_reports(SweepOptions opts, u32 n) const {
        std::vector<ParsedReport> out;
        for (u32 k = 0; k < n; ++k) {
            SweepOptions so = opts;
            so.shard = {k, n};
            so.jobs = k + 1;
            const std::string text = json_report(driver.run(grid, so), meta(so));
            std::string err;
            auto parsed = parse_report_text(text, &err);
            EXPECT_TRUE(parsed.has_value()) << err;
            if (!parsed) std::abort();
            out.push_back(std::move(*parsed));
        }
        return out;
    }
};

std::string temp_path(const std::string& name) {
    return ::testing::TempDir() + "shard_test_" + name;
}

std::string read_file(const std::string& path) {
    std::string out;
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) return out;
    char buf[4096];
    for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, f)) > 0;)
        out.append(buf, n);
    std::fclose(f);
    return out;
}

void write_file(const std::string& path, const std::string& text) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr) << path;
    ASSERT_EQ(std::fwrite(text.data(), 1, text.size(), f), text.size());
    std::fclose(f);
}

// --- spec parsing and the mapping -------------------------------------------

TEST(ParseShard, AcceptsValidSpecs) {
    const auto s = parse_shard("0/3");
    ASSERT_TRUE(s.has_value());
    EXPECT_EQ(s->index, 0u);
    EXPECT_EQ(s->count, 3u);
    EXPECT_EQ(parse_shard("2/3")->index, 2u);
    EXPECT_EQ(parse_shard("0/1")->count, 1u);
    EXPECT_EQ(parse_shard("15/16")->index, 15u);
}

TEST(ParseShard, RejectsMalformedSpecs) {
    for (const char* bad : {"", "3", "3/", "/3", "3/3", "4/3", "1/0", "a/3",
                            "1/b", "-1/3", "1/3x", " 1/3", "1 /3",
                            "1234567890/3", "1/12345678901"})
        EXPECT_FALSE(parse_shard(bad).has_value()) << "'" << bad << "'";
}

TEST(ShardOf, RoundRobinAndDegenerateCounts) {
    EXPECT_EQ(shard_of(0, 3), 0u);
    EXPECT_EQ(shard_of(1, 3), 1u);
    EXPECT_EQ(shard_of(5, 3), 2u);
    EXPECT_EQ(shard_of(7, 1), 0u); // unsharded
    EXPECT_EQ(shard_of(7, 0), 0u); // never divides by zero
}

// --- shard union == unsharded run, byte for byte ----------------------------

TEST(ShardMerge, UnionMatchesUnshardedCycleRun) {
    const Campaign c;
    SweepOptions opts;
    opts.jobs = 2;
    const std::string want = c.canonical_text(opts);
    for (const u32 n : {2u, 3u, 5u}) {
        std::string err;
        auto merged = merge_reports(c.shard_reports(opts, n), &err);
        ASSERT_TRUE(merged.has_value()) << "N=" << n << ": " << err;
        EXPECT_EQ(json_report(merged->rows, merged->meta), want)
            << "merged report diverged at N=" << n;
    }
}

TEST(ShardMerge, UnionMatchesUnshardedFunnelRun) {
    const Campaign c;
    SweepOptions opts;
    opts.jobs = 2;
    opts.tier = Tier::Funnel;
    opts.funnel_top = 4; // < grid size, so the screen actually prunes
    const std::string want = c.canonical_text(opts);
    std::string err;
    auto merged = merge_reports(c.shard_reports(opts, 3), &err);
    ASSERT_TRUE(merged.has_value()) << err;
    EXPECT_EQ(json_report(merged->rows, merged->meta), want);
}

TEST(ShardMerge, ShardRowsAreExactlyOwnSlice) {
    const Campaign c;
    SweepOptions opts;
    opts.jobs = 1;
    for (u32 k = 0; k < 3; ++k) {
        opts.shard = {k, 3};
        const auto rows = c.driver.run(c.grid, opts);
        std::size_t expected = 0;
        for (u32 i = 0; i < c.grid.size(); ++i)
            if (shard_of(i, 3) == k) ++expected;
        ASSERT_EQ(rows.size(), expected) << "shard " << k;
        u32 prev = 0;
        for (const SweepResult& r : rows) {
            EXPECT_EQ(shard_of(r.index, 3), k);
            EXPECT_TRUE(r.index == rows.front().index || r.index > prev)
                << "rows not ascending";
            prev = r.index;
        }
    }
}

TEST(ShardMerge, SingleReportPassesThroughCanonicalized) {
    const Campaign c;
    SweepOptions opts;
    opts.jobs = 3; // non-canonical jobs + nonzero walls in the input
    std::string err;
    auto parsed =
        parse_report_text(json_report(c.driver.run(c.grid, opts), c.meta(opts)),
                          &err);
    ASSERT_TRUE(parsed.has_value()) << err;
    auto merged = merge_reports({std::move(*parsed)}, &err);
    ASSERT_TRUE(merged.has_value()) << err;
    EXPECT_EQ(json_report(merged->rows, merged->meta), c.canonical_text(opts));
}

// --- merge rejections --------------------------------------------------------

class ShardMergeReject : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        campaign_ = new Campaign;
        SweepOptions opts;
        opts.jobs = 2;
        shards_ = new std::vector<ParsedReport>{
            campaign_->shard_reports(opts, 3)};
    }
    static void TearDownTestSuite() {
        delete shards_;
        delete campaign_;
        shards_ = nullptr;
        campaign_ = nullptr;
    }

    /// A fresh copy of the 3 intact shard reports for each test to mangle.
    static std::vector<ParsedReport> shards() { return *shards_; }

    static void expect_reject(std::vector<ParsedReport> shards,
                              const std::string& want_substring) {
        std::string err;
        EXPECT_FALSE(merge_reports(std::move(shards), &err).has_value());
        EXPECT_NE(err.find(want_substring), std::string::npos)
            << "error was: " << err;
    }

    static Campaign* campaign_;
    static std::vector<ParsedReport>* shards_;
};

Campaign* ShardMergeReject::campaign_ = nullptr;
std::vector<ParsedReport>* ShardMergeReject::shards_ = nullptr;

TEST_F(ShardMergeReject, DuplicateShard) {
    auto s = shards();
    s[1] = s[0];
    expect_reject(std::move(s), "duplicate shard");
}

TEST_F(ShardMergeReject, MissingShard) {
    auto s = shards();
    s.pop_back();
    expect_reject(std::move(s), "missing or extra shards");
}

TEST_F(ShardMergeReject, MetadataMismatch) {
    auto s = shards();
    s[2].meta.seed ^= 1;
    expect_reject(std::move(s), "metadata mismatch");
}

TEST_F(ShardMergeReject, ForeignRow) {
    auto s = shards();
    s[0].rows.push_back(s[1].rows.front()); // index % 3 == 1, not 0
    expect_reject(std::move(s), "does not belong to shard");
}

TEST_F(ShardMergeReject, DuplicateCandidate) {
    auto s = shards();
    s[0].rows.push_back(s[0].rows.front());
    expect_reject(std::move(s), "duplicate candidate");
}

TEST_F(ShardMergeReject, MissingCandidate) {
    auto s = shards();
    s[1].rows.pop_back();
    expect_reject(std::move(s), "missing candidate");
}

// A header claiming more candidates than the shards carry rows is rejected
// before anything is sized by it.
TEST_F(ShardMergeReject, CandidateCountBeyondRows) {
    auto s = shards();
    for (ParsedReport& r : s) r.meta.n_candidates = 0xFFFFFFFFu;
    expect_reject(std::move(s), "missing candidate");
}

TEST_F(ShardMergeReject, OutOfRangeIndex) {
    auto s = shards();
    s[0].rows.back().index = 90; // 90 % 3 == 0: passes ownership, not range
    expect_reject(std::move(s), "out of range");
}

// --- checkpoint journal ------------------------------------------------------

TEST(Journal, RoundTripsRowsVerbatim) {
    const Campaign c;
    SweepOptions opts;
    opts.jobs = 2;
    const auto rows = c.driver.run(c.grid, opts);
    const SweepMeta meta = c.meta(opts);

    const std::string path = temp_path("roundtrip.jsonl");
    std::remove(path.c_str());
    JournalWriter w;
    std::string err;
    ASSERT_TRUE(w.open(path, meta, 4, &err)) << err;
    for (const SweepResult& r : rows) w.append(r);
    ASSERT_TRUE(w.close());

    const auto journal = load_journal(path, &err);
    ASSERT_TRUE(journal.has_value()) << err;
    EXPECT_TRUE(meta_diff(journal->meta, meta).empty());
    ASSERT_EQ(journal->rows.size(), rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
        // Serialized-text identity — the property resume actually needs.
        std::string want, got;
        append_result_row(want, rows[i]);
        append_result_row(got, journal->rows[i]);
        EXPECT_EQ(got, want) << "row " << i;
    }
}

TEST(Journal, ToleratesTornFinalLineOnly) {
    const std::string path = temp_path("torn.jsonl");
    const Campaign c;
    SweepOptions opts;
    opts.jobs = 1;
    const auto rows = c.driver.run(c.grid, opts);
    JournalWriter w;
    std::string err;
    std::remove(path.c_str());
    ASSERT_TRUE(w.open(path, c.meta(opts), 1, &err)) << err;
    for (const SweepResult& r : rows) w.append(r);
    ASSERT_TRUE(w.close());

    // Chop the final line in half: a mid-write kill.
    const std::string text = read_file(path);
    const std::size_t last_nl = text.rfind('\n', text.size() - 2);
    ASSERT_NE(last_nl, std::string::npos);
    const std::string torn =
        text.substr(0, last_nl + 1 + (text.size() - last_nl) / 2);
    write_file(path, torn);

    const auto journal = load_journal(path, &err);
    ASSERT_TRUE(journal.has_value()) << err;
    EXPECT_EQ(journal->rows.size(), rows.size() - 1);

    // The same damage on an INTERIOR line is corruption, not a torn tail.
    std::string tail;
    append_result_row(tail, rows.back());
    write_file(path, torn + "\n" + tail + "\n");
    EXPECT_FALSE(load_journal(path, &err).has_value());
    EXPECT_NE(err.find("corrupt journal line"), std::string::npos) << err;
}

TEST(Journal, RejectsNonJournalHeader) {
    const std::string path = temp_path("noheader.jsonl");
    write_file(path, "{\"name\": \"x\"}\n");
    std::string err;
    EXPECT_FALSE(load_journal(path, &err).has_value());
}

TEST(Journal, SealsTornTailOnReopen) {
    const Campaign c;
    SweepOptions opts;
    opts.jobs = 1;
    const auto rows = c.driver.run(c.grid, opts);
    const SweepMeta meta = c.meta(opts);
    const std::string path = temp_path("seal.jsonl");
    std::remove(path.c_str());
    JournalWriter w;
    std::string err;
    ASSERT_TRUE(w.open(path, meta, 1, &err)) << err;
    for (std::size_t i = 0; i + 1 < rows.size(); ++i) w.append(rows[i]);
    ASSERT_TRUE(w.close());

    // Leave a partial row dangling with no trailing newline, then reopen
    // and append: the writer must truncate the torn tail first, or the new
    // row fuses onto the partial bytes and poisons the NEXT resume.
    std::string partial;
    append_result_row(partial, rows.back());
    write_file(path, read_file(path) + partial.substr(0, partial.size() / 2));

    JournalWriter w2;
    ASSERT_TRUE(w2.open(path, meta, 1, &err)) << err;
    w2.append(rows.back());
    ASSERT_TRUE(w2.close());

    const auto journal = load_journal(path, &err);
    ASSERT_TRUE(journal.has_value()) << err;
    ASSERT_EQ(journal->rows.size(), rows.size());
    EXPECT_EQ(journal->rows.back().index, rows.back().index);
}

// --- resume ------------------------------------------------------------------

TEST(Resume, ReEvaluatesOnlyUnjournaledCandidates) {
    const Campaign c;
    SweepOptions opts;
    opts.jobs = 2;
    const std::string want = c.canonical_text(opts);

    // First attempt: journal everything, then keep only the first half —
    // as if the campaign was killed partway through.
    const std::string path = temp_path("resume.jsonl");
    std::remove(path.c_str());
    {
        JournalWriter w;
        std::string err;
        ASSERT_TRUE(w.open(path, c.meta(opts), 1, &err)) << err;
        SweepOptions jopts = opts;
        jopts.journal = &w;
        (void)c.driver.run(c.grid, jopts);
        ASSERT_TRUE(w.close());
    }
    std::string err;
    auto journal = load_journal(path, &err);
    ASSERT_TRUE(journal.has_value()) << err;
    ASSERT_EQ(journal->rows.size(), c.grid.size());
    journal->rows.resize(c.grid.size() / 2);

    // Second attempt resumes: the fresh journal must gain exactly the rows
    // the first attempt lost, and the final report must match byte for
    // byte.
    const std::string path2 = temp_path("resume2.jsonl");
    std::remove(path2.c_str());
    JournalWriter w2;
    ASSERT_TRUE(w2.open(path2, c.meta(opts), 1, &err)) << err;
    SweepOptions ropts = opts;
    ropts.journal = &w2;
    ropts.resume = &journal->rows;
    SweepMeta meta = c.meta(opts);
    std::vector<SweepResult> rows = c.driver.run(c.grid, ropts);
    ASSERT_TRUE(w2.close());
    canonicalize(meta, rows);
    EXPECT_EQ(json_report(rows, meta), want);

    const auto second = load_journal(path2, &err);
    ASSERT_TRUE(second.has_value()) << err;
    EXPECT_EQ(second->rows.size(), c.grid.size() - journal->rows.size());
}

TEST(Resume, FunnelResumeMatchesUninterruptedRun) {
    const Campaign c;
    SweepOptions opts;
    opts.jobs = 2;
    opts.tier = Tier::Funnel;
    opts.funnel_top = 4;
    const std::string want = c.canonical_text(opts);

    // Journal a full funnel run (only cycle-tier survivor rows land in the
    // journal), drop the back half, resume.
    const std::string path = temp_path("funnel_resume.jsonl");
    std::remove(path.c_str());
    {
        JournalWriter w;
        std::string err;
        ASSERT_TRUE(w.open(path, c.meta(opts), 1, &err)) << err;
        SweepOptions jopts = opts;
        jopts.journal = &w;
        (void)c.driver.run(c.grid, jopts);
        ASSERT_TRUE(w.close());
    }
    std::string err;
    auto journal = load_journal(path, &err);
    ASSERT_TRUE(journal.has_value()) << err;
    EXPECT_LT(journal->rows.size(), c.grid.size()) // survivors only
        << "funnel journaled the whole grid";
    ASSERT_GE(journal->rows.size(), 2u);
    journal->rows.resize(journal->rows.size() / 2);

    SweepOptions ropts = opts;
    ropts.resume = &journal->rows;
    SweepMeta meta = c.meta(opts);
    std::vector<SweepResult> rows = c.driver.run(c.grid, ropts);
    canonicalize(meta, rows);
    EXPECT_EQ(json_report(rows, meta), want);
}

// --- row parsing -------------------------------------------------------------

/// A value for field number `n` of format F that is distinct from every
/// other field's and exactly representable at F's printed precision.
template <RowFmt F, typename T>
void distinct_value(T& v, u32 n) {
    if constexpr (F == RowFmt::Str)
        v = "s" + std::to_string(n) + " \"q\" \\ \n";
    else if constexpr (F == RowFmt::U32) v = 4'000'000'000u + n;
    else if constexpr (F == RowFmt::U64) v = (u64{1} << 40) + n;
    else if constexpr (F == RowFmt::Bool) v = n % 2 == 0;
    else if constexpr (F == RowFmt::Failure) v = FailureKind::ChecksFailed;
    else if constexpr (F == RowFmt::Fix4) v = n + 0.0625;
    else v = n + 0.015625; // Fix6, Wall6
}

/// Every TGSIM_SWEEP_ROW field set to a distinct value, every block on.
SweepResult every_field_row() {
    SweepResult r;
    u32 n = 0;
#define TGSIM_ROW_FILL(block, fmt, member) \
    distinct_value<RowFmt::fmt>(r.member, n++);
    TGSIM_SWEEP_ROW(TGSIM_ROW_FILL, TGSIM_ROW_SKIP)
#undef TGSIM_ROW_FILL
    for (bool SweepResult::*on : kRowBlockSwitch)
        if (on != nullptr) r.*on = true;
    return r;
}

TEST(RowParse, RoundTripsEveryFieldShape) {
    // Walks the schema table, so a new field is covered with no test edit.
    const SweepResult r = every_field_row();
    std::string line;
    append_result_row(line, r);
#define TGSIM_ROW_KEY_PRESENT(block, fmt, member) \
    EXPECT_NE(line.find("\"" #member "\": "), std::string::npos) << #member;
    TGSIM_SWEEP_ROW(TGSIM_ROW_KEY_PRESENT, TGSIM_ROW_KEY_PRESENT)
#undef TGSIM_ROW_KEY_PRESENT

    SweepResult parsed;
    std::string err;
    ASSERT_TRUE(test::parse_row(line, &parsed, &err)) << err;
    EXPECT_TRUE(bit_identical(parsed, r)) << line;
    EXPECT_EQ(parsed.wall_seconds, r.wall_seconds);
    std::string again;
    append_result_row(again, parsed);
    EXPECT_EQ(again, line);

    // With every block off, only the base keys are written and read back.
    SweepResult base = r;
    for (bool SweepResult::*on : kRowBlockSwitch)
        if (on != nullptr) base.*on = false;
    line.clear();
    append_result_row(line, base);
    EXPECT_EQ(line.find("\"cpu_completed\""), std::string::npos);
    EXPECT_EQ(line.find("\"fault_injected\""), std::string::npos);
    ASSERT_TRUE(test::parse_row(line, &parsed, &err)) << err;
    again.clear();
    append_result_row(again, parsed);
    EXPECT_EQ(again, line);
}

/// `line` without the "key": value pair of `key`.
std::string drop_key(std::string line, const std::string& key) {
    const std::size_t at = line.find("\"" + key + "\": ");
    std::size_t end = line.find(", \"", at);
    if (end == std::string::npos) end = line.size() - 1; // last key: to '}'
    if (line[at - 1] == '{') // first key: take the separator after it
        line.erase(at, end + 2 - at);
    else
        line.erase(at - 2, end - (at - 2));
    return line;
}

TEST(RowParse, RejectsAPartialRowNamingTheMissingKey) {
    std::string line;
    append_result_row(line, every_field_row());
    SweepResult out;
    std::string err;
    // Every stored key is required once its block is present: e.g. a
    // latency block with offered_rate but no lat_p99 is rejected, naming
    // lat_p99.
    for (const std::string key : {
#define TGSIM_ROW_NAME(block, fmt, member) #member,
             TGSIM_SWEEP_ROW(TGSIM_ROW_NAME, TGSIM_ROW_SKIP)
#undef TGSIM_ROW_NAME
         }) {
        err.clear();
        EXPECT_FALSE(test::parse_row(drop_key(line, key), &out, &err)) << key;
        EXPECT_NE(err.find("'" + key + "'"), std::string::npos) << err;
    }
    // "ok" is derived from "error": a row without it still parses.
    EXPECT_TRUE(test::parse_row(drop_key(line, "ok"), &out, &err)) << err;
}

TEST(RowParse, RejectsIllTypedValues) {
    const SweepResult r = every_field_row();
    std::string line;
    append_result_row(line, r);
    SweepResult out;
    std::string err;
    const auto replace = [&line](const std::string& from,
                                 const std::string& to) {
        std::string bad = line;
        bad.replace(bad.find(from), from.size(), to);
        return bad;
    };
    const std::string index = "\"index\": " + std::to_string(r.index);
    EXPECT_FALSE(
        test::parse_row(replace(index, "\"index\": 4294967296"), &out, &err));
    EXPECT_NE(err.find("field 'index' overflows u32"), std::string::npos)
        << err;
    EXPECT_FALSE(test::parse_row(
        replace("\"checks_failed\"", "\"exploded\""), &out, &err));
    EXPECT_NE(err.find("unknown failure kind 'exploded'"), std::string::npos)
        << err;
    const std::string cycles = "\"cycles\": " + std::to_string(r.cycles);
    EXPECT_FALSE(
        test::parse_row(replace(cycles, "\"cycles\": \"many\""), &out, &err));
    EXPECT_NE(err.find("field 'cycles' missing or not a number"),
              std::string::npos)
        << err;
}

TEST(RowParse, RejectsNonRowInput) {
    SweepResult out;
    std::string err;
    EXPECT_FALSE(test::parse_row("not json", &out, &err));
    EXPECT_FALSE(test::parse_row("[1, 2]", &out, &err));
    EXPECT_FALSE(test::parse_row("{\"name\": \"x\"}", &out, &err)); // fields
}

TEST(RowParse, AHandWrittenAnalyticFalseStillRequiresItsBlock) {
    // The analytic block's switch is its own first key: "analytic": false
    // still opens the block, so predicted_saturation stays required.
    SweepResult r;
    r.analytic = true;
    r.predicted_saturation = 0.25;
    std::string line;
    append_result_row(line, r);
    const std::string on = "\"analytic\": true";
    line.replace(line.find(on), on.size(), "\"analytic\": false");
    SweepResult out;
    std::string err;
    ASSERT_TRUE(test::parse_row(line, &out, &err)) << err;
    EXPECT_FALSE(out.analytic);
    EXPECT_EQ(out.predicted_saturation, 0.25);
    EXPECT_FALSE(
        test::parse_row(drop_key(line, "predicted_saturation"), &out, &err));
    EXPECT_NE(err.find("field 'predicted_saturation' missing"), std::string::npos)
        << err;
}

// --- the streaming reader ---------------------------------------------------

constexpr std::size_t kRandomRows = 20'000;

/// A random string over what a row can carry: printable ASCII including
/// the characters JSON escapes, control bytes (NUL too) and multi-byte
/// UTF-8.
std::string random_text(std::mt19937_64& rng) {
    static constexpr std::string_view kPieces[] = {
        "a", "Z", "7", " ", "\"", "\\", "/", ",", ":", "{", "}", "[", "]",
        "\n", "\r", "\t", "\b", "\f", std::string_view{"\0", 1}, "\x01",
        "\x1f", "\x7f", "\xc3\xa9", "\xe2\x82\xac", "\xf0\x9d\x84\x9e"};
    std::string out;
    for (u64 n = rng() % 24; n > 0; --n)
        out += kPieces[rng() % std::size(kPieces)];
    return out;
}

template <RowFmt F, typename T>
void random_value(T& v, std::mt19937_64& rng) {
    if constexpr (F == RowFmt::Str) {
        v = random_text(rng);
    } else if constexpr (F == RowFmt::U32) {
        v = static_cast<u32>(rng());
    } else if constexpr (F == RowFmt::U64) {
        v = rng();
    } else if constexpr (F == RowFmt::Bool) {
        v = rng() % 2 == 0;
    } else if constexpr (F == RowFmt::Failure) {
        v = static_cast<FailureKind>(rng() % 4);
    } else { // a finite double of either sign, magnitude up to 2^250
        const auto mantissa = static_cast<double>(rng() >> 11);
        const int exp = static_cast<int>(rng() % 311) - 60 - 53;
        v = std::ldexp(rng() % 2 == 0 ? mantissa : -mantissa, exp);
    }
}

/// Every field random; `blocks` bit b - 1 switches block b on.
SweepResult random_row(std::mt19937_64& rng, u32 blocks) {
    SweepResult r;
#define TGSIM_ROW_RANDOM(block, fmt, member) \
    random_value<RowFmt::fmt>(r.member, rng);
    TGSIM_SWEEP_ROW(TGSIM_ROW_RANDOM, TGSIM_ROW_SKIP)
#undef TGSIM_ROW_RANDOM
    for (std::size_t b = 1; b < kRowBlocks; ++b)
        r.*kRowBlockSwitch[b] = ((blocks >> (b - 1)) & 1u) != 0;
    return r;
}

std::string row_text(const SweepResult& r) {
    std::string out;
    append_result_row(out, r);
    return out;
}

/// 20,000 seeded random rows, cycling through all 32 block combinations,
/// under a header that carries every optional key.
ParsedReport random_report() {
    std::mt19937_64 rng{20'000};
    ParsedReport out;
    out.meta.app = "random rows " + random_text(rng);
    out.meta.n_cores = 16;
    out.meta.jobs = 3;
    out.meta.max_cycles = rng();
    out.meta.tier = Tier::Funnel;
    out.meta.seed = rng();
    out.meta.n_candidates = 3 * kRandomRows;
    out.meta.funnel_top = 16;
    out.meta.shard = {1, 3};
    for (std::size_t i = 0; i < kRandomRows; ++i)
        out.rows.push_back(random_row(rng, static_cast<u32>(i % 32)));
    return out;
}

/// "" when `got` equals `want`, else where they first differ: gtest would
/// print both multi-megabyte texts in full.
std::string difference(const std::string& got, const std::string& want) {
    if (got == want) return "";
    const std::size_t at = static_cast<std::size_t>(
        std::mismatch(got.begin(), got.end(), want.begin(), want.end()).first -
        got.begin());
    return "first difference at byte " + std::to_string(at) + ": got '" +
           got.substr(at, 60) + "', want '" + want.substr(at, 60) + "'";
}

TEST(ReportReader, RandomRowsRoundTripThroughEveryPath) {
    const ParsedReport want = random_report();
    const std::string text = json_report(want.rows, want.meta);
    std::string err;

    const auto from_text = parse_report_text(text, &err);
    ASSERT_TRUE(from_text.has_value()) << err;
    EXPECT_EQ(difference(json_report(from_text->rows, from_text->meta), text),
              "");

    // The file reader streams through a 64 KiB buffer: a 10 MB report puts
    // strings, escapes, numbers and literals across its refills.
    const std::string path = temp_path("random_report.json");
    write_file(path, text);
    const auto from_file = parse_report_file(path, &err);
    ASSERT_TRUE(from_file.has_value()) << err;
    EXPECT_EQ(difference(json_report(from_file->rows, from_file->meta), text),
              "");

    const std::string journal_path = temp_path("random_journal.jsonl");
    std::remove(journal_path.c_str());
    JournalWriter w;
    ASSERT_TRUE(w.open(journal_path, want.meta, 1u << 30, &err)) << err;
    for (const SweepResult& r : want.rows) w.append(r);
    ASSERT_TRUE(w.close());
    const auto journal = load_journal(journal_path, &err);
    ASSERT_TRUE(journal.has_value()) << err;
    EXPECT_EQ(difference(json_report(journal->rows, journal->meta), text), "");
}

/// The "key": value pairs of an emitted row, split at the commas outside
/// strings.
std::vector<std::string> row_pairs(const std::string& line) {
    std::vector<std::string> out(1);
    bool in_string = false;
    bool escaped = false;
    for (std::size_t i = 1; i + 1 < line.size(); ++i) { // inside the braces
        const char c = line[i];
        if (in_string) {
            if (escaped) escaped = false;
            else if (c == '\\') escaped = true;
            else if (c == '"') in_string = false;
        } else if (c == '"') {
            in_string = true;
        } else if (c == ',') {
            out.emplace_back();
            continue;
        }
        if (c != ' ' || in_string || !out.back().empty()) out.back() += c;
    }
    return out;
}

TEST(ReportReader, ShuffledAndUnknownKeysParseToTheSameRow) {
    static const std::string kUnknown[] = {
        R"("x": [1, {"y": null}])",
        R"("zz": {"a": [true, false, "s\n\u00e9\\"], "b": -1.5e3, "c": {}})",
        R"("ok_not": [])",
        R"("": "")",
        "\"nested\": [[[[{\"a\": [\"\\u0041\", {}]}]]]]",
    };
    const ParsedReport report = random_report();
    std::mt19937_64 rng{7};
    std::string err;
    for (const SweepResult& r : report.rows) {
        const std::string line = row_text(r);
        std::vector<std::string> pairs = row_pairs(line);
        std::shuffle(pairs.begin(), pairs.end(), rng);
        for (u64 n = rng() % 3; n > 0; --n)
            pairs.insert(pairs.begin() +
                             static_cast<std::ptrdiff_t>(rng() % (pairs.size() + 1)),
                         kUnknown[rng() % std::size(kUnknown)]);
        std::string shuffled = "{";
        for (std::size_t i = 0; i < pairs.size(); ++i)
            shuffled += (i == 0 ? "" : ",\n ") + pairs[i];
        shuffled += "}";
        SweepResult parsed;
        ASSERT_TRUE(test::parse_row(shuffled, &parsed, &err))
            << err << "\n" << shuffled;
        ASSERT_EQ(row_text(parsed), line) << shuffled;
    }
}

std::string corpus(const char* name) {
    return read_file(std::string{TGSIM_SOURCE_DIR} + "/tests/data/reports/" +
                     name);
}

TEST(ReportReader, ErrorsNameTheLine) {
    // Lines 1-3 are "{", the header and "candidates"; row 1 is line 5.
    std::string text = corpus("funnel_report.json");
    std::size_t at = 0;
    for (int line = 1; line < 5; ++line) at = text.find('\n', at) + 1;
    at = text.find("\"cycles\": ", at) + std::string{"\"cycles\": "}.size();
    text.insert(at, "\"x\"");
    std::string err;
    EXPECT_FALSE(parse_report_text(text, &err).has_value());
    EXPECT_NE(err.find("bad candidate row 1: field 'cycles' missing or not a"
                       " number at line 5"),
              std::string::npos)
        << err;

    std::string journal = corpus("fault_journal_torn.jsonl");
    at = journal.find('\n', journal.find('\n') + 1) + 1; // start of line 3
    journal.insert(at, "]");
    const std::string path = temp_path("corrupt_line3.jsonl");
    write_file(path, journal);
    EXPECT_FALSE(load_journal(path, &err).has_value());
    EXPECT_NE(err.find("corrupt journal line 3: expected '{' at line 3"),
              std::string::npos)
        << err;
}

// A header may claim any candidate count: the rows reserved are capped by
// what the input can hold, so one row under n_candidates 2^32 - 1 parses
// (sizing by the header would ask for ~2 TB), and merge then refuses it.
TEST(ReportReader, LyingCandidateCountReservesOnlyWhatTheInputHolds) {
    SweepMeta meta;
    meta.app = "lying header";
    meta.n_candidates = 0xFFFFFFFFu;
    SweepResult row;
    row.name = "the only row";
    const std::string text = json_report({row}, meta);
    const std::string path = temp_path("lying_header.json");
    write_file(path, text);
    std::string err;
    std::optional<ParsedReport> parsed;
    ASSERT_NO_THROW(parsed = parse_report_file(path, &err));
    ASSERT_TRUE(parsed.has_value()) << err;
    ASSERT_EQ(parsed->rows.size(), 1u);
    EXPECT_LT(parsed->rows.capacity(), 16u);
    ASSERT_NO_THROW(parsed = parse_report_text(text, &err));
    ASSERT_TRUE(parsed.has_value()) << err;
    EXPECT_LT(parsed->rows.capacity(), 16u);

    std::vector<ParsedReport> one;
    one.push_back(std::move(*parsed));
    EXPECT_FALSE(merge_reports(std::move(one), &err).has_value());
    EXPECT_NE(err.find("missing candidates"), std::string::npos) << err;
}

TEST(ShardMerge, SingleShardMergeSortsRowsInPlace) {
    const std::string text = corpus("funnel_report.json"); // canonical form
    std::string err;
    auto parsed = parse_report_text(text, &err);
    ASSERT_TRUE(parsed.has_value()) << err;
    std::reverse(parsed->rows.begin(), parsed->rows.end());
    const SweepResult* rows = parsed->rows.data();
    std::vector<ParsedReport> one;
    one.push_back(std::move(*parsed));
    auto merged = merge_reports(std::move(one), &err);
    ASSERT_TRUE(merged.has_value()) << err;
    EXPECT_EQ(merged->rows.data(), rows) << "merge copied the grid";
    EXPECT_EQ(json_report(merged->rows, merged->meta), text);
}

// --- fuzzing the reader -----------------------------------------------------

/// Feeds `input` to every reader entry point; each must return a value or
/// an error naming the line.
void expect_value_or_line_error(const std::string& input,
                                const std::string& path) {
    write_file(path, input);
    std::string err;
    const auto check = [&err](bool ok, const char* reader) {
        if (!ok) {
            EXPECT_NE(err.find(" at line "), std::string::npos)
                << reader << ": " << err;
        }
        err.clear();
    };
    check(parse_report_text(input, &err).has_value(), "parse_report_text");
    check(parse_report_file(path, &err).has_value(), "parse_report_file");
    check(load_journal(path, &err).has_value(), "load_journal");
}

TEST(ReportReaderFuzz, AnyInputYieldsAReportOrALineNumberedError) {
    const std::string seeds[] = {corpus("funnel_report.json"),
                                 corpus("open_shard1of2_report.json"),
                                 corpus("fault_journal_torn.jsonl")};
    std::string err;
    ASSERT_TRUE(parse_report_text(seeds[0], &err).has_value()) << err;
    ASSERT_TRUE(parse_report_text(seeds[1], &err).has_value()) << err;
    const std::string path = temp_path("fuzz_input");
    write_file(path, seeds[2]);
    const auto torn = load_journal(path, &err);
    ASSERT_TRUE(torn.has_value()) << err;
    EXPECT_EQ(torn->rows.size(), 3u); // the fourth row is the torn tail

    // Seeded byte flips, truncations and insertions of syntax bytes.
    constexpr std::string_view kSyntax = "{}[]\",:\\";
    std::mt19937_64 rng{0xF022};
    for (int i = 0; i < 3000 && !::testing::Test::HasFailure(); ++i) {
        std::string input = seeds[i % std::size(seeds)];
        for (u64 edits = 1 + rng() % 4; edits > 0; --edits) {
            const std::size_t at = rng() % (input.size() + 1);
            switch (rng() % 3) {
                case 0:
                    if (at < input.size())
                        input[at] = static_cast<char>(
                            input[at] ^ static_cast<char>(1u << (rng() % 8)));
                    break;
                case 1: input.resize(at); break;
                default: input.insert(at, 1, kSyntax[rng() % kSyntax.size()]);
            }
        }
        expect_value_or_line_error(input, path);
    }

    // Nesting far past the cap is refused, not recursed into.
    for (const std::string unit : {"[", "{\"a\": "}) {
        std::string deep;
        for (int i = 0; i < 100'000; ++i) deep += unit;
        expect_value_or_line_error(deep, path);
        EXPECT_FALSE(parse_report_text("{\"x\": " + deep, &err).has_value());
        EXPECT_NE(err.find("nesting too deep at line 1"), std::string::npos)
            << err;
    }
}

} // namespace
} // namespace tgsim::sweep
