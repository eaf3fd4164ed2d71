// Unit tests for the shared CLI helpers (tools/cli.hpp): the declared-
// options parser and its strict shapes — "--jobs=abc", "--print=no",
// a bare "--json" or a repeated "--jobs" must be fatal usage errors, not
// silent defaults — and the shared getters built on it.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "cli.hpp"

namespace tgsim {
namespace {

/// Every option the shared getters read, declared the way the tools do.
cli::OptionSet shared_set() {
    using K = cli::OptionSpec::Kind;
    cli::OptionSet set{"tool", "does things", "FILE..."};
    set.add({"jobs", K::Number, "N", "0", "workers"})
        .add({"cores", K::Number, "N", "7", "cores"})
        .add({"json", K::Text, "PATH", "", "report"})
        .add({"flag", K::Flag, "", "", "a flag"})
        .add({"tier", K::Choice, "NAME", "cycle", "tier",
              {"cycle", "analytic", "funnel"}})
        .add({"funnel-top", K::Number, "K", "16", "survivors"})
        .add({"shard", K::Text, "k/N", "", "shard"})
        .add({"topology", K::Text, "KIND,...", "mesh", "topologies"})
        .add({"poll", K::Text, "SPEC", "", "pollable resource", {}, true});
    cli::add_source_options(set);
    return set;
}

cli::Options parse(const cli::OptionSet& set, std::vector<std::string> argv) {
    argv.insert(argv.begin(), "tool");
    std::vector<char*> raw;
    for (std::string& a : argv) raw.push_back(a.data());
    return set.parse(static_cast<int>(raw.size()), raw.data());
}

cli::Options make_args(std::vector<std::string> argv) {
    return parse(shared_set(), std::move(argv));
}

TEST(CliParseU64, AcceptsDecimalHexOctal) {
    EXPECT_EQ(cli::parse_u64("0"), 0u);
    EXPECT_EQ(cli::parse_u64("42"), 42u);
    EXPECT_EQ(cli::parse_u64("0x30000000"), 0x30000000u);
    EXPECT_EQ(cli::parse_u64("010"), 8u); // strtoull octal, base 0
    EXPECT_EQ(cli::parse_u64("18446744073709551615"), ~u64{0});
}

TEST(CliParseU64, RejectsGarbage) {
    EXPECT_FALSE(cli::parse_u64(""));
    EXPECT_FALSE(cli::parse_u64("abc"));
    EXPECT_FALSE(cli::parse_u64("12abc"));   // trailing junk
    EXPECT_FALSE(cli::parse_u64("0xZZ"));    // bad hex digits
    EXPECT_FALSE(cli::parse_u64(" 5"));      // leading whitespace
    EXPECT_FALSE(cli::parse_u64("-1"));      // strtoull would wrap this
    EXPECT_FALSE(cli::parse_u64("+5"));
    EXPECT_FALSE(cli::parse_u64("1e6"));
    EXPECT_FALSE(cli::parse_u64("18446744073709551616")); // overflow
}

TEST(CliArgs, FlagsAndPositionals) {
    const auto args = make_args({"--jobs=4", "--json=out.json", "--flag",
                                 "prog.tgp", "other.tgp"});
    EXPECT_TRUE(args.has("flag"));
    EXPECT_FALSE(args.has("tier"));
    EXPECT_EQ(args.get("json"), "out.json");
    EXPECT_EQ(args.get_u64("jobs"), 4u);
    EXPECT_EQ(args.get_u64("cores"), 7u); // the declared default
    EXPECT_EQ(args.get("tier"), "cycle");
    ASSERT_EQ(args.positional().size(), 2u);
    EXPECT_EQ(args.positional()[0], "prog.tgp");
}

using CliArgsDeath = testing::Test;

TEST(CliArgsDeath, GarbageNumericFlagExits) {
    EXPECT_EXIT((void)make_args({"--jobs=abc"}), testing::ExitedWithCode(1),
                "--jobs: invalid number 'abc'");
}

TEST(CliArgsDeath, OutOfU32RangeFlagExits) {
    // 2^32 + 4 is a valid u64, but a u32 consumer must not truncate it to 4.
    const auto args = make_args({"--cores=4294967300"});
    EXPECT_EQ(args.get_u64("cores"), 4294967300ull);
    EXPECT_EXIT((void)args.get_u32("cores"), testing::ExitedWithCode(1),
                "--cores: value '4294967300' out of 32-bit range");
}

TEST(CliArgsDeath, ValuelessNumericFlagExits) {
    // A bare "--jobs" must not read as 0 ("one worker per hardware thread").
    EXPECT_EXIT((void)make_args({"--jobs"}), testing::ExitedWithCode(1),
                "--jobs: needs a value \\(--jobs=N\\)");
}

TEST(CliPolls, ParsesValidSpec) {
    const auto polls = cli::parse_polls({"0x30000000:256:eq:0:1"});
    ASSERT_EQ(polls.size(), 1u);
    EXPECT_EQ(polls[0].base, 0x30000000u);
    EXPECT_EQ(polls[0].size, 256u);
    EXPECT_EQ(polls[0].retry_cmp, tg::TgCmp::Eq);
    EXPECT_EQ(polls[0].retry_value, 0u);
    EXPECT_EQ(polls[0].inter_poll_idle, 1u);
}

TEST(CliPolls, RepeatedPollFlagsAllCount) {
    // Every --poll is a pollable resource, not just the last one.
    const auto args = make_args(
        {"--poll=0x30000000:256:eq:0:1", "--poll=0x40000000:64:ne:1:2"});
    const auto polls = cli::parse_polls(args.get_all("poll"));
    ASSERT_EQ(polls.size(), 2u);
    EXPECT_EQ(polls[0].base, 0x30000000u);
    EXPECT_EQ(polls[1].base, 0x40000000u);
    EXPECT_EQ(polls[1].retry_cmp, tg::TgCmp::Ne);
}

TEST(CliPollsDeath, GarbageNumericFieldExits) {
    EXPECT_EXIT(cli::parse_polls({"bogus:256:eq:0:1"}),
                testing::ExitedWithCode(1), "--poll base: invalid number");
    EXPECT_EXIT(cli::parse_polls({"0x30000000:256:eq:0:soon"}),
                testing::ExitedWithCode(1), "--poll idle: invalid number");
}

TEST(CliTier, ParsesAllTiersAndDefault) {
    EXPECT_EQ(cli::get_tier(make_args({})), sweep::Tier::Cycle);
    EXPECT_EQ(cli::get_tier(make_args({"--tier=cycle"})), sweep::Tier::Cycle);
    EXPECT_EQ(cli::get_tier(make_args({"--tier=analytic"})),
              sweep::Tier::Analytic);
    EXPECT_EQ(cli::get_tier(make_args({"--tier=funnel"})),
              sweep::Tier::Funnel);
    EXPECT_EQ(cli::get_funnel_top(make_args({})), 16u);
    EXPECT_EQ(cli::get_funnel_top(make_args({"--funnel-top=3"})), 3u);
}

TEST(CliShard, ParsesSpecAndDefaultsToUnsharded) {
    const sweep::ShardSpec none = cli::get_shard(make_args({}));
    EXPECT_EQ(none.index, 0u);
    EXPECT_EQ(none.count, 1u);
    const sweep::ShardSpec s = cli::get_shard(make_args({"--shard=2/5"}));
    EXPECT_EQ(s.index, 2u);
    EXPECT_EQ(s.count, 5u);
}

TEST(CliShardDeath, BadSpecsAreFatalNotDefaulted) {
    EXPECT_EXIT((void)cli::get_shard(make_args({"--shard=3/3"})),
                testing::ExitedWithCode(1), "--shard: bad spec '3/3'");
    EXPECT_EXIT((void)cli::get_shard(make_args({"--shard="})),
                testing::ExitedWithCode(1), "--shard: bad spec");
    EXPECT_EXIT((void)cli::get_shard(make_args({"--shard=0-3"})),
                testing::ExitedWithCode(1), "--shard: bad spec '0-3'");
}

TEST(CliTierDeath, BadValuesAreFatalNotDefaulted) {
    // get_enum diagnostics list every valid choice, so a typo is
    // self-correcting from the error message alone.
    EXPECT_EXIT((void)cli::get_tier(make_args({"--tier=fast"})),
                testing::ExitedWithCode(1),
                "--tier: unknown value 'fast' \\(valid: cycle, analytic, "
                "funnel\\)");
    EXPECT_EXIT((void)cli::get_tier(make_args({"--tier="})),
                testing::ExitedWithCode(1), "--tier: unknown value");
    EXPECT_EXIT((void)cli::get_funnel_top(make_args({"--funnel-top=0"})),
                testing::ExitedWithCode(1), "--funnel-top: must be nonzero");
    EXPECT_EXIT((void)cli::get_funnel_top(make_args({"--funnel-top=many"})),
                testing::ExitedWithCode(1), "--funnel-top: invalid number");
}

TEST(CliTopology, ParsesKindsAndDefault) {
    const auto def = cli::get_topologies(make_args({}));
    ASSERT_EQ(def.size(), 1u);
    EXPECT_EQ(def[0].kind, ic::TopologyKind::Mesh);
    EXPECT_EQ(def[0].graph, nullptr);
    const auto axis =
        cli::get_topologies(make_args({"--topology=mesh,torus"}));
    ASSERT_EQ(axis.size(), 2u);
    EXPECT_EQ(axis[0].kind, ic::TopologyKind::Mesh);
    EXPECT_EQ(axis[1].kind, ic::TopologyKind::Torus);
}

TEST(CliTopologyDeath, BadValuesAreFatalNotDefaulted) {
    EXPECT_EXIT((void)cli::get_topologies(make_args({"--topology=ring"})),
                testing::ExitedWithCode(1),
                "--topology: unknown value 'ring' \\(valid: mesh, torus, "
                "file:PATH\\)");
    EXPECT_EXIT((void)cli::get_topologies(make_args({"--topology=file:"})),
                testing::ExitedWithCode(1), "--topology: empty graph path");
    EXPECT_EXIT((void)cli::get_topologies(make_args({"--topology="})),
                testing::ExitedWithCode(1), "--topology is empty");
}

cli::OptionSet tiny_set() {
    using K = cli::OptionSpec::Kind;
    cli::OptionSet set{"tool", "does things"};
    set.add({"jobs", K::Number, "N", "1", "workers"})
        .add({"source", K::Choice, "MODE", "closed", "loop mode",
              {"closed", "open"}})
        .add({"json", K::Text, "PATH", "", "report"})
        .add({"print", K::Flag, "", "", "print"});
    return set;
}

cli::Options parse_tiny(std::vector<std::string> argv) {
    return parse(tiny_set(), std::move(argv));
}

TEST(CliOptionSet, AcceptsDeclaredFlagsAndFindsSpecs) {
    const auto args =
        parse_tiny({"--jobs=4", "--source=open", "--json=", "--print"});
    EXPECT_EQ(args.get_u32("jobs"), 4u);
    EXPECT_EQ(args.get("source"), "open");
    EXPECT_TRUE(args.has("json")); // given, with an empty value
    EXPECT_EQ(args.get("json"), "");
    EXPECT_TRUE(args.has("print"));
    EXPECT_EQ(parse_tiny({}).get("source"), "closed");
}

TEST(CliOptionSetDeath, UnknownFlagIsFatal) {
    // A typo like --jobz must not silently run a default sweep for minutes.
    EXPECT_EXIT((void)parse_tiny({"--jobz=4"}), testing::ExitedWithCode(1),
                "tool: unknown option --jobz \\(try --help\\)");
    EXPECT_EXIT((void)parse_tiny({"--ouput=x.bin"}),
                testing::ExitedWithCode(1),
                "tool: unknown option --ouput \\(try --help\\)");
}

TEST(CliOptionSetDeath, InvalidValuesAreCheckedBeforeAnyWork) {
    EXPECT_EXIT((void)parse_tiny({"--jobs=four"}), testing::ExitedWithCode(1),
                "--jobs: invalid number 'four'");
    EXPECT_EXIT((void)parse_tiny({"--source=ajar"}),
                testing::ExitedWithCode(1),
                "--source: unknown value 'ajar' \\(valid: closed, open\\)");
}

TEST(CliOptionSetDeath, HelpPrintsAndExitsZero) {
    EXPECT_EXIT((void)parse_tiny({"--help"}), testing::ExitedWithCode(0), "");
    // --help wins over anything else on the line.
    EXPECT_EXIT((void)parse_tiny({"--jobz", "--help"}),
                testing::ExitedWithCode(0), "");
}

TEST(CliOptionSetDeath, FlagGivenAValueIsFatal) {
    // --print=no must not print.
    EXPECT_EXIT((void)parse_tiny({"--print=no"}), testing::ExitedWithCode(1),
                "--print: is a flag and takes no value");
}

TEST(CliOptionSetDeath, ValuedOptionWithoutValueIsFatal) {
    // A bare --trace-dir must not mean the directory "".
    EXPECT_EXIT((void)parse_tiny({"--json"}), testing::ExitedWithCode(1),
                "--json: needs a value \\(--json=PATH\\)");
}

TEST(CliOptionSetDeath, RepeatedOptionIsFatalUnlessRepeatable) {
    // --jobs=2 --jobs=4 must not keep one of the two silently.
    EXPECT_EXIT((void)parse_tiny({"--jobs=2", "--jobs=4"}),
                testing::ExitedWithCode(1), "--jobs: given more than once");
    EXPECT_EXIT((void)parse_tiny({"--print", "--print"}),
                testing::ExitedWithCode(1), "--print: given more than once");
}

TEST(CliOptionSetDeath, PositionalArgumentNeedsDeclaredOperands) {
    EXPECT_EXIT((void)parse_tiny({"jobs=4"}), testing::ExitedWithCode(1),
                "tool: unexpected argument 'jobs=4' \\(try --help\\)");
}

TEST(CliSource, DefaultsToClosedAndParsesOpenKnobs) {
    const tg::SourceConfig def = cli::get_source(make_args({}));
    EXPECT_EQ(def.mode, tg::SourceMode::Closed);
    EXPECT_FALSE(def.open());
    const tg::SourceConfig open = cli::get_source(make_args(
        {"--source=open", "--max-outstanding=4", "--pending-limit=32"}));
    EXPECT_TRUE(open.open());
    EXPECT_EQ(open.max_outstanding, 4u);
    EXPECT_EQ(open.pending_limit, 32u);
}

TEST(CliSourceDeath, OpenOnlyKnobsRequireOpenMode) {
    // Silently ignoring --pending-limit on a closed run would misreport
    // what the campaign actually swept.
    EXPECT_EXIT((void)cli::get_source(make_args({"--pending-limit=32"})),
                testing::ExitedWithCode(1),
                "--max-outstanding/--pending-limit need --source=open");
    EXPECT_EXIT((void)cli::get_source(make_args({"--max-outstanding=2"})),
                testing::ExitedWithCode(1),
                "--max-outstanding/--pending-limit need --source=open");
    EXPECT_EXIT((void)cli::get_source(
                    make_args({"--source=open", "--pending-limit=0"})),
                testing::ExitedWithCode(1),
                "--pending-limit: must be nonzero");
}

TEST(CliFifo, AcceptsTheDocumentedRange) {
    EXPECT_EQ(cli::parse_fifo_depth("2"), 2u);
    EXPECT_EQ(cli::parse_fifo_depth("8"), 8u);
    EXPECT_EQ(cli::parse_fifo_depth("256"), ic::kMaxFifoDepth);
}

TEST(CliFifoDeath, OutOfRangeDepthsAreParseTimeErrors) {
    // Router FIFOs are allocated up front: --fifo=4000000000 must never
    // reach the arena, and --fifo=1 must not fail once per candidate.
    EXPECT_EXIT((void)cli::parse_fifo_depth("1"), testing::ExitedWithCode(1),
                "--fifo: depth '1' outside \\[2, 256\\]");
    EXPECT_EXIT((void)cli::parse_fifo_depth("257"), testing::ExitedWithCode(1),
                "--fifo: depth '257' outside \\[2, 256\\]");
    EXPECT_EXIT((void)cli::parse_fifo_depth("4000000000"),
                testing::ExitedWithCode(1),
                "--fifo: depth '4000000000' outside \\[2, 256\\]");
    EXPECT_EXIT((void)cli::parse_fifo_depth("four"),
                testing::ExitedWithCode(1), "--fifo: invalid number 'four'");
}

TEST(CliCapacityDeath, TooSmallFabricIsAParseTimeError) {
    // 16 cores need 18 nodes (cores + shared memory + semaphores): a 4x4
    // --mesh paired with a 4x4 --grid used to be accepted here and fail
    // only mid-sweep.
    ic::XpipesConfig mesh;
    mesh.width = 4;
    mesh.height = 4;
    EXPECT_EXIT(cli::check_fabric_capacity(mesh, 16, "--mesh"),
                testing::ExitedWithCode(1),
                "--mesh: 16 node\\(s\\) cannot host the 16-core grid plus 2 "
                "shared slaves \\(need >= 18 nodes\\)");
    mesh.height = 5; // 20 nodes: fits
    cli::check_fabric_capacity(mesh, 16, "--mesh");
    mesh.width = 0; // auto-sized: always fits
    mesh.height = 0;
    cli::check_fabric_capacity(mesh, 16, "--mesh");
}

} // namespace
} // namespace tgsim
