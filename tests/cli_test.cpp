// Unit tests for the shared CLI helpers (tools/cli.hpp): the declared-
// options parser and its strict shapes — "--jobs=abc", "--print=no",
// a bare "--json", a repeated "--jobs" or an option given where its
// `needs` fails must be fatal usage errors, not silent defaults — the
// campaign identity built from the declarations, and the shared getters
// built on it.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
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
        .add({"tier", K::Choice, "NAME", "cycle", "tier", "", false,
              {"cycle", "analytic", "funnel"}})
        .add({"funnel-top", K::Number, "K", "16", "survivors"})
        .add({"shard", K::Text, "k/N", "", "shard"})
        .add({"topology", K::Text, "KIND,...", "mesh", "topologies"})
        .add({"poll", K::Text, "SPEC", "", "pollable resource", "", false,
              {}, true})
        .add({"source", K::Choice, "MODE", "closed", "loop mode", "", true,
              {"closed", "open"}})
        .add({"max-outstanding", K::Number, "N", "0", "in-flight cap",
              "source=open", true})
        .add({"pending-limit", K::Number, "N", "64", "queue bound",
              "source=open", true});
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
        .add({"source", K::Choice, "MODE", "closed", "loop mode", "", false,
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

/// Options with each form of requirement, and identity options of each
/// kind, declared the way tgsim_sweep declares them.
cli::OptionSet needs_set() {
    using K = cli::OptionSpec::Kind;
    cli::OptionSet set{"tool", "does things"};
    set.add({"pattern", K::Text, "NAME", "", "payload"})
        .add({"tier", K::Choice, "NAME", "cycle", "tier", "pattern", false,
              {"cycle", "funnel"}})
        .add({"top", K::Number, "K", "16", "survivors", "tier=funnel", true})
        .add({"packets", K::Number, "N", "2000", "packets", "pattern", true})
        .add({"app", K::Text, "NAME", "mp_matrix", "benchmark", "!pattern"})
        .add({"truth", K::Flag, "", "", "ground truth", "!pattern", true})
        .add({"jobs", K::Number, "N", "0", "workers"});
    return set;
}

cli::Options parse_needs(std::vector<std::string> argv) {
    return parse(needs_set(), std::move(argv));
}

TEST(CliNeeds, AcceptsOptionsWhoseRequirementHolds) {
    // Order on the command line does not matter: --tier comes after --top.
    const auto funnel =
        parse_needs({"--top=4", "--pattern=x", "--packets=9", "--tier=funnel"});
    EXPECT_EQ(funnel.get_u32("top"), 4u);
    EXPECT_EQ(funnel.get_u32("packets"), 9u);
    const auto traced = parse_needs({"--app=des", "--truth", "--jobs=2"});
    EXPECT_TRUE(traced.has("truth"));
    // An absent option needs nothing: its default stands.
    EXPECT_EQ(parse_needs({}).get_u32("top"), 16u);
}

TEST(CliNeedsDeath, RefusesEachFormOfUnmetRequirement) {
    // A flag that must be given.
    EXPECT_EXIT((void)parse_needs({"--packets=9"}), testing::ExitedWithCode(1),
                "--packets: needs --pattern");
    // A flag with a given value; its default does not meet it.
    EXPECT_EXIT((void)parse_needs({"--pattern=x", "--top=4"}),
                testing::ExitedWithCode(1), "--top: needs --tier=funnel");
    EXPECT_EXIT((void)parse_needs({"--pattern=x", "--tier=cycle", "--top=4"}),
                testing::ExitedWithCode(1), "--top: needs --tier=funnel");
    // A flag that must be absent.
    EXPECT_EXIT((void)parse_needs({"--pattern=x", "--truth"}),
                testing::ExitedWithCode(1), "--truth: not with --pattern");
    EXPECT_EXIT((void)parse_needs({"--app=des", "--pattern=x"}),
                testing::ExitedWithCode(1), "--app: not with --pattern");
}

TEST(CliNeeds, HelpTagsEachRequirement) {
    std::FILE* f = std::tmpfile();
    ASSERT_NE(f, nullptr);
    needs_set().print_help(f);
    std::rewind(f);
    std::string help;
    for (int c = std::fgetc(f); c != EOF; c = std::fgetc(f))
        help += static_cast<char>(c);
    std::fclose(f);
    EXPECT_NE(help.find("survivors [needs --tier=funnel] [default 16]\n"),
              std::string::npos)
        << help;
    EXPECT_NE(help.find("packets [needs --pattern] [default 2000]\n"),
              std::string::npos);
    EXPECT_NE(help.find("ground truth [not with --pattern]\n"),
              std::string::npos);
    EXPECT_NE(help.find("workers [default 0]\n"), std::string::npos);
}

TEST(CliIdentity, AppendsNonDefaultIdentityOptionsInDeclarationOrder) {
    // Nothing given, or an identity option at its default: the bare base.
    EXPECT_EQ(parse_needs({}).identity("mp_matrix"), "mp_matrix");
    EXPECT_EQ(parse_needs({"--pattern=x", "--packets=2000"}).identity("p"),
              "p");
    // Declaration order, not command-line order; --tier and --jobs are not
    // identity options.
    EXPECT_EQ(parse_needs({"--pattern=x", "--packets=50", "--tier=funnel",
                           "--top=4", "--jobs=3"})
                  .identity("p"),
              "p top=4 packets=50");
    // A flag renders as its bare name; --app is not an identity option.
    EXPECT_EQ(parse_needs({"--app=des", "--truth"}).identity("des"),
              "des truth");
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
    EXPECT_EXIT((void)make_args({"--pending-limit=32"}),
                testing::ExitedWithCode(1),
                "--pending-limit: needs --source=open");
    EXPECT_EXIT((void)make_args({"--source=closed", "--max-outstanding=2"}),
                testing::ExitedWithCode(1),
                "--max-outstanding: needs --source=open");
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

TEST(CliMesh, ParsesSpecsUpToTheNodeIdLimit) {
    EXPECT_EQ(cli::parse_mesh("auto", 4)->width, 0u);
    const auto m = cli::parse_mesh("3x2", 8);
    ASSERT_TRUE(m);
    EXPECT_EQ(m->width, 3u);
    EXPECT_EQ(m->height, 2u);
    EXPECT_EQ(m->fifo_depth, 8u);
    const auto edge = cli::parse_mesh("255x257", 4); // exactly 65535 nodes
    ASSERT_TRUE(edge);
    EXPECT_EQ(edge->width * edge->height, ic::kMaxNodes);
    for (const char* bad : {"3", "x3", "3x", "0x3", "3x0", "3x2x2", "-1x2",
                            "3x+2", " 3x2"})
        EXPECT_FALSE(cli::parse_mesh(bad, 4)) << bad;
}

TEST(CliMeshDeath, OversizedGridsAreParseTimeErrors) {
    // Node ids are 16-bit: 300x300 used to truncate them silently, and
    // 70000x70000 also overflows a u32 node count.
    EXPECT_EXIT((void)cli::parse_mesh("300x300", 4),
                testing::ExitedWithCode(1),
                "--mesh: '300x300' exceeds 65535 nodes");
    EXPECT_EXIT((void)cli::parse_mesh("256x256", 4),
                testing::ExitedWithCode(1),
                "--mesh: '256x256' exceeds 65535 nodes");
    EXPECT_EXIT((void)cli::parse_mesh("70000x70000", 4),
                testing::ExitedWithCode(1),
                "--mesh: '70000x70000' exceeds 65535 nodes");
    EXPECT_EXIT((void)cli::parse_mesh("99999999999999999999x2", 4),
                testing::ExitedWithCode(1), "--mesh: .* exceeds 65535 nodes");
    EXPECT_EXIT((void)cli::parse_mesh("65536x65536", 4, "grid"),
                testing::ExitedWithCode(1),
                "--grid: '65536x65536' exceeds 65535 nodes");
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

/// Writes `bytes` to a fresh file under the test temp directory.
std::string write_bytes(const std::string& name, const std::string& bytes) {
    const std::string path = testing::TempDir() + name;
    std::ofstream{path, std::ios::binary} << bytes;
    return path;
}

TEST(CliImageDeath, PartialTrailingWordIsAnError) {
    // Three bytes used to load as an empty image and "disassemble" to an
    // empty program with exit 0.
    const std::string path = write_bytes("cli_test_partial.bin", "abc");
    EXPECT_EXIT((void)cli::disassemble_image("tgsim-tgdis", path),
                testing::ExitedWithCode(1),
                "tgsim-tgdis: .*cli_test_partial.bin: image size 3 bytes is not a "
                "multiple of 4");
}

TEST(CliImageDeath, MalformedImageNamesToolAndFile) {
    // One SetRegister word without its immediate: disassemble() throws,
    // which must become a usage error, not an abort.
    const u32 w0 = tg::encode_w0(tg::TgOp::SetRegister, 1);
    std::string bytes;
    for (int k = 0; k < 4; ++k) bytes += static_cast<char>((w0 >> (8 * k)) & 0xFF);
    const std::string path = write_bytes("cli_test_truncated.bin", bytes);
    EXPECT_EXIT((void)cli::disassemble_image("tgsim-tgdis", path),
                testing::ExitedWithCode(1),
                "tgsim-tgdis: .*cli_test_truncated.bin: disassemble: truncated image");
}

TEST(CliTextDeath, MalformedProgramNamesToolAndFile) {
    // An out-of-range operand used to escape as std::out_of_range and abort.
    const std::string path = write_bytes("cli_test_bad.tgp",
                                         "MASTER[0,0]\nBEGIN\n  Read()\nEND\n");
    EXPECT_EXIT((void)cli::load_program("tgsim-tgasm", path), testing::ExitedWithCode(1),
                "tgsim-tgasm: .*cli_test_bad.tgp: tgp: line 3: Read takes 1 operand");
}

TEST(CliTextDeath, MalformedTraceNamesToolAndFile) {
    const std::string path =
        write_bytes("cli_test_bad.trc", "CORE 0 THREAD 0\nEVT RD 0x0 assert=99999999999999999999\n");
    EXPECT_EXIT((void)cli::load_trace("tgsim-translate", path), testing::ExitedWithCode(1),
                "tgsim-translate: .*cli_test_bad.trc: trc: line 2: bad assert cycle");
}

} // namespace
} // namespace tgsim
