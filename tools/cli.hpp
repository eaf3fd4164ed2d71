// Shared helpers for the tgsim command-line tools: the declared-options
// parser, the benchmark/workload factory, and binary image file I/O.
//
// Flag rules, the same in all seven tools:
//   - every option is declared once, in the tool's OptionSet (name, value
//     kind, help metavar, default, help line, when it means something,
//     whether it is campaign identity), and read only through the Options
//     that OptionSet::parse returns — getters return the declared default,
//     so a default cannot differ between help and code;
//   - shapes are strict: a flag (--print) takes no value, a valued option
//     needs --name=value, an option given twice is an error unless it is
//     declared repeatable, an undeclared --name is an error, and Number
//     and Choice values are validated before any work starts — each a
//     usage error (exit 1) whose message names the flag;
//   - an option given where it means nothing (its `needs` fails) is a
//     usage error too, never silently ignored;
//   - --help prints help generated from the declarations and exits 0.
#pragma once

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "apps/apps.hpp"
#include "platform/platform.hpp"
#include "sweep/shard.hpp"
#include "sweep/sweep.hpp"
#include "tg/source.hpp"
#include "tg/translator.hpp"

namespace tgsim::cli {

/// Strict unsigned parse (decimal, 0x hex or 0 octal): the whole string must
/// be consumed and in range, otherwise nullopt. Unlike bare strtoull this
/// rejects empty strings, signs, leading whitespace and trailing garbage —
/// "--jobs=abc" must be an error, not "one worker per hardware thread".
[[nodiscard]] inline std::optional<u64> parse_u64(const std::string& s) {
    if (s.empty() || !std::isdigit(static_cast<unsigned char>(s[0])))
        return std::nullopt;
    errno = 0;
    char* end = nullptr;
    const u64 v = std::strtoull(s.c_str(), &end, 0);
    if (end != s.c_str() + s.size() || errno == ERANGE) return std::nullopt;
    return v;
}

/// parse_u64 or exit(1) with a message naming the offending flag/field.
inline u64 parse_u64_or_die(const std::string& s, const std::string& what) {
    const auto v = parse_u64(s);
    if (!v) {
        std::fprintf(stderr, "%s: invalid number '%s'\n", what.c_str(),
                     s.c_str());
        std::exit(1);
    }
    return *v;
}

/// Same, for 32-bit consumers: out-of-range values are a usage error, not a
/// silent truncation.
inline u32 parse_u32_or_die(const std::string& s, const std::string& what) {
    const u64 v = parse_u64_or_die(s, what);
    if (v > 0xFFFFFFFFull) {
        std::fprintf(stderr, "%s: value '%s' out of 32-bit range\n",
                     what.c_str(), s.c_str());
        std::exit(1);
    }
    return static_cast<u32>(v);
}

// ---- declared options ------------------------------------------------

struct OptionSpec {
    /// How parse validates a supplied value. Text covers open-ended forms
    /// (paths, comma lists, "WxH" specs) that the tool's own getter
    /// validates with a context-specific diagnostic.
    enum class Kind : u8 { Flag, Number, Text, Choice };
    const char* name = "";    ///< flag name without the leading "--"
    Kind kind = Kind::Text;
    const char* arg = "";     ///< help metavar, e.g. "N", "WxH", "PATH"
    const char* fallback = ""; ///< the default, also rendered in help
    const char* help = "";    ///< one-line description
    /// When the option means something: "" always, "flag" when --flag is
    /// given, "flag=value" when --flag's value (or default) is `value`,
    /// "!flag" when --flag is absent. parse refuses the option otherwise.
    const char* needs = "";
    /// The option changes the rows and no SweepMeta field records it, so
    /// it is part of the campaign identity (Options::identity).
    bool identity = false;
    std::vector<const char*> choices = {}; ///< Choice: the closed token set
    bool repeatable = false;  ///< may be given more than once
};

/// Prints `--name: what` to stderr and exits 1.
[[noreturn]] inline void usage_error(std::string_view name,
                                     const std::string& what) {
    std::fprintf(stderr, "--%.*s: %s\n", static_cast<int>(name.size()),
                 name.data(), what.c_str());
    std::exit(1);
}

/// An OptionSpec::needs requirement in words: "needs --flag[=value]" or
/// "not with --flag".
inline std::string requirement(std::string_view needs) {
    if (needs[0] == '!') return "not with --" + std::string{needs.substr(1)};
    return "needs --" + std::string{needs};
}

/// The validated command line of one tool, as OptionSet::parse returns it.
class Options {
public:
    /// True when --name was given.
    [[nodiscard]] bool has(std::string_view name) const {
        return !values_[slot(name)].empty();
    }
    /// The value of --name (the last one, for a repeatable option), or its
    /// declared default when it was not given.
    [[nodiscard]] std::string get(std::string_view name) const {
        const std::size_t i = slot(name);
        return values_[i].empty() ? specs_[i].fallback : values_[i].back();
    }
    /// Every value of a repeatable option, in command-line order.
    [[nodiscard]] const std::vector<std::string>& get_all(
        std::string_view name) const {
        return values_[slot(name)];
    }
    /// Numeric value or declared default; unparsable is a usage error.
    [[nodiscard]] u64 get_u64(std::string_view name) const {
        return parse_u64_or_die(get(name), "--" + std::string{name});
    }
    /// 32-bit variant; values beyond u32 are a usage error too.
    [[nodiscard]] u32 get_u32(std::string_view name) const {
        return parse_u32_or_die(get(name), "--" + std::string{name});
    }
    [[nodiscard]] const std::vector<std::string>& positional() const {
        return positional_;
    }
    /// The campaign identity (the report's sweep.app): `base`, then
    /// " name=value" (" name" for a flag) for each identity option given
    /// with a value other than its declared default, in declaration order.
    [[nodiscard]] std::string identity(std::string base) const {
        for (std::size_t i = 0; i < specs_.size(); ++i) {
            const OptionSpec& s = specs_[i];
            if (!s.identity || values_[i].empty()) continue;
            if (s.kind == OptionSpec::Kind::Flag)
                base += std::string{" "} + s.name;
            else if (values_[i].back() != s.fallback)
                base += std::string{" "} + s.name + "=" + values_[i].back();
        }
        return base;
    }

private:
    friend class OptionSet;
    explicit Options(std::vector<OptionSpec> specs)
        : specs_(std::move(specs)), values_(specs_.size()) {}

    /// Index of a declared option. Reading an undeclared one is a bug in
    /// the tool, not a usage error.
    [[nodiscard]] std::size_t slot(std::string_view name) const {
        for (std::size_t i = 0; i < specs_.size(); ++i)
            if (name == specs_[i].name) return i;
        std::fprintf(stderr, "internal error: --%.*s is not declared\n",
                     static_cast<int>(name.size()), name.data());
        std::abort();
    }

    std::vector<OptionSpec> specs_;
    std::vector<std::vector<std::string>> values_; ///< per spec, as given
    std::vector<std::string> positional_;
};

class OptionSet {
public:
    /// `operands` is the usage metavar of the positional arguments, e.g.
    /// "FILE.trc..."; a tool that declares none rejects positionals.
    OptionSet(std::string tool, std::string summary, std::string operands = "")
        : tool_(std::move(tool)),
          summary_(std::move(summary)),
          operands_(std::move(operands)) {}

    OptionSet& add(OptionSpec spec) {
        specs_.push_back(std::move(spec));
        return *this;
    }

    void print_help(std::FILE* out) const {
        std::fprintf(out, "usage: %s [options]%s%s\n%s\n\noptions:\n",
                     tool_.c_str(), operands_.empty() ? "" : " ",
                     operands_.c_str(), summary_.c_str());
        for (const OptionSpec& s : specs_) {
            std::string head = "  --" + std::string{s.name};
            if (s.kind != OptionSpec::Kind::Flag) {
                head += "=";
                head += s.kind == OptionSpec::Kind::Choice && s.arg[0] == '\0'
                            ? "VALUE"
                            : s.arg;
            }
            std::string tail = s.help;
            if (!s.choices.empty()) {
                tail += " (";
                for (std::size_t i = 0; i < s.choices.size(); ++i) {
                    if (i > 0) tail += "|";
                    tail += s.choices[i];
                }
                tail += ")";
            }
            if (s.repeatable) tail += " [repeatable]";
            if (s.needs[0] != '\0') tail += " [" + requirement(s.needs) + "]";
            if (s.fallback[0] != '\0')
                tail += std::string{" [default "} + s.fallback + "]";
            std::fprintf(out, "%-28s %s\n", head.c_str(), tail.c_str());
        }
        std::fprintf(out, "%-28s %s\n", "  --help", "show this help");
    }

    /// Validates argv against the declarations and returns the values.
    /// `--help` prints the generated help and exits 0; anything undeclared,
    /// ill-shaped or given where its `needs` fails is a usage error (exit
    /// 1). Call before any work.
    [[nodiscard]] Options parse(int argc, char** argv) const {
        for (int i = 1; i < argc; ++i)
            if (std::string_view{argv[i]} == "--help") {
                print_help(stdout);
                std::exit(0);
            }
        Options out{specs_};
        for (int i = 1; i < argc; ++i) {
            const std::string_view a = argv[i];
            if (a.substr(0, 2) != "--") {
                if (operands_.empty()) {
                    std::fprintf(stderr,
                                 "%s: unexpected argument '%s' (try --help)\n",
                                 tool_.c_str(), argv[i]);
                    std::exit(1);
                }
                out.positional_.emplace_back(a);
                continue;
            }
            const std::size_t eq = a.find('=');
            const std::string_view name =
                a.substr(2, eq == std::string_view::npos ? eq : eq - 2);
            std::size_t k = 0;
            while (k < specs_.size() && name != specs_[k].name) ++k;
            if (k == specs_.size()) {
                std::fprintf(stderr, "%s: unknown option --%.*s (try --help)\n",
                             tool_.c_str(), static_cast<int>(name.size()),
                             name.data());
                std::exit(1);
            }
            const OptionSpec& spec = specs_[k];
            if (spec.kind == OptionSpec::Kind::Flag) {
                if (eq != std::string_view::npos)
                    usage_error(name, "is a flag and takes no value");
            } else if (eq == std::string_view::npos) {
                usage_error(name, std::string{"needs a value (--"} +
                                      spec.name + "=" + spec.arg + ")");
            }
            if (!out.values_[k].empty() && !spec.repeatable)
                usage_error(name, "given more than once");
            const std::string value{
                eq == std::string_view::npos ? "" : a.substr(eq + 1)};
            check_value(spec, value);
            out.values_[k].push_back(value);
        }
        for (std::size_t k = 0; k < specs_.size(); ++k)
            if (!out.values_[k].empty()) check_needs(specs_[k], out);
        return out;
    }

private:
    /// Eager Number/Choice validation, with the same diagnostics as the
    /// typed getters (parse_u64_or_die / enum_from formats).
    static void check_value(const OptionSpec& spec, const std::string& value) {
        if (spec.kind == OptionSpec::Kind::Number)
            (void)parse_u64_or_die(value, std::string{"--"} + spec.name);
        if (spec.kind != OptionSpec::Kind::Choice) return;
        std::string valid;
        for (const char* c : spec.choices) {
            if (value == c) return;
            if (!valid.empty()) valid += ", ";
            valid += c;
        }
        usage_error(spec.name,
                    "unknown value '" + value + "' (valid: " + valid + ")");
    }

    /// Refuses `spec`, given on the command line, when its requirement
    /// fails on the whole command line.
    static void check_needs(const OptionSpec& spec, const Options& args) {
        const std::string_view need = spec.needs;
        if (need.empty()) return;
        const std::size_t eq = need.find('=');
        bool met = false;
        if (need[0] == '!') met = !args.has(need.substr(1));
        else if (eq == std::string_view::npos) met = args.has(need);
        else met = args.get(need.substr(0, eq)) == need.substr(eq + 1);
        if (!met) usage_error(spec.name, requirement(need));
    }

    std::string tool_;
    std::string summary_;
    std::string operands_;
    std::vector<OptionSpec> specs_;
};

/// Builds one of the paper's benchmarks by name.
inline std::optional<apps::Workload> make_workload(const std::string& app,
                                                   u32 cores, u32 size) {
    if (app == "cacheloop") return apps::make_cacheloop({cores, size});
    if (app == "sp_matrix") return apps::make_sp_matrix({size});
    if (app == "mp_matrix") return apps::make_mp_matrix({cores, size});
    if (app == "des") return apps::make_des({cores, size});
    return std::nullopt;
}

/// Per-app default --size, shared by every tool that runs a benchmark.
inline u32 default_size(const std::string& app) {
    if (app == "cacheloop") return 100000;
    if (app == "des") return 16;
    return 24;
}

/// Splits a comma-separated flag value ("2,4,8" -> {"2","4","8"}); empty
/// input yields no elements.
inline std::vector<std::string> split_list(const std::string& value) {
    std::vector<std::string> out;
    std::istringstream ss{value};
    std::string tok;
    while (std::getline(ss, tok, ',')) {
        if (!tok.empty()) out.push_back(tok);
    }
    return out;
}

/// Shared string→enum dispatch: maps a value through an explicit
/// (token, value) table, or exits listing every valid choice. The tier,
/// process and topology flags all route through here, so the tools cannot
/// grow drifting hand-rolled parsers with inconsistent diagnostics.
/// `extra_choices` names accepted forms beyond the table (e.g. the
/// topology's "file:PATH", which carries a payload and cannot be a table
/// entry).
template <typename E>
[[nodiscard]] inline E enum_from(
    const std::string& what, const std::string& name,
    std::initializer_list<std::pair<const char*, E>> choices,
    const char* extra_choices = nullptr) {
    for (const auto& choice : choices)
        if (name == choice.first) return choice.second;
    std::string valid;
    for (const auto& choice : choices) {
        if (!valid.empty()) valid += ", ";
        valid += choice.first;
    }
    if (extra_choices != nullptr) {
        valid += ", ";
        valid += extra_choices;
    }
    std::fprintf(stderr, "%s: unknown value '%s' (valid: %s)\n", what.c_str(),
                 name.c_str(), valid.c_str());
    std::exit(1);
}

/// enum_from over a declared option (its value or declared default), e.g.
/// get_enum(args, "tier", {{"cycle", Tier::Cycle}, ...}).
template <typename E>
[[nodiscard]] inline E get_enum(
    const Options& args, const std::string& flag,
    std::initializer_list<std::pair<const char*, E>> choices) {
    return enum_from("--" + flag, args.get(flag), choices);
}

/// Parses one mesh spec: "auto" (dimensions chosen by the platform) or
/// "WxH", e.g. "3x3". tgsim_sweep parses its candidate --mesh shapes and
/// its pattern-mode --grid (which rejects "auto" itself) with it.
/// Returns nullopt on a malformed spec. A well-formed spec of more than
/// ic::kMaxNodes nodes is a fatal usage error naming `flag`: node ids are
/// 16-bit on the fabric, so a bigger grid would alias them.
inline std::optional<ic::XpipesConfig> parse_mesh(
    const std::string& spec, u32 fifo_depth, std::string_view flag = "mesh") {
    ic::XpipesConfig mesh;
    mesh.width = 0;
    mesh.height = 0;
    mesh.fifo_depth = fifo_depth;
    if (spec == "auto") return mesh;
    const auto x = spec.find('x');
    // Digits on both sides of the 'x': strtoull alone would also take
    // blanks, signs ("-1" wraps) and an empty height.
    if (x == std::string::npos || x + 1 == spec.size() ||
        !std::isdigit(static_cast<unsigned char>(spec[0])) ||
        !std::isdigit(static_cast<unsigned char>(spec[x + 1])))
        return std::nullopt;
    char* end = nullptr;
    const unsigned long long w = std::strtoull(spec.c_str(), &end, 10);
    if (end != spec.c_str() + x) return std::nullopt;
    const unsigned long long h = std::strtoull(spec.c_str() + x + 1, &end, 10);
    if (*end != '\0') return std::nullopt; // reject trailing junk ("3x2x2")
    if (w == 0 || h == 0) return std::nullopt;
    // Out-of-range digits saturate to ULLONG_MAX; both factors are checked
    // before the product, so it cannot wrap.
    if (w > ic::kMaxNodes || h > ic::kMaxNodes || w * h > ic::kMaxNodes)
        usage_error(flag, "'" + spec + "' exceeds " +
                              std::to_string(ic::kMaxNodes) +
                              " nodes (node ids are 16-bit)");
    mesh.width = static_cast<u32>(w);
    mesh.height = static_cast<u32>(h);
    return mesh;
}

/// Parses one --fifo depth: a number in [2, ic::kMaxFifoDepth]. Router
/// FIFOs are allocated up front, so an out-of-range depth is a fatal usage
/// error naming the flag here, before any candidate is built.
inline u32 parse_fifo_depth(const std::string& s) {
    const u64 depth = parse_u64_or_die(s, "--fifo");
    if (depth < 2 || depth > ic::kMaxFifoDepth) {
        std::fprintf(stderr, "--fifo: depth '%s' outside [2, %u]\n", s.c_str(),
                     ic::kMaxFifoDepth);
        std::exit(1);
    }
    return static_cast<u32>(depth);
}

/// Strict double parse for rate lists; the whole string must be consumed,
/// the value finite and non-negative.
inline std::optional<double> parse_rate(const std::string& s) {
    if (s.empty()) return std::nullopt;
    errno = 0;
    char* end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (end != s.c_str() + s.size() || errno == ERANGE) return std::nullopt;
    if (!(v >= 0.0) || v > 1.0e9) return std::nullopt;
    return v;
}

/// The --rates ladder of tgsim_sweep's pattern mode: offered rates in
/// (0, 1], strictly ascending so rows group into load–latency curves
/// (find_saturation reads them in order).
[[nodiscard]] inline std::vector<double> get_rates(const Options& args) {
    std::vector<double> rates;
    for (const std::string& tok : split_list(args.get("rates"))) {
        const auto r = parse_rate(tok);
        if (!r || *r <= 0.0 || *r > 1.0)
            usage_error("rates", "bad entry '" + tok + "' (need (0,1])");
        if (!rates.empty() && *r <= rates.back())
            usage_error("rates", "must be strictly ascending");
        rates.push_back(*r);
    }
    if (rates.empty()) usage_error("rates", "is empty");
    return rates;
}

/// Shared funnel flags (docs/analytic.md), parsed in one place so
/// tgsim_sweep and future screening tools cannot grow drifting copies:
///   --tier=cycle|analytic|funnel   evaluator tier (default cycle)
///   --funnel-top=K                 cycle-tier survivor budget (default 16)
/// Bad values are fatal usage errors, never silent defaults.
inline sweep::Tier get_tier(const Options& args) {
    return get_enum<sweep::Tier>(args, "tier",
                                 {{"cycle", sweep::Tier::Cycle},
                                  {"analytic", sweep::Tier::Analytic},
                                  {"funnel", sweep::Tier::Funnel}});
}

inline u32 get_funnel_top(const Options& args) {
    const u32 top = args.get_u32("funnel-top");
    if (top == 0) {
        std::fprintf(stderr, "--funnel-top: must be nonzero\n");
        std::exit(1);
    }
    return top;
}

/// Shared distributed-campaign flag (docs/sweep.md), parsed in one place
/// so tgsim_sweep and future campaign tools cannot grow drifting copies:
///   --shard=k/N   evaluate only candidates with index % N == k (original
///                 indices are kept, so shard reports merge byte-identically
///                 via tgsim_merge). Absent = the whole grid.
/// A malformed spec is a fatal usage error, never a silent full run.
inline sweep::ShardSpec get_shard(const Options& args) {
    if (!args.has("shard")) return {};
    const std::string spec = args.get("shard");
    const auto shard = sweep::parse_shard(spec);
    if (!shard) {
        std::fprintf(
            stderr,
            "--shard: bad spec '%s' (need k/N with k < N, e.g. 0/3)\n",
            spec.c_str());
        std::exit(1);
    }
    return *shard;
}

/// The tg::SourceConfig of tgsim_sweep's --source, --max-outstanding and
/// --pending-limit (docs/traffic.md). The offered rate is NOT set here —
/// the sweep's --rates axis owns it (sweep::make_rate_sweep).
[[nodiscard]] inline tg::SourceConfig get_source(const Options& args) {
    tg::SourceConfig s;
    s.mode = get_enum<tg::SourceMode>(
        args, "source",
        {{"closed", tg::SourceMode::Closed}, {"open", tg::SourceMode::Open}});
    s.max_outstanding = args.get_u32("max-outstanding");
    s.pending_limit = args.get_u32("pending-limit");
    if (s.pending_limit == 0) {
        std::fprintf(stderr, "--pending-limit: must be nonzero\n");
        std::exit(1);
    }
    return s;
}

/// The fault-injection axis (docs/faults.md):
///   --fault-rate=R[,R2,...]  total per-flit fault probability in [0, 1],
///                            split evenly across corruption, drop and
///                            transient-stall faults; 0 (the default)
///                            disables the fault layer entirely. A comma
///                            list crosses into the candidate grid as a
///                            sweep axis; --fault-seed=N seeds the stream,
///                            so the same fault sites recur at any --jobs
///                            and in any --shard.
[[nodiscard]] inline std::vector<double> get_fault_rates(const Options& args) {
    std::vector<double> out;
    for (const std::string& tok : split_list(args.get("fault-rate"))) {
        const auto r = parse_rate(tok);
        if (!r || *r > 1.0) {
            std::fprintf(stderr,
                         "bad --fault-rate entry '%s' (need [0, 1])\n",
                         tok.c_str());
            std::exit(1);
        }
        out.push_back(*r);
    }
    if (out.empty()) {
        std::fprintf(stderr, "--fault-rate is empty\n");
        std::exit(1);
    }
    return out;
}

/// FaultConfig for one axis point: the total rate is split evenly across
/// the three fault kinds, so one scalar sweeps all of them and FaultModel's
/// "rates sum to <= 1" validation holds for any total in [0, 1].
[[nodiscard]] inline ic::FaultConfig make_fault(double rate, u64 seed) {
    ic::FaultConfig f;
    f.corrupt_rate = f.drop_rate = f.stall_rate = rate / 3.0;
    f.seed = seed;
    return f;
}

/// The --ic option of tgsim_run and tgsim_replay.
inline platform::IcKind get_ic(const Options& args) {
    return get_enum<platform::IcKind>(args, "ic",
                                      {{"amba", platform::IcKind::Amba},
                                       {"crossbar", platform::IcKind::Crossbar},
                                       {"xpipes", platform::IcKind::Xpipes}});
}

/// Binary image files: raw little-endian 32-bit words.
inline void save_image(const std::vector<u32>& image, const std::string& path) {
    std::ofstream out{path, std::ios::binary};
    if (!out) {
        std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
        std::exit(1);
    }
    for (const u32 w : image) {
        const char bytes[4] = {
            static_cast<char>(w & 0xFF), static_cast<char>((w >> 8) & 0xFF),
            static_cast<char>((w >> 16) & 0xFF),
            static_cast<char>((w >> 24) & 0xFF)};
        out.write(bytes, 4);
    }
}

/// A file whose size is not a whole number of words throws
/// std::invalid_argument rather than loading with its tail dropped.
inline std::vector<u32> load_image(const std::string& path) {
    std::ifstream in{path, std::ios::binary};
    if (!in) {
        std::fprintf(stderr, "cannot open %s\n", path.c_str());
        std::exit(1);
    }
    const std::string raw{std::istreambuf_iterator<char>{in},
                          std::istreambuf_iterator<char>{}};
    if (raw.size() % 4 != 0)
        throw std::invalid_argument{"image size " + std::to_string(raw.size()) +
                                    " bytes is not a multiple of 4 (TG images "
                                    "are 32-bit words)"};
    std::vector<u32> image;
    image.reserve(raw.size() / 4);
    for (std::size_t i = 0; i < raw.size(); i += 4) {
        image.push_back(static_cast<u32>(static_cast<u8>(raw[i])) |
                        (static_cast<u32>(static_cast<u8>(raw[i + 1])) << 8) |
                        (static_cast<u32>(static_cast<u8>(raw[i + 2])) << 16) |
                        (static_cast<u32>(static_cast<u8>(raw[i + 3])) << 24));
    }
    return image;
}

inline std::string read_text_file(const std::string& path) {
    std::ifstream in{path};
    if (!in) {
        std::fprintf(stderr, "cannot open %s\n", path.c_str());
        std::exit(1);
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/// Returns `load()`, which reads and parses the file at `path`; whatever it
/// throws prints "TOOL: FILE: message" and exits 1 instead of aborting.
template <class Load>
auto load_or_exit(const char* tool, const std::string& path, Load&& load)
    -> decltype(load()) {
    try {
        return load();
    } catch (const std::exception& e) {
        std::fprintf(stderr, "%s: %s: %s\n", tool, path.c_str(), e.what());
        std::exit(1);
    }
}

/// Loads and disassembles the TG image in `path` (errors exit 1).
inline tg::TgProgram disassemble_image(const char* tool, const std::string& path) {
    return load_or_exit(tool, path, [&] { return tg::disassemble(load_image(path)); });
}

/// Loads and parses the .tgp program in `path` (errors exit 1).
inline tg::TgProgram load_program(const char* tool, const std::string& path) {
    return load_or_exit(tool, path,
                        [&] { return tg::program_from_text(read_text_file(path)); });
}

/// Loads and parses the .trc trace in `path` (errors exit 1).
inline tg::Trace load_trace(const char* tool, const std::string& path) {
    return load_or_exit(tool, path,
                        [&] { return tg::trace_from_text(read_text_file(path)); });
}

inline void write_text_file(const std::string& path, const std::string& text) {
    std::ofstream out{path};
    if (!out) {
        std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
        std::exit(1);
    }
    out << text;
}

/// One parsed --topology token (docs/topology.md):
///   mesh       the XY-routed 2D mesh (default; campaign identities stay
///              byte-compatible with pre-topology reports)
///   torus      2D torus with wrap links and minimal XY routing
///   file:PATH  table-routed graph in the docs/topology.md text format
struct TopologyChoice {
    ic::TopologyKind kind = ic::TopologyKind::Mesh;
    std::shared_ptr<const ic::GraphSpec> graph; ///< engaged iff kind == Table
};

/// Parses one --topology token. The graph file is loaded and validated
/// eagerly, so a malformed or disconnected graph is a fatal usage error
/// before any simulation starts, and every sweep worker shares the single
/// parsed spec.
[[nodiscard]] inline TopologyChoice parse_topology_or_die(
    const std::string& token, const std::string& what) {
    TopologyChoice out;
    if (token.rfind("file:", 0) == 0) {
        const std::string path = token.substr(5);
        if (path.empty()) {
            std::fprintf(stderr, "%s: empty graph path in '%s'\n",
                         what.c_str(), token.c_str());
            std::exit(1);
        }
        std::string err;
        auto spec = ic::parse_graph(read_text_file(path), path, &err);
        if (!spec) {
            std::fprintf(stderr, "%s: %s\n", what.c_str(), err.c_str());
            std::exit(1);
        }
        out.kind = ic::TopologyKind::Table;
        out.graph = std::make_shared<const ic::GraphSpec>(std::move(*spec));
        return out;
    }
    out.kind = enum_from<ic::TopologyKind>(
        what, token,
        {{"mesh", ic::TopologyKind::Mesh},
         {"torus", ic::TopologyKind::Torus}},
        "file:PATH");
    return out;
}

/// The --topology axis: a comma list crossed into tgsim_sweep's candidate
/// grid. Default is the plain mesh.
[[nodiscard]] inline std::vector<TopologyChoice> get_topologies(
    const Options& args) {
    std::vector<TopologyChoice> out;
    for (const std::string& tok : split_list(args.get("topology")))
        out.push_back(parse_topology_or_die(tok, "--topology"));
    if (out.empty()) {
        std::fprintf(stderr, "--topology is empty\n");
        std::exit(1);
    }
    return out;
}

/// Fatal parse-time capacity check: an explicit fabric must host n_cores
/// cores plus the shared memory and semaphore bank
/// (platform::xpipes_nodes_needed). A --mesh too small for the --grid used
/// to surface only as a mid-sweep setup error — or a Platform throw after
/// minutes of other candidates; now it fails in milliseconds with the
/// numbers spelled out. Auto-sized meshes always fit and pass through.
inline void check_fabric_capacity(const ic::XpipesConfig& fabric, u32 n_cores,
                                  const std::string& what) {
    u32 nodes = 0;
    if (fabric.topology == ic::TopologyKind::Table) {
        nodes = fabric.graph ? fabric.graph->nodes : 0;
    } else {
        if (fabric.width == 0 || fabric.height == 0) return; // auto-sized
        nodes = fabric.width * fabric.height;
    }
    const u32 needed = platform::xpipes_nodes_needed(n_cores);
    if (nodes < needed) {
        std::fprintf(stderr,
                     "%s: %u node(s) cannot host the %u-core grid plus 2 "
                     "shared slaves (need >= %u nodes)\n",
                     what.c_str(), nodes, n_cores, needed);
        std::exit(1);
    }
}

/// Parses repeated --poll=base:size:retry_cmp:value:idle specs, e.g.
/// --poll=0x30000000:256:eq:0:1
inline std::vector<tg::PollSpec> parse_polls(const std::vector<std::string>& raw) {
    std::vector<tg::PollSpec> polls;
    for (const std::string& spec : raw) {
        std::vector<std::string> parts;
        std::istringstream ss{spec};
        std::string tok;
        while (std::getline(ss, tok, ':')) parts.push_back(tok);
        if (parts.size() != 5) {
            std::fprintf(stderr, "bad --poll spec '%s'\n", spec.c_str());
            std::exit(1);
        }
        tg::PollSpec p;
        p.base = parse_u32_or_die(parts[0], "--poll base");
        p.size = parse_u32_or_die(parts[1], "--poll size");
        if (parts[2] == "eq") p.retry_cmp = tg::TgCmp::Eq;
        else if (parts[2] == "ne") p.retry_cmp = tg::TgCmp::Ne;
        else if (parts[2] == "ltu") p.retry_cmp = tg::TgCmp::Ltu;
        else if (parts[2] == "geu") p.retry_cmp = tg::TgCmp::Geu;
        else {
            std::fprintf(stderr, "bad --poll cmp '%s'\n", parts[2].c_str());
            std::exit(1);
        }
        p.retry_value = parse_u32_or_die(parts[3], "--poll value");
        p.inter_poll_idle = parse_u32_or_die(parts[4], "--poll idle");
        polls.push_back(p);
    }
    return polls;
}

} // namespace tgsim::cli
