#include "sweep/shard.hpp"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <iterator>
#include <memory>
#include <string_view>
#include <utility>

namespace tgsim::sweep {

namespace {

bool set_error(std::string* error, std::string msg) {
    if (error != nullptr) *error = std::move(msg);
    return false;
}

std::string field_error(std::string_view key, const char* what) {
    return "field '" + std::string{key} + "' " + what;
}

/// What a value of format F that is absent or of the wrong JSON kind is
/// reported as.
constexpr const char* missing_message(RowFmt f) {
    switch (f) {
        case RowFmt::Str:
        case RowFmt::Failure: return "missing or not a string";
        case RowFmt::Bool: return "missing or not a bool";
        default: return "missing or not a number";
    }
}

/// Pull reader over exactly the grammar this module's emitters produce:
/// objects, arrays, strings with escapes, numbers, bools and null. It reads
/// a text in memory or streams a FILE through a fixed 64 KiB buffer, and
/// hands every value straight to its destination; no tree is built.
///
/// Newlines may occur only in whitespace (control bytes inside a string
/// must be escaped), so the line count is exact and every error ends in
/// "at line N". Containers nest at most 64 deep, so no input can exhaust
/// the stack. Only the first failure is recorded.
class Reader {
public:
    /// Reads `text`, whose first byte is on line `first_line`.
    explicit Reader(std::string_view text, u32 first_line = 1)
        : p_(text.data()), end_(text.data() + text.size()), line_(first_line) {}

    /// Streams `f`, which stays open and owned by the caller.
    explicit Reader(std::FILE* f)
        : f_(f), buf_(std::make_unique_for_overwrite<char[]>(kBuffer)) {}

    /// The line the next byte is on.
    [[nodiscard]] u32 line() const noexcept { return line_; }

    /// The first failure, ending in "at line N"; empty while none.
    [[nodiscard]] const std::string& error() const noexcept { return err_; }

    bool fail(std::string_view msg) {
        if (err_.empty()) {
            err_ = msg;
            err_ += " at line ";
            err_ += std::to_string(line_);
        }
        return false;
    }

    /// The next byte after whitespace, not consumed; -1 at end of input.
    int next() {
        ws();
        return peek();
    }

    /// True when only whitespace remains.
    bool at_end() { return next() < 0; }

    /// Reads an object, calling on_key(key) for each key; on_key must read
    /// or skip the value. `key` stays valid only until the value is read.
    template <typename OnKey>
    bool object(OnKey&& on_key) {
        if (next() != '{') return fail("expected '{'");
        ++p_;
        if (!enter()) return false;
        if (next() == '}') return leave();
        for (;;) {
            if (next() != '"') return fail("expected object key");
            if (!string(key_)) return false;
            if (next() != ':') return fail("expected ':'");
            ++p_;
            if (!on_key(std::string_view{key_})) return false;
            const int c = next();
            if (c < 0) return fail("unterminated object");
            if (c == '}') return leave();
            if (c != ',') return fail("expected ',' or '}'");
            ++p_;
        }
    }

    /// Reads an array, calling on_item() to read or skip each element.
    template <typename OnItem>
    bool array(OnItem&& on_item) {
        if (next() != '[') return fail("expected '['");
        ++p_;
        if (!enter()) return false;
        if (next() == ']') return leave();
        for (;;) {
            if (!on_item()) return false;
            const int c = next();
            if (c < 0) return fail("unterminated array");
            if (c == ']') return leave();
            if (c != ',') return fail("expected ',' or ']'");
            ++p_;
        }
    }

    /// Reads a string, decoding its escapes into `out`.
    bool string(std::string& out) {
        if (next() != '"') return fail("expected a string");
        ++p_;
        out.clear();
        for (;;) {
            const char* run = p_;
            while (p_ != end_ && *p_ != '"' && *p_ != '\\' &&
                   static_cast<unsigned char>(*p_) >= 0x20)
                ++p_;
            out.append(run, p_);
            const int c = peek(); // refills when the run met the buffer's end
            if (c < 0) return fail("unterminated string");
            if (c < 0x20) return fail("control byte in string");
            if (c == '"' || c == '\\') ++p_;
            if (c == '"') return true;
            if (c == '\\' && !escape(out)) return false;
        }
    }

    /// Reads a number's raw spelling, -?digits(.digits)?([eE][+-]?digits)?
    /// (u64 fields do not survive a trip through double). The view lives
    /// until the next number is read.
    bool number(std::string_view* spelling) {
        ws();
        num_len_ = 0;
        take('-');
        if (take_digits() == 0) return fail("expected a value");
        if (take('.')) take_digits();
        if (take('e') || take('E')) {
            if (!take('+')) take('-');
            take_digits();
        }
        if (num_len_ == sizeof num_) return fail("number too long");
        *spelling = {num_, num_len_};
        return true;
    }

    /// Reads exactly `word` (true, false or null).
    bool literal(std::string_view word) {
        ws();
        for (const char c : word) {
            if (peek() != c) return fail("bad literal");
            ++p_;
        }
        return true;
    }

    /// Reads and discards one value of any shape.
    bool skip() {
        switch (next()) {
            case '{': return object([this](std::string_view) { return skip(); });
            case '[': return array([this] { return skip(); });
            case '"': return string(scratch_);
            case 't': return literal("true");
            case 'f': return literal("false");
            case 'n': return literal("null");
            case -1: return fail("unexpected end of input");
            default: {
                std::string_view ignored;
                return number(&ignored);
            }
        }
    }

    /// Reads the value of field `key` in format F into `out`.
    template <RowFmt F, typename T>
    bool field(std::string_view key, T& out) {
        const int c = next();
        if constexpr (F == RowFmt::Str || F == RowFmt::Failure) {
            if (c != '"') return fail(field_error(key, missing_message(F)));
            if constexpr (F == RowFmt::Str) {
                return string(out);
            } else {
                if (!string(scratch_)) return false;
                const std::optional<FailureKind> k = parse_failure(scratch_);
                if (!k) return fail("unknown failure kind '" + scratch_ + "'");
                out = *k;
                return true;
            }
        } else if constexpr (F == RowFmt::Bool) {
            if (c != 't' && c != 'f') return fail(field_error(key, missing_message(F)));
            out = c == 't';
            return literal(out ? "true" : "false");
        } else {
            if (c != '-' && (c < '0' || c > '9'))
                return fail(field_error(key, missing_message(F)));
            std::string_view s;
            if (!number(&s)) return false;
            const char* const end = s.data() + s.size();
            if constexpr (F == RowFmt::U32 || F == RowFmt::U64) {
                u64 x = 0;
                const auto [ptr, ec] = std::from_chars(s.data(), end, x);
                if (ec != std::errc{} || ptr != end)
                    return fail(field_error(key, "is not a u64"));
                if (F == RowFmt::U32 && x > 0xFFFFFFFFull)
                    return fail(field_error(key, "overflows u32"));
                out = static_cast<T>(x);
            } else {
                double x = 0.0;
                const auto [ptr, ec] = std::from_chars(s.data(), end, x);
                if (ec != std::errc{} || ptr != end)
                    return fail(field_error(key, "is not a number"));
                out = x;
            }
            return true;
        }
    }

    /// Reads the raw bytes up to the next newline into `out` (the newline
    /// is consumed, not stored); false when no input remains.
    bool line(std::string& out) {
        out.clear();
        if (peek() < 0) return false;
        for (;;) {
            const auto* nl = static_cast<const char*>(
                std::memchr(p_, '\n', static_cast<std::size_t>(end_ - p_)));
            if (nl != nullptr) {
                out.append(p_, nl);
                p_ = nl + 1;
                ++line_;
                return true;
            }
            out.append(p_, end_);
            p_ = end_;
            if (!refill()) return true;
        }
    }

private:
    static constexpr std::size_t kBuffer = std::size_t{1} << 16;
    static constexpr u32 kMaxDepth = 64;

    /// The next byte, not consumed; -1 at end of input.
    int peek() {
        return p_ != end_ || refill() ? static_cast<unsigned char>(*p_) : -1;
    }

    bool refill() {
        if (f_ == nullptr) return false;
        const std::size_t n = std::fread(buf_.get(), 1, kBuffer, f_);
        if (n == 0) {
            if (std::ferror(f_) != 0) fail("read error");
            f_ = nullptr;
            return false;
        }
        p_ = buf_.get();
        end_ = p_ + n;
        return true;
    }

    void ws() {
        for (;;) {
            for (; p_ != end_; ++p_) {
                if (*p_ == '\n') ++line_;
                else if (*p_ != ' ' && *p_ != '\t' && *p_ != '\r') return;
            }
            if (!refill()) return;
        }
    }

    bool enter() {
        if (depth_ == kMaxDepth) return fail("nesting too deep");
        ++depth_;
        return true;
    }

    /// Consumes the closing bracket.
    bool leave() {
        ++p_;
        --depth_;
        return true;
    }

    /// Appends the next byte to the number spelling when it is `c`.
    bool take(char c) {
        if (peek() != c || num_len_ == sizeof num_) return false;
        num_[num_len_++] = *p_++;
        return true;
    }

    std::size_t take_digits() {
        const std::size_t from = num_len_;
        for (int c = peek(); c >= '0' && c <= '9' && num_len_ < sizeof num_;
             c = peek())
            num_[num_len_++] = *p_++;
        return num_len_ - from;
    }

    /// Decodes the escape after a backslash. The emitter escapes only
    /// control bytes, so \u decodes the BMP and rejects surrogates rather
    /// than carry UTF-16 pairing logic nothing produces.
    bool escape(std::string& out) {
        const int e = peek();
        if (e < 0) return fail("unterminated string");
        ++p_;
        switch (e) {
            case '"':
            case '\\':
            case '/': out.push_back(static_cast<char>(e)); return true;
            case 'n': out.push_back('\n'); return true;
            case 'r': out.push_back('\r'); return true;
            case 't': out.push_back('\t'); return true;
            case 'b': out.push_back('\b'); return true;
            case 'f': out.push_back('\f'); return true;
            case 'u': break;
            default: return fail("bad escape");
        }
        u32 cp = 0;
        for (int i = 0; i < 4; ++i) {
            const int h = peek();
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<u32>(h - '0');
            else if (h >= 'a' && h <= 'f') cp |= static_cast<u32>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') cp |= static_cast<u32>(h - 'A' + 10);
            else return fail("bad \\u escape");
            ++p_;
        }
        if (cp >= 0xD800 && cp <= 0xDFFF)
            return fail("unsupported surrogate escape");
        if (cp < 0x80) {
            out.push_back(static_cast<char>(cp));
        } else if (cp < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        } else {
            out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        }
        return true;
    }

    const char* p_ = nullptr;
    const char* end_ = nullptr;
    std::FILE* f_ = nullptr;
    std::unique_ptr<char[]> buf_;
    u32 line_ = 1;
    u32 depth_ = 0;
    std::string err_;
    std::string key_;     ///< the object key being dispatched
    std::string scratch_; ///< skipped strings and failure tokens
    char num_[400] = {};  ///< %.6f of the largest double fits
    std::size_t num_len_ = 0;
};

// ---- report schema ----------------------------------------------------

/// One TGSIM_SWEEP_ROW line: its key, block and format, and the function
/// that reads its value into a row (null for the derived `ok`, which is
/// never stored).
struct RowKey {
    std::string_view key;
    RowBlock block;
    RowFmt fmt;
    bool (*read)(Reader&, SweepResult&);
};

constexpr RowKey kRowKeys[] = {
#define TGSIM_ROW_KEY(block, fmt, member)                                   \
    {#member, RowBlock::block, RowFmt::fmt,                                 \
     [](Reader& in, SweepResult& r) {                                       \
         return in.field<RowFmt::fmt>(#member, r.member);                   \
     }},
#define TGSIM_ROW_KEY_DERIVED(block, fmt, member)                           \
    {#member, RowBlock::block, RowFmt::fmt, nullptr},
    TGSIM_SWEEP_ROW(TGSIM_ROW_KEY, TGSIM_ROW_KEY_DERIVED)
#undef TGSIM_ROW_KEY
#undef TGSIM_ROW_KEY_DERIVED
};
constexpr std::size_t kRowFields = std::size(kRowKeys);

/// Fewest bytes any row takes: '{' and every stored base key, quoted, with
/// its ':', a one-byte value and a ',' or '}'. Bounds how many rows an
/// input can hold.
constexpr std::size_t kMinRowBytes = [] {
    std::size_t n = 1;
    for (const RowKey& k : kRowKeys)
        if (k.block == RowBlock::Base && k.read != nullptr) n += k.key.size() + 5;
    return n;
}();

/// Rows to reserve for an input of `bytes` bytes under header `m`: the
/// shard's share of the grid, capped by how many rows the input can hold —
/// so the row vector never regrows on the hot path and a lying header
/// cannot force a huge allocation.
std::size_t reserve_rows(const SweepMeta& m, std::size_t bytes) {
    return std::min(std::size_t{m.n_candidates} / m.shard.count + 1,
                    bytes / kMinRowBytes);
}

/// Reads one row object into the default-constructed `r`. Keys are matched
/// with a cursor over the table — in the emitted order each key matches at
/// once; keys out of order are found by a scan, and keys outside the
/// schema (and the derived `ok`) are skipped. A block's switch is set when
/// its first key arrives, and after the object every stored key of every
/// present block is required: the error names the first one missing.
bool read_row(Reader& in, SweepResult& r) {
    bool seen[kRowFields] = {};
    bool on[kRowBlocks] = {true};
    std::size_t cursor = 0;
    const bool ok = in.object([&](std::string_view key) {
        std::size_t f = cursor;
        if (f == kRowFields || kRowKeys[f].key != key) {
            f = 0;
            while (f < kRowFields && kRowKeys[f].key != key) ++f;
            if (f == kRowFields) return in.skip();
        }
        cursor = f + 1;
        const RowKey& k = kRowKeys[f];
        if (k.read == nullptr) return in.skip();
        const auto b = static_cast<std::size_t>(k.block);
        if (!on[b]) {
            on[b] = true;
            r.*kRowBlockSwitch[b] = true;
        }
        seen[f] = true;
        return k.read(in, r);
    });
    if (!ok) return false;
    for (std::size_t f = 0; f < kRowFields; ++f) {
        const RowKey& k = kRowKeys[f];
        if (k.read != nullptr && on[static_cast<std::size_t>(k.block)] && !seen[f])
            return in.fail(field_error(k.key, missing_message(k.fmt)));
    }
    return true;
}

bool read_tier(Reader& in, Tier& out) {
    std::string name;
    if (!in.field<RowFmt::Str>("tier", name)) return false;
    const std::optional<Tier> t = parse_tier(name);
    if (!t) return in.fail("unknown tier '" + name + "'");
    out = *t;
    return true;
}

bool read_shard(Reader& in, ShardSpec& s) {
    if (in.next() != '{') return in.fail("field 'shard' is not an object");
    bool has_index = false;
    bool has_count = false;
    const bool ok = in.object([&](std::string_view key) {
        if (key == "index") {
            has_index = true;
            return in.field<RowFmt::U32>("index", s.index);
        }
        if (key == "count") {
            has_count = true;
            return in.field<RowFmt::U32>("count", s.count);
        }
        return in.skip();
    });
    if (!ok) return false;
    const char* missing = missing_message(RowFmt::U32);
    if (!has_index) return in.fail(field_error("index", missing));
    if (!has_count) return in.fail(field_error("count", missing));
    if (s.count == 0 || s.index >= s.count)
        return in.fail("invalid shard index/count");
    return true;
}

/// Reads a header object (append_sweep_meta's format) into `m`.
bool read_meta(Reader& in, SweepMeta& m) {
    struct Required {
        std::string_view key;
        RowFmt fmt;
    };
    // In emitted order; funnel_top and shard are optional.
    static constexpr Required kRequired[] = {
        {"app", RowFmt::Str},  {"cores", RowFmt::U32}, {"jobs", RowFmt::U32},
        {"max_cycles", RowFmt::U64}, {"tier", RowFmt::Str},
        {"seed", RowFmt::U64}, {"n_candidates", RowFmt::U32}};
    bool seen[std::size(kRequired)] = {};
    m = SweepMeta{};
    const bool ok = in.object([&](std::string_view key) {
        for (std::size_t k = 0; k < std::size(kRequired); ++k)
            if (kRequired[k].key == key) seen[k] = true;
        if (key == "app") return in.field<RowFmt::Str>("app", m.app);
        if (key == "cores") return in.field<RowFmt::U32>("cores", m.n_cores);
        if (key == "jobs") return in.field<RowFmt::U32>("jobs", m.jobs);
        if (key == "max_cycles")
            return in.field<RowFmt::U64>("max_cycles", m.max_cycles);
        if (key == "tier") return read_tier(in, m.tier);
        if (key == "seed") return in.field<RowFmt::U64>("seed", m.seed);
        if (key == "n_candidates")
            return in.field<RowFmt::U32>("n_candidates", m.n_candidates);
        if (key == "funnel_top")
            return in.field<RowFmt::U32>("funnel_top", m.funnel_top);
        if (key == "shard") return read_shard(in, m.shard);
        return in.skip();
    });
    if (!ok) return false;
    for (std::size_t k = 0; k < std::size(kRequired); ++k)
        if (!seen[k])
            return in.fail(field_error(kRequired[k].key,
                                       missing_message(kRequired[k].fmt)));
    return true;
}

/// Reads a whole json_report document from `in`, which holds `bytes`
/// bytes. Rows are read in place into the reserved row vector.
std::optional<ParsedReport> read_report(Reader& in, std::size_t bytes,
                                        std::string* error) {
    ParsedReport out;
    bool has_meta = false;
    bool has_rows = false;
    std::string where = "bad report: ";
    bool ok = in.object([&](std::string_view key) {
        if (key == "sweep") {
            where = "bad report header: ";
            if (!read_meta(in, out.meta)) return false;
            where = "bad report: ";
            has_meta = true;
            return true;
        }
        if (key == "candidates") {
            has_rows = true;
            if (has_meta) out.rows.reserve(reserve_rows(out.meta, bytes));
            return in.array([&] {
                if (read_row(in, out.rows.emplace_back())) return true;
                where = "bad candidate row " +
                        std::to_string(out.rows.size() - 1) + ": ";
                return false;
            });
        }
        return in.skip();
    });
    if (ok && !in.at_end()) ok = in.fail("trailing characters");
    if (ok && (!has_meta || !has_rows))
        ok = in.fail("missing 'sweep' or 'candidates'");
    if (!ok) {
        set_error(error, where + in.error());
        return std::nullopt;
    }
    return out;
}

struct FileCloser {
    void operator()(std::FILE* f) const { std::fclose(f); }
};
using File = std::unique_ptr<std::FILE, FileCloser>;

/// Opens `path` for reading; null + *error when it cannot.
File open_input(const std::string& path, std::string* error) {
    File f{std::fopen(path.c_str(), "rb")};
    if (f == nullptr)
        set_error(error, "cannot open " + path + ": " + std::strerror(errno));
    return f;
}

/// Size of the open file `f` in bytes; 0 when unknown (a pipe).
std::size_t input_bytes(std::FILE* f) {
    struct stat st{};
    return fstat(fileno(f), &st) == 0 && st.st_size > 0
               ? static_cast<std::size_t>(st.st_size)
               : 0;
}

} // namespace

std::optional<ShardSpec> parse_shard(const std::string& s) {
    const auto digits = [](std::string_view v, u32* out) {
        if (v.empty() || v.size() > 9) return false;
        u32 x = 0;
        for (const char c : v) {
            if (c < '0' || c > '9') return false;
            x = x * 10 + static_cast<u32>(c - '0');
        }
        *out = x;
        return true;
    };
    const std::size_t slash = s.find('/');
    if (slash == std::string::npos) return std::nullopt;
    ShardSpec spec;
    if (!digits(std::string_view{s}.substr(0, slash), &spec.index) ||
        !digits(std::string_view{s}.substr(slash + 1), &spec.count))
        return std::nullopt;
    if (spec.count == 0 || spec.index >= spec.count) return std::nullopt;
    return spec;
}

std::string meta_diff(const SweepMeta& a, const SweepMeta& b) {
    if (a.app != b.app) return "app";
    if (a.n_cores != b.n_cores) return "cores";
    if (a.max_cycles != b.max_cycles) return "max_cycles";
    if (a.tier != b.tier) return "tier";
    if (a.seed != b.seed) return "seed";
    if (a.n_candidates != b.n_candidates) return "n_candidates";
    if (a.funnel_top != b.funnel_top) return "funnel_top";
    if (a.shard.count != b.shard.count) return "shard_count";
    return "";
}

namespace {

template <RowFmt F, typename T>
void zero_wall_clock(T& v) {
    if constexpr (F == RowFmt::Wall6) v = 0.0;
}

} // namespace

void canonicalize(SweepMeta& meta, std::vector<SweepResult>& rows) {
    meta.jobs = 0;
    for (SweepResult& r : rows) {
#define TGSIM_ROW_CANON(block, fmt, member) \
    zero_wall_clock<RowFmt::fmt>(r.member);
        TGSIM_SWEEP_ROW(TGSIM_ROW_CANON, TGSIM_ROW_SKIP)
#undef TGSIM_ROW_CANON
    }
}

JournalWriter::~JournalWriter() {
    if (f_ != nullptr) (void)close();
}

namespace {

/// Byte length of `path` up to and including its final newline — i.e. with
/// any torn final line (mid-write kill) excluded. -1 on IO error.
long complete_prefix_length(const std::string& path) {
    const File f{std::fopen(path.c_str(), "rb")};
    if (f == nullptr) return errno == ENOENT ? 0 : -1;
    if (std::fseek(f.get(), 0, SEEK_END) != 0) return -1;
    long end = std::ftell(f.get());
    char buf[4096];
    while (end > 0) {
        const long chunk =
            end < static_cast<long>(sizeof buf) ? end : static_cast<long>(sizeof buf);
        if (std::fseek(f.get(), end - chunk, SEEK_SET) != 0 ||
            std::fread(buf, 1, static_cast<std::size_t>(chunk), f.get()) !=
                static_cast<std::size_t>(chunk))
            return -1;
        for (long i = chunk - 1; i >= 0; --i)
            if (buf[i] == '\n') return end - chunk + i + 1;
        end -= chunk;
    }
    return 0;
}

} // namespace

bool JournalWriter::open(const std::string& path, const SweepMeta& meta,
                         u32 batch, std::string* error) {
    std::lock_guard<std::mutex> lock{mu_};
    if (f_ != nullptr) return set_error(error, "journal already open");

    // Seal a torn final line before appending: load_journal() already
    // re-evaluates that row, and writing new rows after the partial bytes
    // would fuse them into one corrupt line, breaking any SECOND resume.
    const long size = complete_prefix_length(path);
    if (size < 0)
        return set_error(error, "cannot read journal " + path + ": " +
                                    std::strerror(errno));
    if (::truncate(path.c_str(), size) != 0 && errno != ENOENT)
        return set_error(error, "cannot truncate journal " + path + ": " +
                                    std::strerror(errno));

    std::FILE* f = std::fopen(path.c_str(), "ab");
    if (f == nullptr)
        return set_error(error, "cannot open journal " + path + ": " +
                                    std::strerror(errno));
    if (size == 0) {
        // Fresh journal: the header line makes the file self-describing,
        // so --resume can verify it belongs to this campaign. Synced
        // immediately — a kill right after open must still leave a valid
        // journal.
        buf_.clear();
        buf_ += "{\"sweep_journal\": ";
        append_sweep_meta(buf_, meta);
        buf_ += "}\n";
        if (std::fwrite(buf_.data(), 1, buf_.size(), f) != buf_.size() ||
            std::fflush(f) != 0 || ::fsync(fileno(f)) != 0) {
            std::fclose(f);
            return set_error(error, "cannot write journal header to " + path);
        }
    }
    f_ = f;
    batch_ = batch == 0 ? 1 : batch;
    pending_ = 0;
    failed_ = false;
    return true;
}

void JournalWriter::append(const SweepResult& r) {
    std::lock_guard<std::mutex> lock{mu_};
    if (f_ == nullptr || failed_) return;
    buf_.clear();
    append_result_row(buf_, r);
    buf_.push_back('\n');
    if (std::fwrite(buf_.data(), 1, buf_.size(), f_) != buf_.size()) {
        failed_ = true;
        return;
    }
    if (++pending_ >= batch_) {
        pending_ = 0;
        if (std::fflush(f_) != 0 || ::fsync(fileno(f_)) != 0) failed_ = true;
    }
}

bool JournalWriter::close() {
    std::lock_guard<std::mutex> lock{mu_};
    if (f_ == nullptr) return !failed_;
    if (std::fflush(f_) != 0 || ::fsync(fileno(f_)) != 0) failed_ = true;
    if (std::fclose(f_) != 0) failed_ = true;
    f_ = nullptr;
    return !failed_;
}

std::optional<ParsedReport> load_journal(const std::string& path,
                                         std::string* error) {
    const File f = open_input(path, error);
    if (f == nullptr) return std::nullopt;
    Reader file{f.get()};
    // Non-empty lines with their line numbers. One line of lookahead makes
    // "last line" well defined: a torn final line (killed mid-write) is
    // recoverable, a corrupt interior line means the file is not a journal.
    const auto next_line = [&file](std::string& text, u32& at) {
        do {
            at = file.line();
            if (!file.line(text)) return false;
        } while (text.empty());
        return true;
    };
    // Every failure names the file.
    const auto failed = [&](const std::string& what) {
        set_error(error, path + ": " + what);
        return std::nullopt;
    };
    std::string line;
    u32 at = 0;
    if (!next_line(line, at)) {
        file.fail("empty journal");
        return failed(file.error());
    }

    ParsedReport out;
    {
        Reader in{line, at};
        bool has_meta = false;
        bool ok = in.object([&](std::string_view key) {
            if (key != "sweep_journal") return in.skip();
            has_meta = true;
            return read_meta(in, out.meta);
        });
        if (ok && !in.at_end()) ok = in.fail("trailing characters");
        if (!ok) return failed("bad journal header: " + in.error());
        if (!has_meta) {
            in.fail("not a sweep journal (no header)");
            return failed(in.error());
        }
    }

    out.rows.reserve(reserve_rows(out.meta, input_bytes(f.get())));
    std::string ahead;
    u32 ahead_at = 0;
    for (bool more = next_line(ahead, ahead_at); more;) {
        std::swap(line, ahead);
        at = ahead_at;
        more = next_line(ahead, ahead_at);
        Reader in{line, at};
        bool ok = read_row(in, out.rows.emplace_back());
        if (ok && !in.at_end()) ok = in.fail("trailing characters");
        if (ok) continue;
        out.rows.pop_back();
        if (!file.error().empty()) return failed(file.error());
        if (!more) break; // torn final line: re-evaluate
        return failed("corrupt journal line " + std::to_string(at) + ": " +
                      in.error());
    }
    if (!file.error().empty()) return failed(file.error());
    return out;
}

std::optional<ParsedReport> parse_report_text(const std::string& text,
                                              std::string* error) {
    Reader in{text};
    return read_report(in, text.size(), error);
}

std::optional<ParsedReport> parse_report_file(const std::string& path,
                                              std::string* error) {
    const File f = open_input(path, error);
    if (f == nullptr) return std::nullopt;
    Reader in{f.get()};
    std::optional<ParsedReport> out = read_report(in, input_bytes(f.get()), error);
    if (!out && error != nullptr) *error = path + ": " + *error;
    return out;
}

std::optional<ParsedReport> merge_reports(std::vector<ParsedReport> shards,
                                          std::string* error) {
    if (shards.empty()) {
        set_error(error, "no shard reports to merge");
        return std::nullopt;
    }
    const SweepMeta& m0 = shards[0].meta;
    for (std::size_t i = 1; i < shards.size(); ++i) {
        const std::string field = meta_diff(m0, shards[i].meta);
        if (!field.empty()) {
            char msg[112];
            std::snprintf(msg, sizeof msg,
                          "metadata mismatch between shard reports 0 and %zu:"
                          " field '%s' differs",
                          i, field.c_str());
            set_error(error, msg);
            return std::nullopt;
        }
    }

    const u32 count = m0.shard.count;
    if (shards.size() != count) {
        char msg[96];
        std::snprintf(msg, sizeof msg,
                      "shard count is %u but %zu reports given "
                      "(missing or extra shards)",
                      count, shards.size());
        set_error(error, msg);
        return std::nullopt;
    }
    std::vector<bool> seen_shard(count, false);
    for (const ParsedReport& s : shards) {
        const u32 k = s.meta.shard.index;
        if (seen_shard[k]) {
            char msg[48];
            std::snprintf(msg, sizeof msg, "duplicate shard %u/%u", k, count);
            set_error(error, msg);
            return std::nullopt;
        }
        seen_shard[k] = true;
    }

    // n_candidates is read from the reports: check the rows can cover it
    // before sizing anything by it.
    const u32 n = m0.n_candidates;
    std::size_t n_rows = 0;
    for (const ParsedReport& s : shards) n_rows += s.rows.size();
    if (n_rows < n) {
        char msg[96];
        std::snprintf(msg, sizeof msg,
                      "missing candidates: the shards hold %zu rows for a"
                      " grid of %u",
                      n_rows, n);
        set_error(error, msg);
        return std::nullopt;
    }
    // Validate every row where it lies.
    std::vector<bool> present(n, false);
    for (const ParsedReport& s : shards) {
        const u32 k = s.meta.shard.index;
        for (const SweepResult& r : s.rows) {
            char msg[96];
            if (r.index >= n) {
                std::snprintf(msg, sizeof msg,
                              "candidate index %u out of range (grid is %u)",
                              r.index, n);
                set_error(error, msg);
                return std::nullopt;
            }
            if (shard_of(r.index, count) != k) {
                std::snprintf(msg, sizeof msg,
                              "candidate %u does not belong to shard %u/%u",
                              r.index, k, count);
                set_error(error, msg);
                return std::nullopt;
            }
            if (present[r.index]) {
                std::snprintf(msg, sizeof msg,
                              "duplicate candidate %u (appears again in"
                              " shard %u/%u)",
                              r.index, k, count);
                set_error(error, msg);
                return std::nullopt;
            }
            present[r.index] = true;
        }
    }
    for (u32 i = 0; i < n; ++i)
        if (!present[i]) {
            char msg[64];
            std::snprintf(msg, sizeof msg,
                          "missing candidate %u (shard %u/%u incomplete)", i,
                          shard_of(i, count), count);
            set_error(error, msg);
            return std::nullopt;
        }

    // The indices are now a permutation of [0, n). Gather every row into
    // the first shard's vector and cycle each to its index, one swap per
    // misplaced row: a single-shard merge allocates no second grid.
    ParsedReport& out = shards[0];
    out.rows.reserve(n);
    for (std::size_t s = 1; s < shards.size(); ++s) {
        std::move(shards[s].rows.begin(), shards[s].rows.end(),
                  std::back_inserter(out.rows));
        shards[s].rows = std::vector<SweepResult>{};
    }
    for (u32 i = 0; i < n; ++i)
        while (out.rows[i].index != i)
            std::swap(out.rows[i], out.rows[out.rows[i].index]);
    out.meta.shard = ShardSpec{}; // the merge IS the unsharded report
    canonicalize(out.meta, out.rows);
    return std::move(out);
}

} // namespace tgsim::sweep
