#include "sweep/shard.hpp"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <string_view>
#include <utility>

namespace tgsim::sweep {

namespace {

bool set_error(std::string* error, std::string msg) {
    if (error != nullptr) *error = std::move(msg);
    return false;
}

/// Parsed JSON value. Numbers keep their raw spelling: u64 fields (seeds,
/// cycle counts) do not survive a trip through double.
struct Json {
    enum class Kind : u8 { Null, Bool, Number, String, Array, Object };
    Kind kind = Kind::Null;
    bool b = false;
    std::string text; ///< String: decoded text; Number: raw spelling
    std::vector<Json> arr;
    std::vector<std::pair<std::string, Json>> obj;

    [[nodiscard]] const Json* find(std::string_view key) const {
        for (const auto& [k, v] : obj)
            if (k == key) return &v;
        return nullptr;
    }
};

/// Minimal recursive-descent parser — exactly the grammar this module's
/// own emitters produce (objects, arrays, strings with escapes, numbers,
/// bools, null), with a depth cap so malformed input cannot blow the
/// stack.
class JsonParser {
public:
    explicit JsonParser(std::string_view s) : s_(s) {}

    bool parse(Json* out, std::string* error) {
        bool ok = value(*out, 0);
        if (ok) {
            ws();
            if (pos_ != s_.size()) ok = fail("trailing characters");
        }
        if (!ok && error != nullptr) {
            char where[48];
            std::snprintf(where, sizeof where, " at byte %zu", pos_);
            *error = err_ + where;
        }
        return ok;
    }

private:
    bool fail(const char* msg) {
        if (err_.empty()) err_ = msg;
        return false;
    }

    void ws() {
        while (pos_ < s_.size() &&
               (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
                s_[pos_] == '\r'))
            ++pos_;
    }

    bool lit(std::string_view w) {
        if (s_.substr(pos_).substr(0, w.size()) != w) return false;
        pos_ += w.size();
        return true;
    }

    bool value(Json& out, int depth) {
        if (depth > 64) return fail("nesting too deep");
        ws();
        if (pos_ >= s_.size()) return fail("unexpected end of input");
        switch (s_[pos_]) {
            case '{': return object(out, depth);
            case '[': return array(out, depth);
            case '"': out.kind = Json::Kind::String; return string(out.text);
            case 't':
                if (!lit("true")) return fail("bad literal");
                out.kind = Json::Kind::Bool;
                out.b = true;
                return true;
            case 'f':
                if (!lit("false")) return fail("bad literal");
                out.kind = Json::Kind::Bool;
                out.b = false;
                return true;
            case 'n':
                if (!lit("null")) return fail("bad literal");
                out.kind = Json::Kind::Null;
                return true;
            default: return number(out);
        }
    }

    bool object(Json& out, int depth) {
        out.kind = Json::Kind::Object;
        ++pos_; // '{'
        ws();
        if (pos_ < s_.size() && s_[pos_] == '}') {
            ++pos_;
            return true;
        }
        for (;;) {
            ws();
            if (pos_ >= s_.size() || s_[pos_] != '"')
                return fail("expected object key");
            std::string key;
            if (!string(key)) return false;
            ws();
            if (pos_ >= s_.size() || s_[pos_] != ':')
                return fail("expected ':'");
            ++pos_;
            Json v;
            if (!value(v, depth + 1)) return false;
            out.obj.emplace_back(std::move(key), std::move(v));
            ws();
            if (pos_ >= s_.size()) return fail("unterminated object");
            if (s_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (s_[pos_] == '}') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or '}'");
        }
    }

    bool array(Json& out, int depth) {
        out.kind = Json::Kind::Array;
        ++pos_; // '['
        ws();
        if (pos_ < s_.size() && s_[pos_] == ']') {
            ++pos_;
            return true;
        }
        for (;;) {
            Json v;
            if (!value(v, depth + 1)) return false;
            out.arr.push_back(std::move(v));
            ws();
            if (pos_ >= s_.size()) return fail("unterminated array");
            if (s_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (s_[pos_] == ']') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or ']'");
        }
    }

    bool string(std::string& out) {
        ++pos_; // '"'
        out.clear();
        while (pos_ < s_.size()) {
            const char c = s_[pos_++];
            if (c == '"') return true;
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (pos_ >= s_.size()) break;
            const char e = s_[pos_++];
            switch (e) {
                case '"': out.push_back('"'); break;
                case '\\': out.push_back('\\'); break;
                case '/': out.push_back('/'); break;
                case 'n': out.push_back('\n'); break;
                case 'r': out.push_back('\r'); break;
                case 't': out.push_back('\t'); break;
                case 'b': out.push_back('\b'); break;
                case 'f': out.push_back('\f'); break;
                case 'u': {
                    if (pos_ + 4 > s_.size()) return fail("bad \\u escape");
                    u32 cp = 0;
                    for (int i = 0; i < 4; ++i) {
                        const char h = s_[pos_++];
                        cp <<= 4;
                        if (h >= '0' && h <= '9')
                            cp |= static_cast<u32>(h - '0');
                        else if (h >= 'a' && h <= 'f')
                            cp |= static_cast<u32>(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F')
                            cp |= static_cast<u32>(h - 'A' + 10);
                        else
                            return fail("bad \\u escape");
                    }
                    // Our emitter only escapes control bytes; decode the
                    // BMP and reject surrogates rather than carry UTF-16
                    // pairing logic nothing produces.
                    if (cp >= 0xD800 && cp <= 0xDFFF)
                        return fail("unsupported surrogate escape");
                    if (cp < 0x80) {
                        out.push_back(static_cast<char>(cp));
                    } else if (cp < 0x800) {
                        out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
                        out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
                    } else {
                        out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
                        out.push_back(
                            static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
                        out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
                    }
                    break;
                }
                default: return fail("bad escape");
            }
        }
        return fail("unterminated string");
    }

    bool number(Json& out) {
        const std::size_t start = pos_;
        if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
        const std::size_t digits = pos_;
        while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9') ++pos_;
        if (pos_ == digits) return fail("expected a value");
        if (pos_ < s_.size() && s_[pos_] == '.') {
            ++pos_;
            while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9')
                ++pos_;
        }
        if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-'))
                ++pos_;
            while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9')
                ++pos_;
        }
        out.kind = Json::Kind::Number;
        out.text.assign(s_.substr(start, pos_ - start));
        return true;
    }

    std::string_view s_;
    std::size_t pos_ = 0;
    std::string err_;
};

// ---- typed field extraction ------------------------------------------
//
// read_* convert one located value (null = key absent); want_* locate the
// key in an object first.

std::string field_error(const char* key, const char* what) {
    return std::string{"field '"} + key + "' " + what;
}

bool read_u64(const Json* v, const char* key, u64* out, std::string* error) {
    if (v == nullptr || v->kind != Json::Kind::Number)
        return set_error(error, field_error(key, "missing or not a number"));
    if (v->text.empty() || v->text[0] == '-')
        return set_error(error, field_error(key, "is not a u64"));
    errno = 0;
    char* end = nullptr;
    const unsigned long long x = std::strtoull(v->text.c_str(), &end, 10);
    if (errno != 0 || end != v->text.c_str() + v->text.size())
        return set_error(error, field_error(key, "is not a u64"));
    *out = x;
    return true;
}

bool read_u32(const Json* v, const char* key, u32* out, std::string* error) {
    u64 x = 0;
    if (!read_u64(v, key, &x, error)) return false;
    if (x > 0xFFFFFFFFull)
        return set_error(error, field_error(key, "overflows u32"));
    *out = static_cast<u32>(x);
    return true;
}

bool read_double(const Json* v, const char* key, double* out,
                 std::string* error) {
    if (v == nullptr || v->kind != Json::Kind::Number)
        return set_error(error, field_error(key, "missing or not a number"));
    errno = 0;
    char* end = nullptr;
    const double x = std::strtod(v->text.c_str(), &end);
    if (errno != 0 || end != v->text.c_str() + v->text.size())
        return set_error(error, field_error(key, "is not a number"));
    *out = x;
    return true;
}

bool read_bool(const Json* v, const char* key, bool* out, std::string* error) {
    if (v == nullptr || v->kind != Json::Kind::Bool)
        return set_error(error, field_error(key, "missing or not a bool"));
    *out = v->b;
    return true;
}

bool read_string(const Json* v, const char* key, std::string* out,
                 std::string* error) {
    if (v == nullptr || v->kind != Json::Kind::String)
        return set_error(error, field_error(key, "missing or not a string"));
    *out = v->text;
    return true;
}

bool read_failure(const Json* v, const char* key, FailureKind* out,
                  std::string* error) {
    std::string token;
    if (!read_string(v, key, &token, error)) return false;
    const std::optional<FailureKind> k = parse_failure(token);
    if (!k) return set_error(error, "unknown failure kind '" + token + "'");
    *out = *k;
    return true;
}

/// One report-row value in format F.
template <RowFmt F, typename T>
bool read_field(const Json* v, const char* key, T* out, std::string* error) {
    if constexpr (F == RowFmt::Str) return read_string(v, key, out, error);
    else if constexpr (F == RowFmt::U32) return read_u32(v, key, out, error);
    else if constexpr (F == RowFmt::U64) return read_u64(v, key, out, error);
    else if constexpr (F == RowFmt::Bool) return read_bool(v, key, out, error);
    else if constexpr (F == RowFmt::Failure)
        return read_failure(v, key, out, error);
    else return read_double(v, key, out, error);
}

bool want_u64(const Json& j, const char* key, u64* out, std::string* error) {
    return read_u64(j.find(key), key, out, error);
}

bool want_u32(const Json& j, const char* key, u32* out, std::string* error) {
    return read_u32(j.find(key), key, out, error);
}

bool want_string(const Json& j, const char* key, std::string* out,
                 std::string* error) {
    return read_string(j.find(key), key, out, error);
}

// ---- report-schema conversion ----------------------------------------

bool meta_from_json(const Json& j, SweepMeta* m, std::string* error) {
    if (j.kind != Json::Kind::Object)
        return set_error(error, "sweep header is not an object");
    u64 max_cycles = 0;
    std::string tier;
    if (!want_string(j, "app", &m->app, error) ||
        !want_u32(j, "cores", &m->n_cores, error) ||
        !want_u32(j, "jobs", &m->jobs, error) ||
        !want_u64(j, "max_cycles", &max_cycles, error) ||
        !want_string(j, "tier", &tier, error) ||
        !want_u64(j, "seed", &m->seed, error) ||
        !want_u32(j, "n_candidates", &m->n_candidates, error))
        return false;
    m->max_cycles = max_cycles;
    const std::optional<Tier> t = parse_tier(tier);
    if (!t) return set_error(error, "unknown tier '" + tier + "'");
    m->tier = *t;
    m->funnel_top = 0;
    if (j.find("funnel_top") != nullptr &&
        !want_u32(j, "funnel_top", &m->funnel_top, error))
        return false;
    m->shard = ShardSpec{};
    if (const Json* s = j.find("shard"); s != nullptr) {
        if (s->kind != Json::Kind::Object)
            return set_error(error, "field 'shard' is not an object");
        if (!want_u32(*s, "index", &m->shard.index, error) ||
            !want_u32(*s, "count", &m->shard.count, error))
            return false;
        if (m->shard.count == 0 || m->shard.index >= m->shard.count)
            return set_error(error, "invalid shard index/count");
    }
    return true;
}

/// Key and block of each TGSIM_SWEEP_ROW line, in table order.
struct RowKey {
    std::string_view key;
    RowBlock block;
};

constexpr RowKey kRowKeys[] = {
#define TGSIM_ROW_KEY(block, fmt, member) {#member, RowBlock::block},
    TGSIM_SWEEP_ROW(TGSIM_ROW_KEY, TGSIM_ROW_KEY)
#undef TGSIM_ROW_KEY
};
constexpr std::size_t kRowFields = std::size(kRowKeys);

/// Parses one row by walking its keys with a cursor over the table — in
/// the emitted order each key matches the cursor at once; keys out of
/// order are found by a scan, and keys outside the schema are ignored. A
/// block is on when any of its keys is present, and then every key of it
/// is required: the error names the first missing or ill-typed one.
bool row_from_json(const Json& j, SweepResult* r, std::string* error) {
    if (j.kind != Json::Kind::Object)
        return set_error(error, "candidate row is not an object");
    *r = SweepResult{}; // optional blocks must not inherit a reused row's state
    const Json* at[kRowFields] = {};
    std::size_t cursor = 0;
    for (const auto& [key, value] : j.obj) {
        std::size_t f = cursor;
        if (f == kRowFields || kRowKeys[f].key != key) {
            f = 0;
            while (f < kRowFields && kRowKeys[f].key != key) ++f;
            if (f == kRowFields) continue; // not a row key
        }
        at[f] = &value;
        cursor = f + 1;
    }
    bool on[kRowBlocks] = {true};
    for (std::size_t f = 0; f < kRowFields; ++f)
        if (at[f] != nullptr)
            on[static_cast<std::size_t>(kRowKeys[f].block)] = true;
    for (std::size_t b = 1; b < kRowBlocks; ++b)
        if (on[b]) r->*kRowBlockSwitch[b] = true;
    std::size_t f = 0;
#define TGSIM_ROW_READ(block, fmt, member)                                  \
    if (on[static_cast<std::size_t>(RowBlock::block)] &&                   \
        !read_field<RowFmt::fmt>(at[f], #member, &r->member, error))       \
        return false;                                                       \
    ++f;
#define TGSIM_ROW_READ_DERIVED(block, fmt, member) ++f;
    TGSIM_SWEEP_ROW(TGSIM_ROW_READ, TGSIM_ROW_READ_DERIVED)
#undef TGSIM_ROW_READ
#undef TGSIM_ROW_READ_DERIVED
    return true;
}

bool read_file(const std::string& path, std::string* out,
               std::string* error) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return set_error(error, "cannot open " + path + ": " +
                                    std::strerror(errno));
    out->clear();
    char buf[1 << 16];
    for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, f)) > 0;)
        out->append(buf, n);
    const bool ok = std::ferror(f) == 0;
    std::fclose(f);
    if (!ok) return set_error(error, "read error on " + path);
    return true;
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

bool meta_compatible(const SweepMeta& a, const SweepMeta& b) {
    return meta_diff(a, b).empty();
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
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) return errno == ENOENT ? 0 : -1;
    if (std::fseek(f, 0, SEEK_END) != 0) {
        std::fclose(f);
        return -1;
    }
    long end = std::ftell(f);
    char buf[4096];
    while (end > 0) {
        const long chunk =
            end < static_cast<long>(sizeof buf) ? end : static_cast<long>(sizeof buf);
        if (std::fseek(f, end - chunk, SEEK_SET) != 0 ||
            std::fread(buf, 1, static_cast<std::size_t>(chunk), f) !=
                static_cast<std::size_t>(chunk)) {
            std::fclose(f);
            return -1;
        }
        for (long i = chunk - 1; i >= 0; --i)
            if (buf[i] == '\n') {
                std::fclose(f);
                return end - chunk + i + 1;
            }
        end -= chunk;
    }
    std::fclose(f);
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
    std::string text;
    if (!read_file(path, &text, error)) return std::nullopt;

    // Split into lines first so "last line" is well defined: a torn final
    // line (killed mid-write) is recoverable, a corrupt interior line is
    // not a journal.
    std::vector<std::string_view> lines;
    const std::string_view sv{text};
    for (std::size_t pos = 0; pos < sv.size();) {
        std::size_t nl = sv.find('\n', pos);
        if (nl == std::string_view::npos) nl = sv.size();
        if (nl > pos) lines.push_back(sv.substr(pos, nl - pos));
        pos = nl + 1;
    }
    if (lines.empty()) {
        set_error(error, path + ": empty journal");
        return std::nullopt;
    }

    ParsedReport out;
    std::string perr;
    Json header;
    if (!JsonParser{lines[0]}.parse(&header, &perr) ||
        header.kind != Json::Kind::Object) {
        set_error(error, path + ": bad journal header: " + perr);
        return std::nullopt;
    }
    const Json* meta = header.find("sweep_journal");
    if (meta == nullptr) {
        set_error(error, path + ": not a sweep journal (no header)");
        return std::nullopt;
    }
    if (!meta_from_json(*meta, &out.meta, &perr)) {
        set_error(error, path + ": bad journal header: " + perr);
        return std::nullopt;
    }

    out.rows.reserve(lines.size() - 1);
    for (std::size_t i = 1; i < lines.size(); ++i) {
        Json row;
        SweepResult r;
        if (!JsonParser{lines[i]}.parse(&row, &perr) ||
            !row_from_json(row, &r, &perr)) {
            if (i + 1 == lines.size()) break; // torn final line: re-evaluate
            char msg[64];
            std::snprintf(msg, sizeof msg, ": corrupt journal line %zu: ",
                          i + 1);
            set_error(error, path + msg + perr);
            return std::nullopt;
        }
        out.rows.push_back(std::move(r));
    }
    return out;
}

std::optional<ParsedReport> parse_report_text(const std::string& text,
                                              std::string* error) {
    Json root;
    std::string perr;
    if (!JsonParser{text}.parse(&root, &perr) ||
        root.kind != Json::Kind::Object) {
        set_error(error, "bad report: " + perr);
        return std::nullopt;
    }
    const Json* sweep = root.find("sweep");
    const Json* cands = root.find("candidates");
    if (sweep == nullptr || cands == nullptr ||
        cands->kind != Json::Kind::Array) {
        set_error(error, "bad report: missing 'sweep' or 'candidates'");
        return std::nullopt;
    }
    ParsedReport out;
    if (!meta_from_json(*sweep, &out.meta, &perr)) {
        set_error(error, "bad report header: " + perr);
        return std::nullopt;
    }
    out.rows.reserve(cands->arr.size());
    for (std::size_t i = 0; i < cands->arr.size(); ++i) {
        SweepResult r;
        if (!row_from_json(cands->arr[i], &r, &perr)) {
            char msg[48];
            std::snprintf(msg, sizeof msg, "bad candidate row %zu: ", i);
            set_error(error, msg + perr);
            return std::nullopt;
        }
        out.rows.push_back(std::move(r));
    }
    return out;
}

std::optional<ParsedReport> parse_report_file(const std::string& path,
                                              std::string* error) {
    std::string text;
    if (!read_file(path, &text, error)) return std::nullopt;
    std::optional<ParsedReport> out = parse_report_text(text, error);
    if (!out && error != nullptr) *error = path + ": " + *error;
    return out;
}

bool parse_result_row(const std::string& line, SweepResult* out,
                      std::string* error) {
    Json row;
    std::string perr;
    if (!JsonParser{line}.parse(&row, &perr))
        return set_error(error, "bad row: " + perr);
    return row_from_json(row, out, error);
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
    std::size_t n_rows = 0;
    for (const ParsedReport& s : shards) n_rows += s.rows.size();
    if (n_rows < m0.n_candidates) {
        char msg[96];
        std::snprintf(msg, sizeof msg,
                      "missing candidates: the shards hold %zu rows for a"
                      " grid of %u",
                      n_rows, m0.n_candidates);
        set_error(error, msg);
        return std::nullopt;
    }
    ParsedReport out;
    out.meta = m0;
    out.meta.shard = ShardSpec{}; // the merge IS the unsharded report
    out.rows.resize(m0.n_candidates);
    std::vector<bool> present(m0.n_candidates, false);
    for (ParsedReport& s : shards) {
        const u32 k = s.meta.shard.index;
        for (SweepResult& r : s.rows) {
            char msg[96];
            if (r.index >= m0.n_candidates) {
                std::snprintf(msg, sizeof msg,
                              "candidate index %u out of range (grid is %u)",
                              r.index, m0.n_candidates);
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
            out.rows[r.index] = std::move(r);
        }
    }
    for (u32 i = 0; i < m0.n_candidates; ++i)
        if (!present[i]) {
            char msg[64];
            std::snprintf(msg, sizeof msg,
                          "missing candidate %u (shard %u/%u incomplete)", i,
                          shard_of(i, count), count);
            set_error(error, msg);
            return std::nullopt;
        }
    canonicalize(out.meta, out.rows);
    return out;
}

} // namespace tgsim::sweep
