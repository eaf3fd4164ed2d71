#include "tg/program.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <unordered_map>

#include "ocp/channel.hpp"
#include "tg/text_number.hpp"

namespace tgsim::tg {

namespace {

std::string hex32(u32 v) {
    char buf[16];
    std::snprintf(buf, sizeof buf, "0x%08X", v);
    return buf;
}

// These build left-to-right (not operator+(const char*, string&&)): GCC
// 12's -Wrestrict false-positives on the rvalue insert path under -O2.
std::string reg_name(u8 r) {
    std::string s{"r"};
    s += std::to_string(r);
    return s;
}

std::string numbered_label(u32 index) {
    std::string s{"L"};
    s += std::to_string(index);
    return s;
}

std::string label_for(const TgProgram& prog, u32 index) {
    const auto it = prog.labels.find(index);
    if (it != prog.labels.end()) return it->second;
    return numbered_label(index);
}

/// Trims whitespace and strips ';' comments.
std::string clean(const std::string& raw) {
    std::string s = raw.substr(0, raw.find(';'));
    const auto first = s.find_first_not_of(" \t\r\n");
    if (first == std::string::npos) return {};
    const auto last = s.find_last_not_of(" \t\r\n");
    return s.substr(first, last - first + 1);
}

TgCmp parse_cmp(const std::string& tok) {
    for (u8 c = 0; c <= static_cast<u8>(TgCmp::Ges); ++c)
        if (to_string(static_cast<TgCmp>(c)) == tok) return static_cast<TgCmp>(c);
    throw std::invalid_argument{"bad comparison '" + tok + "'"};
}

/// A 32-bit number: decimal, 0x-hex or 0-octal.
u32 parse_u32(const std::string& tok) {
    const auto v = parse_unsigned(tok, true, std::numeric_limits<u32>::max());
    if (!v) throw std::invalid_argument{"bad number '" + tok + "'"};
    return static_cast<u32>(*v);
}

u8 parse_reg(const std::string& tok) {
    if (tok.size() < 2 || (tok[0] != 'r' && tok[0] != 'R'))
        throw std::invalid_argument{"bad register '" + tok + "'"};
    const auto n = parse_unsigned(std::string_view{tok}.substr(1), false, kTgNumRegs - 1);
    if (!n) throw std::invalid_argument{"register out of range '" + tok + "'"};
    return static_cast<u8>(*n);
}

/// A burst beat count the image and the OCP channel can both carry.
u32 parse_burst(const std::string& tok) {
    const u32 n = parse_u32(tok);
    if (n < 1 || n > ocp::kMaxBurstLen)
        throw std::invalid_argument{"burst count " + tok + " outside [1, " +
                                    std::to_string(ocp::kMaxBurstLen) + "]"};
    return n;
}

/// Splits "Op(arg, arg, ...)" into op name and raw args.
struct Call {
    std::string name;
    std::vector<std::string> args;
    std::string suffix; ///< anything after the closing paren
};

Call parse_call(const std::string& line) {
    Call c;
    const auto open = line.find('(');
    if (open == std::string::npos) {
        c.name = line;
        return c;
    }
    c.name = clean(line.substr(0, open));
    const auto close = line.find(')', open);
    if (close == std::string::npos)
        throw std::invalid_argument{"missing ')'"};
    std::string inner = line.substr(open + 1, close - open - 1);
    c.suffix = clean(line.substr(close + 1));
    std::string cur;
    for (const char ch : inner) {
        if (ch == ',') {
            c.args.push_back(clean(cur));
            cur.clear();
        } else {
            cur += ch;
        }
    }
    if (!c.args.empty() || !clean(cur).empty()) c.args.push_back(clean(cur));
    return c;
}

/// Splits `s` on whitespace; throws unless there are exactly `n` tokens.
std::vector<std::string> words(const std::string& s, std::size_t n,
                               const char* what) {
    std::istringstream is{s};
    std::vector<std::string> out;
    for (std::string w; is >> w;) out.push_back(std::move(w));
    if (out.size() != n) throw std::invalid_argument{std::string{"bad "} + what};
    return out;
}

/// The label of a condition's "then <label>" suffix.
std::string then_label(const std::string& suffix) {
    const auto then = words(suffix, 2, "If: want 'then <label>'");
    if (then[0] != "then") throw std::invalid_argument{"If missing 'then <label>'"};
    return then[1];
}

/// The table row named `name`, or nullptr.
const TgOpInfo* find_op(std::string_view name) {
    const auto* row = std::ranges::find(kTgOps, name, &TgOpInfo::name);
    return row != std::end(kTgOps) ? row : nullptr;
}

/// Reads .tgp text line by line; every error names the line.
class ProgramReader {
public:
    explicit ProgramReader(const std::string& text) : is_(text) {}

    TgProgram read() {
        std::string raw;
        bool in_body = false;
        bool ended = false;
        while (std::getline(is_, raw)) {
            ++line_no_;
            const std::string line = clean(raw);
            if (line.empty()) continue;
            try {
                if (ended) throw std::invalid_argument{"content after END"};
                if (!in_body)
                    in_body = header(line);
                else if (line == "END")
                    ended = true;
                else
                    body(line);
            } catch (const std::invalid_argument& e) {
                fail(line_no_, e.what());
            }
        }
        if (!ended) throw std::invalid_argument{"tgp: missing END"};
        for (const Ref& r : refs_) {
            const auto it = bound_labels_.find(r.label);
            if (it == bound_labels_.end())
                fail(r.line, "undefined label " + r.label);
            prog_.instrs[r.instr].target = it->second;
            prog_.labels[it->second] = r.label;
        }
        for (const auto& [name, index] : bound_labels_)
            if (index == prog_.instrs.size())
                fail(line_no_, "label " + name + " binds no instruction");
        return std::move(prog_);
    }

private:
    struct Ref {
        std::size_t instr = 0;
        std::string label;
        std::size_t line = 0;
    };

    [[noreturn]] static void fail(std::size_t line, const std::string& what) {
        throw std::invalid_argument{"tgp: line " + std::to_string(line) + ": " +
                                    what};
    }

    /// A line before BEGIN; returns true at BEGIN.
    bool header(const std::string& line) {
        if (line.rfind("MASTER[", 0) == 0) {
            const auto close = line.find(']');
            const auto comma = line.find(',');
            if (close != line.size() - 1 || comma == std::string::npos || comma > close)
                throw std::invalid_argument{"bad MASTER line"};
            prog_.core_id = parse_u32(line.substr(7, comma - 7));
            prog_.thread_id = parse_u32(line.substr(comma + 1, close - comma - 1));
            return false;
        }
        if (line.rfind("REGISTER", 0) == 0) {
            const auto w = words(line, 3, "REGISTER line");
            if (w[0] != "REGISTER") throw std::invalid_argument{"bad REGISTER line"};
            prog_.reg_init[parse_reg(w[1])] = parse_u32(w[2]);
            return false;
        }
        if (line == "BEGIN") return true;
        throw std::invalid_argument{"unexpected line '" + line + "'"};
    }

    void body(const std::string& line) {
        if (line.back() == ':') {
            const std::string name = clean(line.substr(0, line.size() - 1));
            // Jump(...) splits its operands on ',' and "then <label>" on
            // whitespace, so a name holding either could not be printed
            // back in every position.
            if (name.empty() || name.find_first_of(" \t,():") != std::string::npos)
                throw std::invalid_argument{"bad label '" + name + "'"};
            if (!bound_labels_.emplace(name, static_cast<u32>(prog_.instrs.size())).second)
                throw std::invalid_argument{"duplicate label " + name};
            return;
        }
        const Call c = parse_call(line);
        const TgOpInfo* info = find_op(c.name);
        // Only a condition's "then <label>" and BurstWrite's beats follow
        // the closing paren.
        if (!c.suffix.empty() && (info == nullptr || !(info->cmp || info->beats)))
            throw std::invalid_argument{"unexpected '" + c.suffix + "'"};
        if (info == nullptr)
            throw std::invalid_argument{"unknown instruction '" + c.name + "'"};
        const std::size_t n_args =
            info->cmp ? 1 : info->a + info->b + info->count + info->imm + info->target;
        if (c.args.size() != n_args)
            throw std::invalid_argument{c.name + " takes " + std::to_string(n_args) +
                                        " operand(s)"};
        // A compare op's one operand is its condition, "a cmp b|imm".
        const std::vector<std::string> args =
            info->cmp ? words(c.args[0], 3, "condition") : c.args;
        auto arg = args.begin();
        TgInstr in;
        in.op = info->op;
        if (info->a) in.a = parse_reg(*arg++);
        if (info->cmp) in.cmp = parse_cmp(*arg++);
        if (info->b) in.b = parse_reg(*arg++);
        if (info->count) in.imm = parse_burst(*arg++);
        if (info->imm) in.imm = parse_u32(*arg++);
        if (info->target)
            refs_.push_back(Ref{prog_.instrs.size(),
                                info->cmp ? then_label(c.suffix) : *arg++, line_no_});
        if (info->beats) {
            in.beat_off = static_cast<u32>(prog_.beats.size());
            if (c.suffix.size() < 2 || c.suffix.front() != '{' || c.suffix.back() != '}')
                throw std::invalid_argument{"BurstWrite missing beats"};
            std::istringstream bs{c.suffix.substr(1, c.suffix.size() - 2)};
            u32 n = 0;
            for (std::string tok; std::getline(bs, tok, ','); ++n) {
                if (n == in.imm)
                    throw std::invalid_argument{"BurstWrite beat count mismatch"};
                prog_.beats.push_back(parse_u32(clean(tok)));
            }
            if (n != in.imm)
                throw std::invalid_argument{"BurstWrite beat count mismatch"};
        }
        prog_.instrs.push_back(in);
    }

    std::istringstream is_;
    std::size_t line_no_ = 0;
    TgProgram prog_;
    std::unordered_map<std::string, u32> bound_labels_;
    std::vector<Ref> refs_;
};

} // namespace

std::span<const u32> TgProgram::beats_of(const TgInstr& in) const {
    if (in.beat_off > beats.size() || in.imm > beats.size() - in.beat_off)
        throw std::invalid_argument{"BurstWrite beats outside the program's beat store"};
    return {beats.data() + in.beat_off, in.imm};
}

void TgProgram::push_burst_write(u8 areg, std::span<const u32> data) {
    if (beats.size() > std::numeric_limits<u32>::max() - data.size())
        throw std::length_error{"TgProgram: too many beats"};
    TgInstr in;
    in.op = TgOp::BurstWrite;
    in.a = areg;
    in.imm = static_cast<u32>(data.size());
    in.beat_off = static_cast<u32>(beats.size());
    beats.insert(beats.end(), data.begin(), data.end());
    instrs.push_back(in);
}

bool TgProgram::operator==(const TgProgram& o) const {
    if (core_id != o.core_id || thread_id != o.thread_id ||
        reg_init != o.reg_init || instrs.size() != o.instrs.size())
        return false;
    for (std::size_t i = 0; i < instrs.size(); ++i) {
        TgInstr a = instrs[i];
        TgInstr b = o.instrs[i];
        if (a.op == TgOp::BurstWrite && b.op == TgOp::BurstWrite &&
            !std::ranges::equal(beats_of(a), o.beats_of(b)))
            return false;
        a.beat_off = b.beat_off = 0;
        if (a != b) return false;
    }
    return true;
}

std::string to_text(const TgProgram& prog) {
    std::ostringstream os;
    os << "; tgsim TG program\n";
    os << "MASTER[" << prog.core_id << "," << prog.thread_id << "]\n";
    for (const auto& [reg, value] : prog.reg_init)
        os << "REGISTER " << reg_name(reg) << ' ' << hex32(value) << '\n';
    os << "BEGIN\n";
    // Collect all referenced targets so every one gets a label line.
    std::map<u32, std::string> labels;
    for (const TgInstr& in : prog.instrs) {
        const TgOpInfo* info = op_info(in.op);
        if (info != nullptr && info->target)
            labels[in.target] = label_for(prog, in.target);
    }
    for (u32 i = 0; i < prog.instrs.size(); ++i) {
        const auto lit = labels.find(i);
        if (lit != labels.end()) os << lit->second << ":\n";
        const TgInstr& in = prog.instrs[i];
        const TgOpInfo* info = op_info(in.op);
        if (info == nullptr)
            throw std::invalid_argument{"to_text: unknown opcode " +
                                        std::to_string(static_cast<u32>(in.op)) +
                                        " at instruction " + std::to_string(i)};
        const std::string imm =
            info->hex ? hex32(in.imm) : std::to_string(in.imm);
        os << "  " << info->name;
        if (info->cmp) {
            os << '(' << reg_name(in.a) << ' ' << to_string(in.cmp) << ' '
               << (info->b ? reg_name(in.b) : imm) << ") then "
               << labels.at(in.target);
        } else {
            const char* sep = "(";
            const auto operand = [&](const std::string& text) {
                os << sep << text;
                sep = ", ";
            };
            if (info->a) operand(reg_name(in.a));
            if (info->b) operand(reg_name(in.b));
            if (info->count) operand(std::to_string(in.imm));
            if (info->imm) operand(imm);
            if (info->target) operand(labels.at(in.target));
            if (*sep == ',') os << ')';
        }
        if (info->beats) {
            const char* sep = "";
            os << " {";
            for (const u32 beat : prog.beats_of(in)) {
                os << sep << hex32(beat);
                sep = ", ";
            }
            os << '}';
        }
        os << '\n';
    }
    os << "END\n";
    return os.str();
}

TgProgram program_from_text(const std::string& text) {
    return ProgramReader{text}.read();
}

std::vector<u32> assemble(const TgProgram& prog) {
    // First pass: validate, and find the word offset of every instruction.
    std::vector<u32> offsets;
    offsets.reserve(prog.instrs.size());
    u32 pos = 0;
    for (const TgInstr& in : prog.instrs) {
        offsets.push_back(pos);
        const auto fail = [&](const std::string& what) {
            throw std::invalid_argument{"assemble: " + what + " at instruction " +
                                        std::to_string(offsets.size() - 1)};
        };
        const TgOpInfo* info = op_info(in.op);
        if (info == nullptr) fail("unknown opcode");
        if ((info->a && in.a >= kTgNumRegs) || (info->b && in.b >= kTgNumRegs))
            fail("register past r15");
        if (info->count && (in.imm < 1 || in.imm > ocp::kMaxBurstLen))
            fail("burst count " + std::to_string(in.imm) + " outside [1, " +
                 std::to_string(ocp::kMaxBurstLen) + "]");
        if (info->target && in.target >= prog.instrs.size())
            fail("branch target out of range");
        if (info->cmp && in.cmp > TgCmp::Ges) fail("unknown comparison");
        if (info->beats) (void)prog.beats_of(in); // throws when the beats are missing
        pos += info->words(in.imm);
    }
    // Second pass: emit word 0, then the extra words in table order.
    std::vector<u32> image;
    image.reserve(pos);
    for (const TgInstr& in : prog.instrs) {
        const TgOpInfo& info = *op_info(in.op);
        image.push_back(encode_w0(in.op, info.a ? in.a : 0, info.b ? in.b : 0,
                                  info.cmp ? in.cmp : TgCmp::Eq,
                                  info.count ? in.imm : 0));
        if (info.imm) image.push_back(in.imm);
        if (info.target) image.push_back(offsets[in.target]);
        if (info.beats) {
            const std::span<const u32> beats = prog.beats_of(in);
            image.insert(image.end(), beats.begin(), beats.end());
        }
    }
    return image;
}

AssembledTg assemble_tg(const TgProgram& prog) {
    AssembledTg out;
    out.image = assemble(prog);
    out.reg_init.assign(prog.reg_init.begin(), prog.reg_init.end());
    return out;
}

std::vector<AssembledTg> assemble_all(const std::vector<TgProgram>& progs) {
    std::vector<AssembledTg> out;
    out.reserve(progs.size());
    for (const TgProgram& p : progs) out.push_back(assemble_tg(p));
    return out;
}

TgProgram disassemble(const std::vector<u32>& image) {
    TgProgram prog;
    std::map<u32, u32> word_to_index; // word offset -> instruction index
    u32 pos = 0;
    while (pos < image.size()) {
        const TgWord0 w0 = decode_w0(image[pos]);
        const TgOpInfo* info = op_info(w0.op);
        if (info == nullptr)
            throw std::invalid_argument{"disassemble: unknown opcode " +
                                        std::to_string(static_cast<u32>(w0.op)) +
                                        " at word " + std::to_string(pos)};
        if (info->cmp && w0.cmp > TgCmp::Ges)
            throw std::invalid_argument{"disassemble: unknown comparison " +
                                        std::to_string(static_cast<u32>(w0.cmp)) +
                                        " at word " + std::to_string(pos)};
        const u32 words = info->words(w0.imm12);
        if (words > image.size() - pos)
            throw std::invalid_argument{"disassemble: truncated image"};
        if (info->count && (w0.imm12 < 1 || w0.imm12 > ocp::kMaxBurstLen))
            throw std::invalid_argument{"disassemble: burst count " +
                                        std::to_string(w0.imm12) + " outside [1, " +
                                        std::to_string(ocp::kMaxBurstLen) +
                                        "] at word " + std::to_string(pos)};
        word_to_index[pos] = static_cast<u32>(prog.instrs.size());
        TgInstr in;
        in.op = w0.op;
        if (info->a) in.a = w0.a;
        if (info->b) in.b = w0.b;
        if (info->cmp) in.cmp = w0.cmp;
        if (info->count) in.imm = w0.imm12;
        u32 next = pos + 1; // the extra words, in table order
        if (info->imm) in.imm = image[next++];
        if (info->target) in.target = image[next++]; // a word address until resolved below
        if (info->beats) {
            in.beat_off = static_cast<u32>(prog.beats.size());
            prog.beats.insert(prog.beats.end(), image.begin() + next,
                              image.begin() + next + in.imm);
        }
        prog.instrs.push_back(in);
        pos += words;
    }
    for (TgInstr& in : prog.instrs) {
        if (!op_info(in.op)->target) continue;
        const auto it = word_to_index.find(in.target);
        if (it == word_to_index.end())
            throw std::invalid_argument{"disassemble: branch into instruction middle"};
        in.target = it->second;
        prog.labels[it->second] = numbered_label(it->second);
    }
    return prog;
}

} // namespace tgsim::tg
