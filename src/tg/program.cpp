#include "tg/program.hpp"

#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

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

u8 parse_reg(const std::string& tok) {
    if (tok.size() < 2 || (tok[0] != 'r' && tok[0] != 'R'))
        throw std::invalid_argument{"tgp: bad register '" + tok + "'"};
    const int n = std::stoi(tok.substr(1));
    if (n < 0 || n >= kTgNumRegs)
        throw std::invalid_argument{"tgp: register out of range '" + tok + "'"};
    return static_cast<u8>(n);
}

u32 parse_u32(const std::string& tok) {
    return static_cast<u32>(std::stoul(tok, nullptr, 0));
}

TgCmp parse_cmp(const std::string& tok) {
    if (tok == "==") return TgCmp::Eq;
    if (tok == "!=") return TgCmp::Ne;
    if (tok == "<u") return TgCmp::Ltu;
    if (tok == ">=u") return TgCmp::Geu;
    if (tok == "<s") return TgCmp::Lts;
    if (tok == ">=s") return TgCmp::Ges;
    throw std::invalid_argument{"tgp: bad comparison '" + tok + "'"};
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
        throw std::invalid_argument{"tgp: missing ')': " + line};
    std::string inner = line.substr(open + 1, close - open - 1);
    c.suffix = clean(line.substr(close + 1));
    std::string cur;
    int depth = 0;
    for (const char ch : inner) {
        if (ch == ',' && depth == 0) {
            c.args.push_back(clean(cur));
            cur.clear();
        } else {
            if (ch == '{') ++depth;
            if (ch == '}') --depth;
            cur += ch;
        }
    }
    if (!clean(cur).empty()) c.args.push_back(clean(cur));
    return c;
}

} // namespace

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
        if (in.op == TgOp::If || in.op == TgOp::IfImm || in.op == TgOp::Jump)
            labels[in.target] = label_for(prog, in.target);
    }
    for (u32 i = 0; i < prog.instrs.size(); ++i) {
        const auto lit = labels.find(i);
        if (lit != labels.end()) os << lit->second << ":\n";
        const TgInstr& in = prog.instrs[i];
        os << "  ";
        switch (in.op) {
            case TgOp::Read:
                os << "Read(" << reg_name(in.a) << ")";
                break;
            case TgOp::Write:
                os << "Write(" << reg_name(in.a) << ", " << reg_name(in.b) << ")";
                break;
            case TgOp::BurstRead:
                os << "BurstRead(" << reg_name(in.a) << ", " << in.imm << ")";
                break;
            case TgOp::BurstWrite: {
                os << "BurstWrite(" << reg_name(in.a) << ", " << in.imm << ") {";
                for (std::size_t k = 0; k < in.burst_data.size(); ++k) {
                    if (k != 0) os << ", ";
                    os << hex32(in.burst_data[k]);
                }
                os << "}";
                break;
            }
            case TgOp::If:
                os << "If(" << reg_name(in.a) << ' ' << to_string(in.cmp) << ' '
                   << reg_name(in.b) << ") then " << labels.at(in.target);
                break;
            case TgOp::IfImm:
                os << "IfImm(" << reg_name(in.a) << ' ' << to_string(in.cmp)
                   << ' ' << hex32(in.imm) << ") then " << labels.at(in.target);
                break;
            case TgOp::Jump:
                os << "Jump(" << labels.at(in.target) << ")";
                break;
            case TgOp::SetRegister:
                os << "SetRegister(" << reg_name(in.a) << ", " << hex32(in.imm) << ")";
                break;
            case TgOp::Idle:
                os << "Idle(" << in.imm << ")";
                break;
            case TgOp::IdleUntil:
                os << "IdleUntil(" << in.imm << ")";
                break;
            case TgOp::Halt:
                os << "Halt";
                break;
        }
        os << '\n';
    }
    os << "END\n";
    return os.str();
}

TgProgram program_from_text(const std::string& text) {
    TgProgram prog;
    std::istringstream is{text};
    std::string raw;
    bool in_body = false;
    bool ended = false;
    std::unordered_map<std::string, u32> bound_labels;
    struct Ref {
        std::size_t instr = 0;
        std::string label;
    };
    std::vector<Ref> refs;

    while (std::getline(is, raw)) {
        const std::string line = clean(raw);
        if (line.empty()) continue;
        if (!in_body) {
            if (line.rfind("MASTER[", 0) == 0) {
                const auto close = line.find(']');
                if (close == std::string::npos)
                    throw std::invalid_argument{"tgp: bad MASTER line"};
                const std::string inner = line.substr(7, close - 7);
                const auto comma = inner.find(',');
                if (comma == std::string::npos)
                    throw std::invalid_argument{"tgp: bad MASTER line"};
                prog.core_id = parse_u32(inner.substr(0, comma));
                prog.thread_id = parse_u32(inner.substr(comma + 1));
            } else if (line.rfind("REGISTER", 0) == 0) {
                std::istringstream ls{line};
                std::string kw, reg, val;
                ls >> kw >> reg >> val;
                prog.reg_init[parse_reg(reg)] = parse_u32(val);
            } else if (line == "BEGIN") {
                in_body = true;
            } else {
                throw std::invalid_argument{"tgp: unexpected line '" + line + "'"};
            }
            continue;
        }
        if (line == "END") {
            ended = true;
            break;
        }
        if (line.back() == ':') {
            const std::string name = clean(line.substr(0, line.size() - 1));
            if (!bound_labels.emplace(name, static_cast<u32>(prog.instrs.size())).second)
                throw std::invalid_argument{"tgp: duplicate label " + name};
            continue;
        }
        const Call c = parse_call(line);
        TgInstr in;
        if (c.name == "Read") {
            in.op = TgOp::Read;
            in.a = parse_reg(c.args.at(0));
        } else if (c.name == "Write") {
            in.op = TgOp::Write;
            in.a = parse_reg(c.args.at(0));
            in.b = parse_reg(c.args.at(1));
        } else if (c.name == "BurstRead") {
            in.op = TgOp::BurstRead;
            in.a = parse_reg(c.args.at(0));
            in.imm = parse_u32(c.args.at(1));
        } else if (c.name == "BurstWrite") {
            in.op = TgOp::BurstWrite;
            in.a = parse_reg(c.args.at(0));
            in.imm = parse_u32(c.args.at(1));
            // beats are in the suffix: "{ 0x.., 0x.. }"
            const auto ob = c.suffix.find('{');
            const auto cb = c.suffix.find('}');
            if (ob == std::string::npos || cb == std::string::npos)
                throw std::invalid_argument{"tgp: BurstWrite missing beats"};
            std::string beats = c.suffix.substr(ob + 1, cb - ob - 1);
            std::istringstream bs{beats};
            std::string tok;
            while (std::getline(bs, tok, ',')) {
                const std::string t = clean(tok);
                if (!t.empty()) in.burst_data.push_back(parse_u32(t));
            }
            if (in.burst_data.size() != in.imm)
                throw std::invalid_argument{"tgp: BurstWrite beat count mismatch"};
        } else if (c.name == "If" || c.name == "IfImm") {
            // args[0] = "rX <cmp> rhs" ; suffix = "then <label>"
            std::istringstream as{c.args.at(0)};
            std::string lhs, cmp, rhs;
            as >> lhs >> cmp >> rhs;
            in.op = (c.name == "If") ? TgOp::If : TgOp::IfImm;
            in.a = parse_reg(lhs);
            in.cmp = parse_cmp(cmp);
            if (in.op == TgOp::If)
                in.b = parse_reg(rhs);
            else
                in.imm = parse_u32(rhs);
            std::istringstream ss{c.suffix};
            std::string then, label;
            ss >> then >> label;
            if (then != "then" || label.empty())
                throw std::invalid_argument{"tgp: If missing 'then <label>'"};
            refs.push_back(Ref{prog.instrs.size(), label});
        } else if (c.name == "Jump") {
            in.op = TgOp::Jump;
            refs.push_back(Ref{prog.instrs.size(), c.args.at(0)});
        } else if (c.name == "SetRegister") {
            in.op = TgOp::SetRegister;
            in.a = parse_reg(c.args.at(0));
            in.imm = parse_u32(c.args.at(1));
        } else if (c.name == "Idle") {
            in.op = TgOp::Idle;
            in.imm = parse_u32(c.args.at(0));
        } else if (c.name == "IdleUntil") {
            in.op = TgOp::IdleUntil;
            in.imm = parse_u32(c.args.at(0));
        } else if (c.name == "Halt") {
            in.op = TgOp::Halt;
        } else {
            throw std::invalid_argument{"tgp: unknown instruction '" + c.name + "'"};
        }
        prog.instrs.push_back(std::move(in));
    }
    if (!ended) throw std::invalid_argument{"tgp: missing END"};
    for (const Ref& r : refs) {
        const auto it = bound_labels.find(r.label);
        if (it == bound_labels.end())
            throw std::invalid_argument{"tgp: undefined label " + r.label};
        prog.instrs[r.instr].target = it->second;
        prog.labels[it->second] = r.label;
    }
    return prog;
}

std::size_t encoded_word_count(const TgProgram& prog) {
    std::size_t words = 0;
    for (const TgInstr& in : prog.instrs) {
        TgWord0 w0{in.op, in.a, in.b, in.cmp,
                   (in.op == TgOp::BurstWrite || in.op == TgOp::BurstRead)
                       ? in.imm
                       : 0};
        words += encoded_words(w0);
    }
    return words;
}

std::vector<u32> assemble(const TgProgram& prog) {
    // First pass: word offset of every instruction.
    std::vector<u32> offsets;
    offsets.reserve(prog.instrs.size());
    u32 pos = 0;
    for (const TgInstr& in : prog.instrs) {
        offsets.push_back(pos);
        switch (in.op) {
            case TgOp::Read:
            case TgOp::Write:
            case TgOp::BurstRead:
            case TgOp::Halt:
                pos += 1;
                break;
            case TgOp::BurstWrite:
                if (in.burst_data.size() != in.imm)
                    throw std::invalid_argument{"assemble: BurstWrite beat mismatch"};
                pos += 1 + in.imm;
                break;
            case TgOp::If:
            case TgOp::Jump:
            case TgOp::SetRegister:
            case TgOp::Idle:
            case TgOp::IdleUntil:
                pos += 2;
                break;
            case TgOp::IfImm:
                pos += 3;
                break;
        }
    }
    // Second pass: emit.
    std::vector<u32> image;
    image.reserve(pos);
    for (const TgInstr& in : prog.instrs) {
        const auto target_words = [&](u32 idx) {
            if (idx >= offsets.size())
                throw std::out_of_range{"assemble: branch target out of range"};
            return offsets[idx];
        };
        switch (in.op) {
            case TgOp::Read:
                image.push_back(encode_w0(in.op, in.a));
                break;
            case TgOp::Write:
                image.push_back(encode_w0(in.op, in.a, in.b));
                break;
            case TgOp::BurstRead:
                image.push_back(encode_w0(in.op, in.a, 0, TgCmp::Eq, in.imm));
                break;
            case TgOp::BurstWrite:
                image.push_back(encode_w0(in.op, in.a, 0, TgCmp::Eq, in.imm));
                for (const u32 beat : in.burst_data) image.push_back(beat);
                break;
            case TgOp::If:
                image.push_back(encode_w0(in.op, in.a, in.b, in.cmp));
                image.push_back(target_words(in.target));
                break;
            case TgOp::IfImm:
                image.push_back(encode_w0(in.op, in.a, 0, in.cmp));
                image.push_back(in.imm);
                image.push_back(target_words(in.target));
                break;
            case TgOp::Jump:
                image.push_back(encode_w0(in.op));
                image.push_back(target_words(in.target));
                break;
            case TgOp::SetRegister:
                image.push_back(encode_w0(in.op, in.a));
                image.push_back(in.imm);
                break;
            case TgOp::Idle:
            case TgOp::IdleUntil:
                image.push_back(encode_w0(in.op));
                image.push_back(in.imm);
                break;
            case TgOp::Halt:
                image.push_back(encode_w0(in.op));
                break;
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
    std::vector<u32> word_targets;    // per instruction with target: word addr
    std::vector<std::size_t> target_instrs;

    u32 pos = 0;
    while (pos < image.size()) {
        const TgWord0 w0 = decode_w0(image[pos]);
        word_to_index[pos] = static_cast<u32>(prog.instrs.size());
        TgInstr in;
        in.op = w0.op;
        in.a = w0.a;
        in.b = w0.b;
        in.cmp = w0.cmp;
        if (w0.op < TgOp::Read || w0.op > TgOp::Halt)
            throw std::invalid_argument{"disassemble: unknown opcode " +
                                        std::to_string(static_cast<u32>(w0.op)) +
                                        " at word " + std::to_string(pos)};
        if ((w0.op == TgOp::If || w0.op == TgOp::IfImm) && w0.cmp > TgCmp::Ges)
            throw std::invalid_argument{"disassemble: unknown comparison " +
                                        std::to_string(static_cast<u32>(w0.cmp)) +
                                        " at word " + std::to_string(pos)};
        const u32 words = encoded_words(w0);
        if (words > image.size() - pos)
            throw std::invalid_argument{"disassemble: truncated image"};
        switch (w0.op) {
            case TgOp::Read:
            case TgOp::Write:
            case TgOp::Halt:
                break;
            case TgOp::BurstRead:
                in.imm = w0.imm12;
                break;
            case TgOp::BurstWrite:
                in.imm = w0.imm12;
                for (u32 k = 0; k < w0.imm12; ++k)
                    in.burst_data.push_back(image[pos + 1 + k]);
                break;
            case TgOp::If:
                target_instrs.push_back(prog.instrs.size());
                word_targets.push_back(image[pos + 1]);
                break;
            case TgOp::IfImm:
                in.imm = image[pos + 1];
                target_instrs.push_back(prog.instrs.size());
                word_targets.push_back(image[pos + 2]);
                break;
            case TgOp::Jump:
                target_instrs.push_back(prog.instrs.size());
                word_targets.push_back(image[pos + 1]);
                break;
            case TgOp::SetRegister:
            case TgOp::Idle:
            case TgOp::IdleUntil:
                in.imm = image[pos + 1];
                break;
        }
        prog.instrs.push_back(std::move(in));
        pos += words;
    }
    for (std::size_t k = 0; k < target_instrs.size(); ++k) {
        const auto it = word_to_index.find(word_targets[k]);
        if (it == word_to_index.end())
            throw std::invalid_argument{"disassemble: branch into instruction middle"};
        prog.instrs[target_instrs[k]].target = it->second;
        prog.labels[it->second] = numbered_label(it->second);
    }
    return prog;
}

} // namespace tgsim::tg
