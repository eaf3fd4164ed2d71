#include "tg/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "ocp/channel.hpp"
#include "tg/text_number.hpp"

namespace tgsim::tg {

void Trace::append(TraceEvent ev, std::span<const u32> data) {
    if (beats.size() + data.size() > std::numeric_limits<u32>::max() ||
        data.size() > std::numeric_limits<u16>::max())
        throw std::length_error{"trace: too many beats"};
    ev.beat_off = static_cast<u32>(beats.size());
    ev.beat_count = static_cast<u16>(data.size());
    beats.insert(beats.end(), data.begin(), data.end());
    events.push_back(ev);
}

bool Trace::operator==(const Trace& o) const {
    if (core_id != o.core_id || thread_id != o.thread_id ||
        end_cycle != o.end_cycle || events.size() != o.events.size())
        return false;
    for (std::size_t i = 0; i < events.size(); ++i) {
        const TraceEvent& a = events[i];
        const TraceEvent& b = o.events[i];
        if (a.cmd != b.cmd || a.addr != b.addr || a.burst != b.burst ||
            a.t_assert != b.t_assert || a.t_accept != b.t_accept ||
            a.t_resp_first != b.t_resp_first || a.t_resp_last != b.t_resp_last ||
            !std::ranges::equal(beats_of(a), o.beats_of(b)))
            return false;
    }
    return true;
}

std::string to_text(const Trace& trace) {
    std::ostringstream os;
    os << "; tgsim trace\n";
    os << "CORE " << trace.core_id << " THREAD " << trace.thread_id << '\n';
    char buf[64];
    for (const TraceEvent& ev : trace.events) {
        std::snprintf(buf, sizeof buf, "EVT %s 0x%08X",
                      std::string(ocp::to_string(ev.cmd)).c_str(), ev.addr);
        os << buf << " burst=" << ev.burst << " assert=" << ev.t_assert
           << " accept=" << ev.t_accept << " resp=" << ev.t_resp_first << ':'
           << ev.t_resp_last << " data=[";
        const std::span<const u32> data = trace.beats_of(ev);
        for (std::size_t i = 0; i < data.size(); ++i) {
            if (i != 0) os << ',';
            std::snprintf(buf, sizeof buf, "0x%08X", data[i]);
            os << buf;
        }
        os << "]\n";
    }
    os << "END " << trace.end_cycle << '\n';
    return os.str();
}

namespace {

/// Reads .trc text line by line; every error names the line.
class TraceReader {
public:
    explicit TraceReader(const std::string& text) : is_(text) {}

    Trace read() {
        std::string line;
        bool got_end = false;
        while (std::getline(is_, line)) {
            ++line_no_;
            if (line.empty() || line[0] == ';') continue;
            if (got_end) fail("content after END");
            std::istringstream ls{line};
            std::string kw;
            ls >> kw;
            if (kw == "CORE") {
                std::string core, thread_kw, thread;
                ls >> core >> thread_kw >> thread;
                if (thread_kw != "THREAD") fail("bad CORE line");
                trace_.core_id = number<u32>(core, false, "core id");
                trace_.thread_id = number<u32>(thread, false, "thread id");
                expect_end_of(ls);
            } else if (kw == "EVT") {
                event(ls);
            } else if (kw == "END") {
                std::string end;
                ls >> end;
                trace_.end_cycle = number<Cycle>(end, false, "END cycle");
                expect_end_of(ls);
                got_end = true;
            } else {
                fail("unexpected line: " + line);
            }
        }
        if (!got_end) throw std::invalid_argument{"trc: missing END"};
        return std::move(trace_);
    }

private:
    [[noreturn]] void fail(const std::string& what) const {
        throw std::invalid_argument{"trc: line " + std::to_string(line_no_) +
                                    ": " + what};
    }

    template <class T>
    T number(std::string_view tok, bool base0, const char* what) const {
        const auto v = parse_unsigned(tok, base0, std::numeric_limits<T>::max());
        if (!v) fail(std::string{"bad "} + what + " '" + std::string{tok} + "'");
        return static_cast<T>(*v);
    }

    void expect_end_of(std::istringstream& ls) const {
        std::string extra;
        if (ls >> extra) fail("unexpected '" + extra + "'");
    }

    void event(std::istringstream& ls) {
        TraceEvent ev;
        std::string cmd, addr, field;
        ls >> cmd >> addr;
        if (cmd == "RD") ev.cmd = ocp::Cmd::Read;
        else if (cmd == "WR") ev.cmd = ocp::Cmd::Write;
        else if (cmd == "BRD") ev.cmd = ocp::Cmd::BurstRead;
        else if (cmd == "BWR") ev.cmd = ocp::Cmd::BurstWrite;
        else fail("bad cmd '" + cmd + "'");
        ev.addr = number<u32>(addr, true, "address");
        ev.beat_off = static_cast<u32>(trace_.beats.size());
        bool have_data = false;
        while (ls >> field) {
            const auto eq = field.find('=');
            if (eq == std::string::npos) fail("bad field '" + field + "'");
            const std::string_view key = std::string_view{field}.substr(0, eq);
            const std::string_view val = std::string_view{field}.substr(eq + 1);
            if (key == "burst") {
                ev.burst = number<u16>(val, false, "burst");
            } else if (key == "assert") {
                ev.t_assert = number<Cycle>(val, false, "assert cycle");
            } else if (key == "accept") {
                ev.t_accept = number<Cycle>(val, false, "accept cycle");
            } else if (key == "resp") {
                const auto colon = val.find(':');
                if (colon == std::string_view::npos)
                    fail("bad resp '" + std::string{val} + "', want FIRST:LAST");
                ev.t_resp_first = number<Cycle>(val.substr(0, colon), false, "resp cycle");
                ev.t_resp_last = number<Cycle>(val.substr(colon + 1), false, "resp cycle");
            } else if (key == "data") {
                if (have_data) fail("repeated data list");
                have_data = true;
                beats(val);
            } else {
                fail("unknown field '" + std::string{key} + "'");
            }
        }
        if (ev.burst < 1 || ev.burst > ocp::kMaxBurstLen)
            fail("burst " + std::to_string(ev.burst) + " outside [1, " +
                 std::to_string(ocp::kMaxBurstLen) + "]");
        const std::size_t n = trace_.beats.size() - ev.beat_off;
        // A read may end early on SRespLast; a write drives every beat.
        if (ocp::is_write(ev.cmd) ? n != ev.burst : n > ev.burst)
            fail(std::to_string(n) + " data beats for burst=" +
                 std::to_string(ev.burst) + " " + cmd);
        if (trace_.beats.size() > std::numeric_limits<u32>::max())
            fail("too many beats");
        ev.beat_count = static_cast<u16>(n);
        trace_.events.push_back(ev);
    }

    /// Appends the beats of a "[b0,b1,...]" list; more than kMaxBurstLen is
    /// an error however the burst field reads.
    void beats(std::string_view val) {
        if (val.size() < 2 || val.front() != '[' || val.back() != ']')
            fail("bad data list");
        val = val.substr(1, val.size() - 2);
        if (val.empty()) return;
        std::size_t n = 0;
        while (true) {
            const auto comma = val.find(',');
            if (++n > ocp::kMaxBurstLen) fail("more than " +
                                              std::to_string(ocp::kMaxBurstLen) +
                                              " data beats");
            trace_.beats.push_back(number<u32>(val.substr(0, comma), true, "beat"));
            if (comma == std::string_view::npos) return;
            val.remove_prefix(comma + 1);
        }
    }

    std::istringstream is_;
    std::size_t line_no_ = 0;
    Trace trace_;
};

} // namespace

Trace trace_from_text(const std::string& text) {
    return TraceReader{text}.read();
}

std::size_t event_line(const std::string& text, std::size_t index) {
    std::istringstream is{text};
    std::string line;
    std::size_t line_no = 0;
    while (std::getline(is, line)) {
        ++line_no;
        if (line.empty() || line[0] == ';') continue;
        std::istringstream ls{line};
        std::string kw;
        if (ls >> kw && kw == "EVT" && index-- == 0) return line_no;
    }
    return 0;
}

std::string pretty(const Trace& trace, std::size_t max_events) {
    std::ostringstream os;
    char buf[96];
    os << "; trace of core " << trace.core_id << '\n';
    std::size_t n = trace.events.size();
    if (max_events != 0 && max_events < n) n = max_events;
    for (std::size_t i = 0; i < n; ++i) {
        const TraceEvent& ev = trace.events[i];
        const std::span<const u32> data = trace.beats_of(ev);
        const char* nm = ocp::is_read(ev.cmd)
                             ? (ocp::is_burst(ev.cmd) ? "BRD" : "RD")
                             : (ocp::is_burst(ev.cmd) ? "BWR" : "WR");
        if (ocp::is_read(ev.cmd)) {
            std::snprintf(buf, sizeof buf, "%s 0x%08X @%lluns", nm, ev.addr,
                          static_cast<unsigned long long>(ev.t_assert * kCyclePeriodNs));
            os << buf << '\n';
            std::snprintf(buf, sizeof buf, "Resp Data 0x%08X @%lluns",
                          data.empty() ? 0u : data.back(),
                          static_cast<unsigned long long>(ev.t_resp_last * kCyclePeriodNs));
            os << buf << '\n';
        } else {
            std::snprintf(buf, sizeof buf, "%s 0x%08X 0x%08X @%lluns", nm, ev.addr,
                          data.empty() ? 0u : data.front(),
                          static_cast<unsigned long long>(ev.t_assert * kCyclePeriodNs));
            os << buf << '\n';
        }
    }
    if (max_events != 0 && trace.events.size() > max_events) os << "..\n";
    os << "; end @" << trace.end_cycle * kCyclePeriodNs << "ns\n";
    return os.str();
}

} // namespace tgsim::tg
