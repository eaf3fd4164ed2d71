#include "tg/trace.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace tgsim::tg {

TraceEvent from_record(const ocp::TransactionRecord& rec) {
    TraceEvent ev;
    ev.cmd = rec.cmd;
    ev.addr = rec.addr;
    ev.burst = rec.burst_len;
    ev.t_assert = rec.t_assert;
    ev.t_accept = rec.t_accept;
    ev.t_resp_first = rec.t_resp_first;
    ev.t_resp_last = rec.t_resp_last;
    ev.data = rec.data;
    return ev;
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
        for (std::size_t i = 0; i < ev.data.size(); ++i) {
            if (i != 0) os << ',';
            std::snprintf(buf, sizeof buf, "0x%08X", ev.data[i]);
            os << buf;
        }
        os << "]\n";
    }
    os << "END " << trace.end_cycle << '\n';
    return os.str();
}

Trace trace_from_text(const std::string& text) {
    Trace trace;
    std::istringstream is{text};
    std::string line;
    bool got_end = false;
    while (std::getline(is, line)) {
        if (line.empty() || line[0] == ';') continue;
        std::istringstream ls{line};
        std::string kw;
        ls >> kw;
        if (kw == "CORE") {
            std::string thread_kw;
            ls >> trace.core_id >> thread_kw >> trace.thread_id;
        } else if (kw == "EVT") {
            TraceEvent ev;
            std::string cmd, addr, field;
            ls >> cmd >> addr;
            if (cmd == "RD") ev.cmd = ocp::Cmd::Read;
            else if (cmd == "WR") ev.cmd = ocp::Cmd::Write;
            else if (cmd == "BRD") ev.cmd = ocp::Cmd::BurstRead;
            else if (cmd == "BWR") ev.cmd = ocp::Cmd::BurstWrite;
            else throw std::invalid_argument{"trc: bad cmd " + cmd};
            ev.addr = static_cast<u32>(std::stoul(addr, nullptr, 0));
            while (ls >> field) {
                const auto eq = field.find('=');
                if (eq == std::string::npos)
                    throw std::invalid_argument{"trc: bad field " + field};
                const std::string key = field.substr(0, eq);
                const std::string val = field.substr(eq + 1);
                if (key == "burst") {
                    ev.burst = static_cast<u16>(std::stoul(val));
                } else if (key == "assert") {
                    ev.t_assert = std::stoull(val);
                } else if (key == "accept") {
                    ev.t_accept = std::stoull(val);
                } else if (key == "resp") {
                    const auto colon = val.find(':');
                    ev.t_resp_first = std::stoull(val.substr(0, colon));
                    ev.t_resp_last = std::stoull(val.substr(colon + 1));
                } else if (key == "data") {
                    if (val.size() < 2 || val.front() != '[' || val.back() != ']')
                        throw std::invalid_argument{"trc: bad data list"};
                    std::istringstream ds{val.substr(1, val.size() - 2)};
                    std::string tok;
                    while (std::getline(ds, tok, ','))
                        if (!tok.empty())
                            ev.data.push_back(
                                static_cast<u32>(std::stoul(tok, nullptr, 0)));
                } else {
                    throw std::invalid_argument{"trc: unknown field " + key};
                }
            }
            trace.events.push_back(std::move(ev));
        } else if (kw == "END") {
            ls >> trace.end_cycle;
            got_end = true;
        } else {
            throw std::invalid_argument{"trc: unexpected line: " + line};
        }
    }
    if (!got_end) throw std::invalid_argument{"trc: missing END"};
    return trace;
}

std::string pretty(const Trace& trace, std::size_t max_events) {
    std::ostringstream os;
    char buf[96];
    os << "; trace of core " << trace.core_id << '\n';
    std::size_t n = trace.events.size();
    if (max_events != 0 && max_events < n) n = max_events;
    for (std::size_t i = 0; i < n; ++i) {
        const TraceEvent& ev = trace.events[i];
        const char* nm = ocp::is_read(ev.cmd)
                             ? (ocp::is_burst(ev.cmd) ? "BRD" : "RD")
                             : (ocp::is_burst(ev.cmd) ? "BWR" : "WR");
        if (ocp::is_read(ev.cmd)) {
            std::snprintf(buf, sizeof buf, "%s 0x%08X @%lluns", nm, ev.addr,
                          static_cast<unsigned long long>(ev.t_assert * kCyclePeriodNs));
            os << buf << '\n';
            std::snprintf(buf, sizeof buf, "Resp Data 0x%08X @%lluns",
                          ev.data.empty() ? 0u : ev.data.back(),
                          static_cast<unsigned long long>(ev.t_resp_last * kCyclePeriodNs));
            os << buf << '\n';
        } else {
            std::snprintf(buf, sizeof buf, "%s 0x%08X 0x%08X @%lluns", nm, ev.addr,
                          ev.data.empty() ? 0u : ev.data.front(),
                          static_cast<unsigned long long>(ev.t_assert * kCyclePeriodNs));
            os << buf << '\n';
        }
    }
    if (max_events != 0 && trace.events.size() > max_events) os << "..\n";
    os << "; end @" << trace.end_cycle * kCyclePeriodNs << "ns\n";
    return os.str();
}

Trace load(const std::string& path) {
    std::ifstream in{path};
    if (!in) throw std::runtime_error{"trace: cannot open " + path};
    std::ostringstream ss;
    ss << in.rdbuf();
    return trace_from_text(ss.str());
}

} // namespace tgsim::tg
