#include "probe.hpp"

#include <algorithm>
#include <cstdio>

namespace tgsim::bench {

u64 SpanLog::close(const char* name, u64 start) {
    const u64 end = now_ns();
    spans_.push_back(Span{name, start, end});
    return end;
}

bool SpanLog::write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"traceEvents\": [");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        std::fprintf(f,
                     "%s\n  {\"name\": \"%s\", \"cat\": \"benchmark\", "
                     "\"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, "
                     "\"dur\": %.3f}",
                     i ? "," : "", s.name,
                     static_cast<double>(s.start - origin_) * 1e-3,
                     static_cast<double>(s.end - s.start) * 1e-3);
    }
    std::fprintf(f, "\n], \"displayTimeUnit\": \"ms\"}\n");
    return std::fclose(f) == 0;
}

namespace {

/// A component whose eval()/update() do almost nothing; the counter keeps
/// the calls from being optimised away.
class Nop final : public sim::Clocked {
public:
    void eval() override { ++n_; }
    void update() override { ++n_; }

private:
    u64 n_ = 0;
};

double median_of(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}

} // namespace

ProbeCost calibrate_probe() {
    constexpr u32 kCalls = 1u << 20;
    constexpr int kTrials = 7;
    Nop nop;
    LayerTally tally;
    Probe probe{nop, tally};
    // Volatile targets keep both loops making real virtual calls, as the
    // kernel does, instead of letting the compiler devirtualize one side.
    sim::Clocked* volatile direct = &nop;
    sim::Clocked* volatile proxied = &probe;

    std::vector<double> total;
    std::vector<double> inside;
    for (int t = 0; t < kTrials; ++t) {
        u64 t0 = now_ns();
        for (u32 i = 0; i < kCalls; ++i) direct->eval();
        const double bare = static_cast<double>(now_ns() - t0);

        tally = LayerTally{};
        t0 = now_ns();
        for (u32 i = 0; i < kCalls; ++i) proxied->eval();
        const double wrapped = static_cast<double>(now_ns() - t0);

        total.push_back((wrapped - bare) / kCalls);
        inside.push_back((static_cast<double>(tally.ns) - bare) / kCalls);
    }
    ProbeCost cost;
    cost.total_ns = std::max(0.0, median_of(total));
    cost.inside_ns = std::clamp(median_of(inside), 0.0, cost.total_ns);
    return cost;
}

std::string schedule_of(const sim::Kernel& kernel) {
    std::string s = "gating=" + std::to_string(kernel.gating()) +
                    " max_skip=" + std::to_string(kernel.max_skip()) +
                    " components=" + std::to_string(kernel.component_count()) + ":";
    for (std::size_t i = 0; i < kernel.component_count(); ++i)
        s += " " + kernel.component_name(i);
    return s;
}

} // namespace tgsim::bench
