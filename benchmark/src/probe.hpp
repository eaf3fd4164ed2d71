// Timing primitives of the benchmark: a monotonic nanosecond clock, the
// coarse span log written as Chrome trace-event JSON, and the forwarding
// proxy that times one sim::Clocked component from outside it.
#pragma once

#include <array>
#include <chrono>
#include <string>
#include <vector>

#include "sim/kernel.hpp"

namespace tgsim::bench {

[[nodiscard]] inline u64 now_ns() noexcept {
    return static_cast<u64>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

[[nodiscard]] inline double seconds_since(u64 start_ns) noexcept {
    return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// Coarse spans (setup, run, harvest, translate, screen, emit, parse,
/// merge, ...) kept in memory and written once, at exit, as Chrome
/// trace-event JSON. Spans nest by time on one thread, which is how the
/// trace viewer shows which span caused which.
class SpanLog {
public:
    SpanLog() : origin_(now_ns()) {}

    /// Records [start, now) under `name`; returns now, so consecutive spans
    /// can chain their boundaries.
    u64 close(const char* name, u64 start);

    /// Writes {"traceEvents": [...]}; false when the file cannot be written.
    [[nodiscard]] bool write(const std::string& path) const;

private:
    struct Span {
        const char* name;
        u64 start;
        u64 end;
    };
    u64 origin_;
    std::vector<Span> spans_;
};

/// The simulator layers a traced run attributes component time to. The
/// interconnect is one component per fabric, so its routers and NIs share
/// one tally.
enum class Layer : u8 { Master, Mem, Amba, Xpipes };
inline constexpr std::size_t kLayerCount = 4;

struct LayerTally {
    u64 ns = 0;    ///< measured eval()+update() time, probe bias included
    u64 evals = 0; ///< eval() calls
    u64 calls = 0; ///< eval() + update() calls (one probe each)
};

using Tally = std::array<LayerTally, kLayerCount>;

/// Forwarding proxy: times the wrapped component's eval()/update() into its
/// layer's tally and forwards the gating protocol (quiet_for, advance,
/// watch_inputs) untouched, so a kernel built from proxies runs exactly the
/// schedule it would run on the components themselves.
class Probe final : public sim::Clocked {
public:
    Probe(sim::Clocked& inner, LayerTally& tally) : inner_(inner), tally_(tally) {}

    void eval() override {
        const u64 t0 = now_ns();
        inner_.eval();
        tally_.ns += now_ns() - t0;
        ++tally_.evals;
        ++tally_.calls;
    }
    void update() override {
        const u64 t0 = now_ns();
        inner_.update();
        tally_.ns += now_ns() - t0;
        ++tally_.calls;
    }
    [[nodiscard]] Cycle quiet_for() const override { return inner_.quiet_for(); }
    void advance(Cycle cycles) override { inner_.advance(cycles); }
    void watch_inputs(std::vector<sim::WatchRange>& out) const override {
        inner_.watch_inputs(out);
    }

private:
    sim::Clocked& inner_;
    LayerTally& tally_;
};

/// What one probed call costs beyond the call itself, measured on a no-op
/// component. `inside_ns` is the part that lands inside the measured
/// interval (subtracted from each component's time); `total_ns` is the
/// whole added cost per call (the rest is charged to the kernel's wall time
/// and subtracted from kernel self time).
struct ProbeCost {
    double total_ns = 0.0;
    double inside_ns = 0.0;
};

[[nodiscard]] ProbeCost calibrate_probe();

/// A kernel's schedule as far as its public interface shows it: gating
/// mode, idle-skip cap, and the component names in eval order once it has
/// run. A traced rebuild must match the kernel it copies: the kernel gives
/// bit-identical results under any gating or skip setting, so equal digests
/// alone would not reveal a copy that runs another schedule.
[[nodiscard]] std::string schedule_of(const sim::Kernel& kernel);

} // namespace tgsim::bench
