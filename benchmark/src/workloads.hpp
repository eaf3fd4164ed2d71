// The benchmark's five workloads (see benchmark/README.md for why each
// exists and which layer it loads).
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "probe.hpp"

namespace tgsim::bench {

/// What one op produced, judged outside the timed region.
struct OpResult {
    std::string error; ///< empty when every check passed
    u64 digest = 0;    ///< of the simulated outputs
    double sim_cycles = 0.0; ///< simulated cycles the op completed
    double candidates = 1.0; ///< design points the op evaluated
};

/// Per-layer values keyed by the per-layer metric name.
using LayerValues = std::map<std::string, double>;

/// One op run on parts rebuilt under probes (--trace).
struct TracedOp {
    OpResult result;
    double op_s = 0.0;  ///< whole op, host seconds, probes in place
    double run_s = 0.0; ///< the kernel run alone, host seconds
    Tally tally{};
    double summary_ms = 0.0; ///< latency-summary harvest inside the op
    u64 flit_hops = 0;
    u64 router_visits = 0;
    u64 busy_cycles = 0;
    /// schedule_of() the probed kernel after its run; empty when the op has
    /// no kernel of its own (the sweep funnel).
    std::string schedule;
    /// Values the op measured itself (the sweep funnel's phases).
    LayerValues layers;
};

class Workload {
public:
    /// `variants` inputs are drawn from the seed, and ops cycle through
    /// them, so one run's median covers several inputs rather than one:
    /// the run-to-run spread then reflects the host more than the seed.
    Workload(bool simulates, u32 variants)
        : simulates_(simulates), variants_(variants) {}
    Workload(const Workload&) = delete;
    Workload& operator=(const Workload&) = delete;
    virtual ~Workload() = default;

    /// Builds the inputs every op shares, all variants. Part of set-up.
    virtual void prepare(SpanLog& spans) = 0;
    /// Builds the simulation the next op runs on input `variant`. Part of
    /// set-up for the first op; between later ops it is outside the timed
    /// region.
    virtual void build(u32 variant) = 0;
    /// The timed op.
    virtual void run() = 0;
    /// Checks and digests what run() produced.
    [[nodiscard]] virtual OpResult check() = 0;
    /// The op of input `variant` on parts rebuilt under probes.
    [[nodiscard]] virtual TracedOp run_traced(u32 variant, SpanLog& spans,
                                              const ProbeCost& cost) = 0;
    /// schedule_of() the kernel the last untraced op ran on; empty when the
    /// op has none. A traced op must report the same.
    [[nodiscard]] virtual std::string schedule() = 0;

    [[nodiscard]] u32 variants() const noexcept { return variants_; }

    /// True when each op is one cycle simulation whose components the
    /// traced op probes; false for the sweep funnel, whose simulations run
    /// inside SweepDriver's workers.
    [[nodiscard]] bool simulates() const noexcept { return simulates_; }
    /// Values measured during set-up and checks (translation, the CPU
    /// reference run, the TG cycle error).
    [[nodiscard]] const LayerValues& layers() const noexcept { return layers_; }

protected:
    LayerValues layers_;

private:
    bool simulates_;
    u32 variants_;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// nullptr for an unknown name. `smoke` shrinks every workload to about
/// 1/50 of its work.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      u64 seed, bool smoke);

} // namespace tgsim::bench
