// Parallel design-space exploration driver — the paper's headline use case
// made to scale with cores.
//
// The methodology is: trace once, translate once, then evaluate many
// candidate fabrics with the cheap TG platform. Every candidate evaluation
// is an independent simulation, and since the SoA ChannelStore a Platform
// owns ALL of its wire state, candidates can run concurrently with no
// sharing at all. SweepDriver holds the shared read-only inputs (the TG
// binaries, assembled once, or a traffic pattern, plus the workload
// context), fans the candidate list out across a fixed-size worker pool,
// and aggregates per-candidate results in deterministic candidate order.
//
// Share-nothing contract (docs/sweep.md): a worker constructs, loads, runs
// and destroys its Platform entirely inside the worker thread; the only
// cross-thread data are the driver's immutable inputs and the worker's
// SweepResult slot (disjoint per candidate). Results are bit-identical for
// any worker count — see bit_identical().
#pragma once

#include <cstddef>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "apps/workload.hpp"
#include "platform/platform.hpp"
#include "tg/patterns.hpp"
#include "tg/program.hpp"

namespace tgsim::sweep {

/// One point in the design space: a named platform configuration. Core
/// count and trace collection are owned by the driver; the candidate varies
/// the fabric and timing knobs, including the completion-poll interval
/// (PlatformConfig::done_check_interval).
struct Candidate {
    std::string name;
    platform::PlatformConfig cfg;
    /// Traffic-source construction surface (docs/traffic.md). The default
    /// (closed) takes exactly the legacy path, so existing grids and their
    /// reports are untouched; SourceMode::Open switches the candidate's
    /// stochastic masters to open-loop injection and adds the
    /// source-queueing / in-network latency decomposition to the result.
    /// A nonzero source.rate is the candidate's offered rate for pattern
    /// payloads (tg::offered_rate); 0 keeps the payload's base rate. That
    /// is what lets a load–latency sweep ride the driver: same fabric, one
    /// candidate per offered rate (make_rate_sweep()).
    tg::SourceConfig source;
};

/// Which evaluator run() applies to the candidate grid (docs/analytic.md).
/// Cycle is the flit-accurate simulator; Analytic is the closed-form
/// screening model (microseconds per candidate, pattern payloads only);
/// Funnel is the two-phase composition: analytically score the full grid,
/// then cycle-simulate only the top-K survivors.
enum class Tier : u8 {
    Cycle,
    Analytic,
    Funnel,
};

[[nodiscard]] std::string_view to_string(Tier t) noexcept;
/// Accepts "cycle", "analytic", "funnel"; nullopt for anything else.
[[nodiscard]] std::optional<Tier> parse_tier(const std::string& name);

/// One slice of a sharded sweep campaign (docs/sweep.md): candidate i
/// belongs to shard `i % count`. The mapping is deterministic and
/// index-preserving, so every candidate keeps the seed and result it would
/// have in an unsharded run, and shard reports can be merged back into the
/// canonical single-run report (see sweep/shard.hpp). {0, 1} = everything.
struct ShardSpec {
    u32 index = 0; ///< k in "k/N"
    u32 count = 1; ///< N in "k/N"; must be nonzero and > index
};

class JournalWriter; // sweep/shard.hpp: append-only checkpoint journal
struct SweepResult;  // declared below (SweepOptions::resume points at rows)

struct SweepOptions {
    /// Worker threads; 0 = std::thread::hardware_concurrency(). Clamped to
    /// the candidate count. jobs == 1 runs inline on the calling thread.
    u32 jobs = 0;
    Cycle max_cycles = 100'000'000;
    /// Also run a cycle-true CPU platform per candidate (ground truth
    /// column); requires the context workload to carry per-core code.
    bool with_cpu_truth = false;
    /// Verify the workload's memory checks after each TG replay (skipped
    /// for pattern payloads, which do not compute the workload).
    bool run_checks = true;
    /// Base for per-candidate stochastic reseeding (see derive_seed()).
    u64 seed = 0x5EEDBA5Eu;
    /// Evaluator tier. Analytic and Funnel require a pattern payload
    /// (run() throws std::invalid_argument otherwise — the analytical
    /// model is defined over a pattern's destination matrix, not over
    /// arbitrary TG traces).
    Tier tier = Tier::Cycle;
    /// Funnel survivor budget: how many analytically top-ranked candidates
    /// the cycle tier re-evaluates (plus any candidate outside the
    /// analytic model's envelope, which always passes through to the cycle
    /// tier rather than being mis-screened). Must be nonzero for Funnel.
    u32 funnel_top = 16;
    /// Which slice of the candidate grid this run evaluates. run() returns
    /// only the shard's rows (ascending original index). The funnel tier
    /// still screens the FULL grid analytically in every shard, so all
    /// shards derive the same global top-K and merged output is identical
    /// to an unsharded funnel run (docs/sweep.md).
    ShardSpec shard;
    /// Checkpoint sink: every cycle-evaluated row is appended to this
    /// journal as it completes (thread-safe; see sweep/shard.hpp). Null =
    /// no checkpointing. Analytic rows are never journaled — recomputing
    /// them is cheaper than reading them back.
    JournalWriter* journal = nullptr;
    /// Rows journaled by a previous attempt of the same campaign: their
    /// indices are skipped and the journaled rows reused verbatim, so a
    /// resumed run re-evaluates only unjournaled candidates. Rows whose
    /// index falls outside this run's work set (wrong shard / not a funnel
    /// survivor) are ignored.
    const std::vector<SweepResult>* resume = nullptr;
    /// Periodic progress line on stderr (done/total, cand/s, ETA) driven
    /// from the worker pool's completion counter. Off by default so CI
    /// logs stay clean.
    bool progress = false;
};

/// How a candidate failed. The three kinds mean very different things to a
/// consumer: a Timeout is usually a *finding* (the fabric livelocks the
/// workload), a ChecksFailed is always a replay-correctness *bug*, and a
/// SetupError is a bad candidate config. Surfaces branch on this instead of
/// re-deriving the kind from cycles/error text.
enum class FailureKind : u8 {
    None,         ///< candidate evaluated cleanly
    SetupError,   ///< construction/load threw before or during the run
    Timeout,      ///< ran but did not complete within the cycle budget
    ChecksFailed, ///< completed but left workload memory wrong
};

/// "none", "setup_error", "timeout", "checks_failed" — the JSON encoding.
[[nodiscard]] std::string_view to_string(FailureKind k) noexcept;
[[nodiscard]] std::optional<FailureKind> parse_failure(const std::string& s);

/// Blocks of a report row. Base is always emitted; every other block is
/// emitted only when its switch (kRowBlockSwitch) is set, and a parsed row
/// that carries any key of a block must carry all of them.
enum class RowBlock : u8 { Base, Cpu, Latency, Open, Analytic, Faults };
inline constexpr std::size_t kRowBlocks = 6;

/// How one row field is printed and parsed.
enum class RowFmt : u8 {
    Str,     ///< JSON string
    U32,     ///< unsigned decimal; parse rejects values above 2^32 - 1
    U64,     ///< unsigned decimal
    Bool,    ///< true | false
    Fix4,    ///< double, printf "%.4f"
    Fix6,    ///< double, printf "%.6f"
    Wall6,   ///< wall-clock double, "%.6f": the only row values that vary
             ///< run to run — zeroed by canonicalize, skipped by
             ///< bit_identical
    Failure, ///< FailureKind, as its to_string() token
};

/// The C++ type that stores each RowFmt.
template <RowFmt F> struct RowValue { using type = double; };
template <> struct RowValue<RowFmt::Str> { using type = std::string; };
template <> struct RowValue<RowFmt::U32> { using type = u32; };
template <> struct RowValue<RowFmt::U64> { using type = u64; };
template <> struct RowValue<RowFmt::Bool> { using type = bool; };
template <> struct RowValue<RowFmt::Failure> { using type = FailureKind; };

/// The report-row schema, one line per JSON key in emitted order:
/// FIELD(block, format, member), where the key is the member name. The
/// DERIVED line is emitted from a member function and never stored or
/// parsed. SweepResult declares its data members from this table, and the
/// emitter (append_result_row), the row parser, bit_identical and
/// canonicalize all expand it — so a new report metric is one line here
/// plus the line in SweepDriver::evaluate that fills it (docs/sweep.md).
///
/// Blocks: cpu = CPU ground truth (SweepOptions::with_cpu_truth); latency
/// = load–latency instrumentation of a ×pipes candidate with
/// collect_latency (rates are transactions per core per cycle); open =
/// the open-loop split of each packet's life into source queueing
/// (creation -> pending-queue exit) and in-network time (-> delivery);
/// analytic = the row is a closed-form prediction of the analytic tier
/// (cycles/latency are predictions, per_core is empty); faults = fault
/// injection and recovery accounting (docs/faults.md). Everything but the
/// Wall6 fields is a pure function of (payload, candidate config, options).
#define TGSIM_SWEEP_ROW(FIELD, DERIVED)                                       \
    FIELD(Base, Str, name)                                                   \
    FIELD(Base, Str, fabric) /* describe_fabric() of the evaluated config */ \
    FIELD(Base, U32, index)  /* candidate index (submission order) */        \
    DERIVED(Base, Bool, ok)  /* error.empty() */                             \
    FIELD(Base, Str, error)  /* why the candidate failed; "" = it did not */ \
    FIELD(Base, Failure, failure)                                            \
    FIELD(Base, Bool, completed)                                             \
    FIELD(Base, Bool, checks_ok)                                             \
    FIELD(Base, U64, cycles) /* completion time (paper's metric) */          \
    FIELD(Base, U64, busy_cycles)                                            \
    FIELD(Base, U64, contention_cycles) /* incl. master NI rejects */        \
    FIELD(Base, Fix4, busy_pct)                                              \
    FIELD(Base, U64, total_instructions)                                     \
    FIELD(Base, Wall6, wall_seconds)                                         \
    FIELD(Cpu, Bool, cpu_completed)                                          \
    FIELD(Cpu, U64, cpu_cycles)                                              \
    FIELD(Cpu, Wall6, cpu_wall_seconds)                                      \
    FIELD(Cpu, Fix4, err_pct) /* TG vs CPU completion time, percent */       \
    FIELD(Latency, Fix6, offered_rate)  /* configured injection rate */      \
    FIELD(Latency, Fix6, accepted_rate) /* good request packets / cycle */   \
    FIELD(Latency, U64, packets) /* request packets delivered */             \
    FIELD(Latency, U64, error_packets) /* Resp::Err: not in lat_*, rates */  \
    FIELD(Latency, U64, lat_count)                                           \
    FIELD(Latency, Fix4, lat_mean) /* cycles, head creation -> tail */       \
    FIELD(Latency, U64, lat_p50)                                             \
    FIELD(Latency, U64, lat_p99)                                             \
    FIELD(Latency, U64, lat_max)                                             \
    FIELD(Open, U64, pending_limit) /* configured per-NI queue bound */      \
    FIELD(Open, U64, pending_peak)  /* queue high-water mark across NIs */   \
    FIELD(Open, U64, net_lat_count)                                          \
    FIELD(Open, Fix4, net_lat_mean)                                          \
    FIELD(Open, U64, net_lat_p50)                                            \
    FIELD(Open, U64, net_lat_p99)                                            \
    FIELD(Open, U64, net_lat_max)                                            \
    FIELD(Open, U64, sq_lat_count)                                           \
    FIELD(Open, Fix4, sq_lat_mean)                                           \
    FIELD(Open, U64, sq_lat_p50)                                             \
    FIELD(Open, U64, sq_lat_p99)                                             \
    FIELD(Open, U64, sq_lat_max)                                             \
    FIELD(Analytic, Bool, analytic) /* the block's own switch */             \
    FIELD(Analytic, Fix6, predicted_saturation) /* txn/core/cycle bound */   \
    FIELD(Faults, U64, fault_injected) /* transactions entering faults */    \
    FIELD(Faults, U64, fault_delivered) /* completed correctly */            \
    FIELD(Faults, U64, fault_err_delivered) /* completed with Resp::Err */   \
    FIELD(Faults, U64, fault_recovered) /* delivered after >= 1 retry */     \
    FIELD(Faults, U64, fault_lost) /* abandoned after retry exhaustion */    \
    FIELD(Faults, U64, fault_retries)                                        \
    FIELD(Faults, U64, fault_corrupted) /* payload flits XOR-faulted */      \
    FIELD(Faults, U64, fault_dropped) /* packets dropped at routers */       \
    FIELD(Faults, U64, fault_stalls)                                         \
    FIELD(Faults, U64, fault_csum_fails) /* rejected by tail checksum */     \
    FIELD(Faults, Fix6, delivered_ratio) /* (delivered + err) / injected */  \
    FIELD(Faults, U64, retry_lat_count)                                      \
    FIELD(Faults, Fix4, retry_lat_mean) /* first injection -> delivery */    \
    FIELD(Faults, U64, retry_lat_p99)

/// Expansion for the table lines an expansion skips.
#define TGSIM_ROW_SKIP(block, fmt, member)

/// Everything measured on one candidate (see TGSIM_SWEEP_ROW). A failed
/// candidate never aborts the sweep; it is reported like any other.
struct SweepResult {
#define TGSIM_ROW_MEMBER(block, fmt, member) \
    RowValue<RowFmt::fmt>::type member{};
    TGSIM_SWEEP_ROW(TGSIM_ROW_MEMBER, TGSIM_ROW_SKIP)
#undef TGSIM_ROW_MEMBER

    // Stored, never emitted: per-core halt cycles (cycle rows only) and
    // the block switches (kRowBlockSwitch).
    std::vector<Cycle> per_core;
    bool has_cpu_truth = false;
    bool has_latency = false;
    bool has_open = false;
    bool has_faults = false;

    [[nodiscard]] bool ok() const noexcept { return error.empty(); }
};

/// The member that switches each RowBlock on, indexed by RowBlock; Base
/// (null) is always on.
inline constexpr bool SweepResult::*kRowBlockSwitch[kRowBlocks] = {
    nullptr, &SweepResult::has_cpu_truth, &SweepResult::has_latency,
    &SweepResult::has_open, &SweepResult::analytic, &SweepResult::has_faults};

/// The worker count run() will actually use: `jobs` (0 = hardware
/// concurrency, minimum 1) clamped to the candidate count.
[[nodiscard]] u32 resolve_jobs(u32 jobs, std::size_t n_candidates);

/// True when the simulated outcomes match exactly (everything except the
/// wall-clock fields, which legitimately vary run to run). The sweep
/// invariant: results at --jobs 1 and --jobs N are bit_identical.
[[nodiscard]] bool bit_identical(const SweepResult& a, const SweepResult& b);

/// Deterministic per-candidate, per-core RNG seed: a splitmix64-style mix
/// of (base, candidate_index, core). Derived from the candidate's position
/// in the sweep — never from global state or evaluation order — so
/// stochastic sweeps are bit-identical at any worker count.
[[nodiscard]] u64 derive_seed(u64 base, u32 candidate_index, u32 core);

/// Human-readable fabric description, e.g. "amba rr", "crossbar",
/// "xpipes 3x3 fifo4".
[[nodiscard]] std::string describe_fabric(const platform::PlatformConfig& cfg);

/// Candidate grid over the fabric axes the paper explores: AMBA under both
/// arbitration policies, the crossbar, and one candidate per ×pipes mesh
/// shape. `base` supplies every non-fabric knob (timings, caches, ...).
struct GridSpec {
    platform::PlatformConfig base;
    bool amba_round_robin = true;
    bool amba_fixed_priority = true;
    bool crossbar = true;
    std::vector<ic::XpipesConfig> meshes;
};

[[nodiscard]] std::vector<Candidate> make_grid(const GridSpec& spec);

/// One candidate per offered injection rate over a fixed fabric — the
/// load–latency curve grid. Latency collection is switched on in each
/// candidate's ×pipes config; rates should be passed in ascending order
/// (find_saturation() reads the results positionally).
[[nodiscard]] std::vector<Candidate> make_rate_sweep(
    const platform::PlatformConfig& base, const std::vector<double>& rates);

/// Same ladder under an explicit source mode: each candidate carries
/// `source` with its rate set to the ladder point (so open-loop ladders
/// offer the rate regardless of completion). With a closed default source
/// this is exactly the two-argument form.
[[nodiscard]] std::vector<Candidate> make_rate_sweep(
    const platform::PlatformConfig& base, const std::vector<double>& rates,
    const tg::SourceConfig& source);

/// Saturation analysis over rate-ordered results (docs/traffic.md).
///
/// Closed-loop rows: the saturation point is the first rate where mean
/// end-to-end latency exceeds 3x the zero-load latency (the curve's
/// lowest-rate point), or where >= 25% more offered load buys <= 8% more
/// accepted throughput (the plateau).
///
/// Open-loop rows (has_open): the plateau trigger is retired — an open
/// source cannot load-shed, so a flattening accepted rate IS network
/// saturation and is caught by the real signals instead: in-network mean
/// latency >= 3x its zero-load value (the hockey-stick knee), or a pending
/// queue that reached its configured bound (the source itself was
/// backpressured).
///
/// The saturation throughput is the highest accepted rate at or before the
/// saturation point. When the swept range never saturates, `found` is
/// false and the fields describe the highest accepted rate observed.
struct SaturationPoint {
    bool found = false;
    u32 index = 0; ///< index into the rate-ordered results
    double offered = 0.0;
    double throughput = 0.0; ///< accepted transactions per core per cycle
    double mean_latency = 0.0;
};

[[nodiscard]] SaturationPoint find_saturation(
    const std::vector<SweepResult>& rate_ordered);

/// Report header recorded alongside the per-candidate rows. Everything a
/// merge or resume needs to check that two reports describe the same
/// campaign (sweep/shard.hpp) lives here; `jobs` and the per-row wall
/// clocks are the only run-to-run-varying values.
struct SweepMeta {
    std::string app;
    u32 n_cores = 0;
    u32 jobs = 0;
    Cycle max_cycles = 0;
    Tier tier = Tier::Cycle;
    u64 seed = 0;         ///< SweepOptions::seed the rows were derived from
    u32 n_candidates = 0; ///< TOTAL grid size, across all shards
    u32 funnel_top = 0;   ///< emitted when tier == Funnel
    ShardSpec shard;      ///< emitted when count > 1
};

/// Appends the header's meta object ({"app": ..., ...}) — also the
/// checkpoint journal's header payload.
void append_sweep_meta(std::string& out, const SweepMeta& meta);

/// Appends one candidate row as a single-line JSON object — exactly the
/// row format json_report emits (and the journal's line format), without
/// surrounding indentation or commas.
void append_result_row(std::string& out, const SweepResult& r);

/// Machine-readable JSON report (deterministic field order; `jobs` and the
/// wall-clock fields are the only nondeterministic values).
[[nodiscard]] std::string json_report(const std::vector<SweepResult>& results,
                                      const SweepMeta& meta);
/// Incremental writer: streams the same report row by row through a small
/// reused buffer, so million-row shard/merge reports never materialize one
/// giant string. json_report and write_json_report ride the same emitter.
/// Returns false when any write comes up short.
[[nodiscard]] bool json_report_to(std::FILE* f,
                                  const std::vector<SweepResult>& results,
                                  const SweepMeta& meta);
/// Returns false (after a stderr WARN) when the file cannot be written —
/// callers surface that as a nonzero exit so scripted consumers never key
/// off a report that does not exist.
[[nodiscard]] bool write_json_report(const std::vector<SweepResult>& results,
                                     const SweepMeta& meta,
                                     const std::string& path);

/// Evaluates candidate fabrics against one fixed payload.
///
/// The payload — TG programs (assembled once at construction) or a
/// traffic pattern — and the workload context are immutable for the
/// driver's lifetime; run() is const and thread-safe.
class SweepDriver {
public:
    /// TG payload: pre-translated programs, assembled once here. Workers
    /// inject the shared binaries (no re-translation, no re-assembly).
    SweepDriver(const std::vector<tg::TgProgram>& programs,
                apps::Workload context);

    /// Synthetic traffic-pattern payload (src/tg/patterns.hpp): per-core
    /// stochastic configs are derived from the pattern inside each worker,
    /// honouring the candidate's source.rate override and reseeding from
    /// derive_seed — so a rate sweep is bit-identical at any worker count.
    SweepDriver(tg::PatternConfig pattern, apps::Workload context);

    /// Evaluates every candidate in `opts.shard`, `opts.jobs` at a time,
    /// one Platform constructed/run/destroyed per worker iteration.
    /// Returns one result per shard candidate, in ascending original
    /// candidate index order, regardless of completion order — with the
    /// default shard {0, 1} that is every candidate in submission order.
    ///
    /// opts.tier selects the evaluator: Cycle simulates everything,
    /// Analytic scores everything with the closed-form model, Funnel
    /// analytically scores the full grid and then cycle-simulates only the
    /// opts.funnel_top best-predicted candidates (by predicted completion
    /// time, ties broken by candidate index) plus every candidate outside
    /// the analytic envelope. Funnel survivors keep their ORIGINAL
    /// candidate index for seeding, so their results are bit-identical to
    /// an all-cycle run of the same grid — at any worker count.
    [[nodiscard]] std::vector<SweepResult> run(
        const std::vector<Candidate>& candidates,
        const SweepOptions& opts = {}) const;

    [[nodiscard]] u32 n_cores() const noexcept { return n_cores_; }

private:
    /// Per-worker scratch reused across candidate evaluations (the seeded
    /// config vector used to be copied afresh per candidate).
    struct EvalScratch;

    [[nodiscard]] SweepResult evaluate(const Candidate& cand, u32 index,
                                       const SweepOptions& opts,
                                       EvalScratch& scratch) const;
    [[nodiscard]] std::vector<SweepResult> run_cycle(
        const std::vector<Candidate>& candidates, const SweepOptions& opts,
        const std::vector<u32>* subset, std::vector<SweepResult> seed) const;
    [[nodiscard]] std::vector<SweepResult> run_analytic(
        const std::vector<Candidate>& candidates, const SweepOptions& opts,
        const std::vector<u32>* subset) const;

    u32 n_cores_ = 0;
    std::vector<tg::AssembledTg> binaries_;    ///< TG payload (if any)
    std::optional<tg::PatternConfig> pattern_; ///< pattern payload
    apps::Workload context_;
};

} // namespace tgsim::sweep
