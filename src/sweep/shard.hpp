// Distributed-sweep sharding layer (docs/sweep.md): deterministic
// candidate→shard mapping, the append-only checkpoint journal, and the
// report parse/merge logic behind `tgsim_sweep --shard k/N`,
// `--checkpoint/--resume`, and `tgsim_merge`.
//
// The contract that makes all of this safe is index preservation: shard k
// of N evaluates exactly the candidates with `i % N == k`, each keeping
// its ORIGINAL grid index — the input to derive_seed — so every row is
// bit-identical to the same row in an unsharded run, and N shard reports
// merge back into the canonical single-run report byte for byte (in the
// canonical form: jobs = 0, wall clocks zeroed — the only fields that vary
// run to run).
#pragma once

#include <cstdio>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "sweep/sweep.hpp"

namespace tgsim::sweep {

/// Which shard owns candidate `i` under an N-way split. Round-robin keeps
/// neighbouring grid points (which tend to cost alike — same mesh, next
/// fifo depth) spread across shards, so shard wall clocks stay balanced.
[[nodiscard]] constexpr u32 shard_of(u32 candidate_index,
                                     u32 shard_count) noexcept {
    return shard_count > 1 ? candidate_index % shard_count : 0;
}

/// Parses "k/N" (e.g. "0/3"); nullopt unless 0 <= k < N and N >= 1.
[[nodiscard]] std::optional<ShardSpec> parse_shard(const std::string& s);

/// Name of the first header field on which the two campaigns differ
/// ("app", "cores", "max_cycles", "tier", "seed", "n_candidates",
/// "funnel_top", "shard_count"), or "" when both headers describe the
/// same campaign. `jobs` and `shard.index` are deliberately ignored:
/// different shards (and a resumed run on a different machine)
/// legitimately differ in both. Merge and resume diagnostics name the
/// offending field instead of a generic "metadata mismatch".
[[nodiscard]] std::string meta_diff(const SweepMeta& a, const SweepMeta& b);

/// Rewrites (meta, rows) into the canonical deterministic form: jobs = 0
/// and every wall-clock field zeroed. Two runs of the same campaign agree
/// byte for byte on their canonical reports at any --jobs; tgsim_merge
/// always emits this form, and `tgsim_sweep --deterministic` matches it.
/// The shard field is left alone — a shard report stays a shard report.
void canonicalize(SweepMeta& meta, std::vector<SweepResult>& rows);

/// A parsed report or journal: the campaign header plus candidate rows.
struct ParsedReport {
    SweepMeta meta;
    std::vector<SweepResult> rows;
};

/// Append-only JSONL checkpoint journal. Line 1 is
/// `{"sweep_journal": <meta>}` (written only when the file is new/empty);
/// every later line is one completed candidate row in exactly the
/// json_report row format. append() is thread-safe — sweep workers call it
/// directly — and the file is fsync'd every `batch` rows, so a killed
/// campaign loses at most the last batch plus possibly one torn final
/// line, both of which load_journal() tolerates.
class JournalWriter {
public:
    JournalWriter() = default;
    ~JournalWriter(); // closes (best effort) if still open
    JournalWriter(const JournalWriter&) = delete;
    JournalWriter& operator=(const JournalWriter&) = delete;

    /// Opens `path` for appending; writes the header line iff the file is
    /// new or empty (a resumed journal keeps its original header). `batch`
    /// is the fsync interval in rows (minimum 1). False + *error on
    /// failure.
    [[nodiscard]] bool open(const std::string& path, const SweepMeta& meta,
                            u32 batch, std::string* error);

    /// Serialises `r` as one line and appends it. Thread-safe. Write
    /// failures are sticky and reported by close().
    void append(const SweepResult& r);

    /// Flush + fsync + close. False when any write (including earlier
    /// append()s) failed. Idempotent.
    [[nodiscard]] bool close();

    [[nodiscard]] bool is_open() const noexcept { return f_ != nullptr; }

private:
    std::FILE* f_ = nullptr;
    std::mutex mu_;
    u32 batch_ = 32;
    u32 pending_ = 0;
    bool failed_ = false;
    std::string buf_; // serialisation scratch, reused under the lock
};

/// Loads a checkpoint journal. A torn FINAL line (process killed
/// mid-write) is silently dropped — that row simply gets re-evaluated —
/// but a malformed header or interior line means the file is not a journal
/// and is an error. Rows keep journal order; duplicate indices are
/// allowed (last write wins at resume time).
[[nodiscard]] std::optional<ParsedReport> load_journal(
    const std::string& path, std::string* error);

/// Parses a full json_report document (header + candidate rows).
[[nodiscard]] std::optional<ParsedReport> parse_report_text(
    const std::string& text, std::string* error);
[[nodiscard]] std::optional<ParsedReport> parse_report_file(
    const std::string& path, std::string* error);

/// Merges N shard reports back into the canonical single-run report.
/// Hard-checks the cross-shard invariants and fails (nullopt + *error)
/// on any violation:
///   - no meta_diff between headers, with shard.count == number of
///     reports;
///   - shard indices distinct and complete (no duplicate, no missing
///     shard);
///   - every row owned by its report's shard (shard_of(index, N) == k),
///     no duplicate indices, and all n_candidates rows present exactly
///     once after the merge.
/// A single unsharded report passes through (still canonicalized).
/// Output rows are in ascending candidate order with a canonical header
/// (jobs = 0, shard cleared) — byte-identical, via json_report, to an
/// unsharded `--deterministic` run of the same campaign.
[[nodiscard]] std::optional<ParsedReport> merge_reports(
    std::vector<ParsedReport> shards, std::string* error);

} // namespace tgsim::sweep
