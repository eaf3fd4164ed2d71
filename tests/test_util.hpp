// Helpers shared by the tgsim test suites (and the mesh_gating bench).
#pragma once

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "apps/apps.hpp"
#include "ic/xpipes/xpipes.hpp"
#include "mem/memory.hpp"
#include "platform/platform.hpp"
#include "sweep/shard.hpp"
#include "tg/program.hpp"
#include "tg/translator.hpp"

namespace tgsim::test {

inline constexpr Cycle kMaxCycles = 80'000'000;

struct FlowResult {
    platform::RunResult ref;
    platform::RunResult tg;
    std::vector<tg::Trace> traces;
    std::vector<tg::TgProgram> programs;
    std::string check_msg;
    bool ref_checks_ok = false;
    bool tg_checks_ok = false;
};

/// Runs the complete methodology: reference run (traced) -> translate ->
/// TG run on `tg_cfg` (defaults to the reference config).
inline FlowResult run_flow(const apps::Workload& w,
                           platform::PlatformConfig cfg,
                           tg::TgMode mode = tg::TgMode::Reactive,
                           const platform::PlatformConfig* tg_cfg = nullptr) {
    FlowResult out;
    cfg.collect_traces = true;
    platform::Platform ref{cfg};
    ref.load_workload(w);
    out.ref = ref.run(kMaxCycles);
    out.ref_checks_ok = ref.run_checks(w, &out.check_msg);
    out.traces = ref.traces();

    tg::TranslateOptions topt;
    topt.mode = mode;
    topt.polls = w.polls;
    for (const tg::Trace& t : out.traces)
        out.programs.push_back(tg::translate(t, topt).program);

    platform::PlatformConfig tcfg = tg_cfg != nullptr ? *tg_cfg : cfg;
    tcfg.collect_traces = false;
    platform::Platform tgp{tcfg};
    tgp.load_tg_programs(out.programs, w);
    out.tg = tgp.run(kMaxCycles);
    out.tg_checks_ok = tgp.run_checks(w, &out.check_msg);
    return out;
}

/// Relative cycle error in percent.
inline double cycle_error_pct(const platform::RunResult& ref,
                              const platform::RunResult& tg) {
    return 100.0 *
           (static_cast<double>(tg.cycles) - static_cast<double>(ref.cycles)) /
           static_cast<double>(ref.cycles);
}

/// Scripted OCP master for protocol-level tests: issues a list of
/// transactions (earliest-start constrained) following the standard master
/// drive rules and records the observed handshake timestamps.
class TestMaster final : public sim::Clocked {
public:
    struct Op {
        ocp::Cmd cmd = ocp::Cmd::Read;
        u32 addr = 0;
        u16 burst = 1;
        std::vector<u32> wdata; ///< one per beat for writes
        Cycle not_before = 0;   ///< earliest assert cycle
    };
    struct Done {
        Op op;
        Cycle t_assert = 0;
        Cycle t_accept = 0; ///< last request beat accept
        Cycle t_resp_first = 0;
        Cycle t_resp_last = 0;
        std::vector<u32> rdata;
        std::vector<ocp::Resp> resps; ///< per-beat response code (reads)
    };

    TestMaster(const sim::Kernel& kernel, ocp::ChannelRef ch)
        : kernel_(kernel), ch_(ch) {}

    void push(Op op) { queue_.push_back(std::move(op)); }

    [[nodiscard]] bool idle() const noexcept {
        return !active_ && next_ >= queue_.size();
    }
    [[nodiscard]] const std::vector<Done>& results() const noexcept {
        return results_;
    }

    void eval() override {
        if (!active_ && next_ < queue_.size() &&
            kernel_.now() >= queue_[next_].not_before) {
            cur_ = Done{};
            cur_.op = queue_[next_];
            ++next_;
            active_ = true;
            accepted_ = false;
            beats_acc_ = 0;
            cur_.t_assert = kernel_.now();
        }
        const bool driving =
            active_ && (!accepted_ && (!ocp::is_write(cur_.op.cmd) ||
                                       beats_acc_ < cur_.op.burst));
        if (driving) {
            ch_.m_cmd() = cur_.op.cmd;
            ch_.m_addr() = cur_.op.addr;
            ch_.m_burst() = cur_.op.burst;
            ch_.m_data() = ocp::is_write(cur_.op.cmd) && beats_acc_ < cur_.op.wdata.size()
                             ? cur_.op.wdata[beats_acc_]
                             : 0u;
        } else {
            ch_.m_cmd() = ocp::Cmd::Idle;
            ch_.m_addr() = 0;
            ch_.m_data() = 0;
            ch_.m_burst() = 1;
        }
        ch_.m_resp_accept() = active_ && ocp::is_read(cur_.op.cmd);
        // Conservative activity bump: this scripted master redrives the
        // request group every cycle, so gated peers stay armed.
        ch_.touch_m();
    }

    void update() override {
        if (!active_) return;
        if (ocp::is_write(cur_.op.cmd)) {
            if (ch_.s_cmd_accept()) {
                ++beats_acc_;
                if (beats_acc_ == cur_.op.burst) {
                    cur_.t_accept = kernel_.now();
                    finish();
                }
            }
            return;
        }
        if (!accepted_ && ch_.s_cmd_accept()) {
            accepted_ = true;
            cur_.t_accept = kernel_.now();
        }
        if (ch_.s_resp() != ocp::Resp::None) {
            if (cur_.rdata.empty()) cur_.t_resp_first = kernel_.now();
            cur_.rdata.push_back(ch_.s_data());
            cur_.resps.push_back(ch_.s_resp());
            if (ch_.s_resp_last() || cur_.rdata.size() == cur_.op.burst) {
                cur_.t_resp_last = kernel_.now();
                finish();
            }
        }
    }

private:
    void finish() {
        results_.push_back(cur_);
        active_ = false;
    }

    const sim::Kernel& kernel_;
    ocp::ChannelRef ch_;
    std::vector<Op> queue_;
    std::size_t next_ = 0;
    bool active_ = false;
    bool accepted_ = false;
    u16 beats_acc_ = 0;
    Done cur_;
    std::vector<Done> results_;
};

/// A slow read-only memory for parking tests: accepts a read `delay` cycles
/// after it appears, waits `delay` more, then returns the word at
/// `words[addr / 4 + k]` for beat k. The wires change, and s_gen is bumped,
/// only when a beat's word differs from the one before, so a run of equal
/// words holds the response wires unchanged across beats.
class SlowMemory final : public sim::Clocked {
public:
    SlowMemory(ocp::ChannelRef ch, std::vector<u32> words, u32 delay)
        : ch_(ch), words_(std::move(words)), delay_(delay) {}
    void eval() override {
        switch (phase_) {
            case Phase::Idle:
                if (ch_.m_cmd() == ocp::Cmd::Idle || ++count_ < delay_) return;
                addr_ = ch_.m_addr();
                beats_ = ch_.m_burst();
                ch_.s_cmd_accept() = true;
                phase_ = Phase::Accepted;
                break;
            case Phase::Accepted:
                ch_.s_cmd_accept() = false;
                count_ = 0;
                phase_ = Phase::Wait;
                break;
            case Phase::Wait:
                if (++count_ < delay_) return;
                ch_.s_resp() = ocp::Resp::Dva;
                ch_.s_data() = word(0);
                beat_ = 0;
                phase_ = Phase::Beats;
                break;
            case Phase::Beats:
                if (++beat_ < beats_) {
                    if (word(beat_) == ch_.s_data()) return; // held: no bump
                    ch_.s_data() = word(beat_);
                } else {
                    ch_.clear_response();
                    count_ = 0;
                    phase_ = Phase::Idle;
                }
                break;
        }
        ch_.touch_s();
    }
    void update() override {}

private:
    enum class Phase : u8 { Idle, Accepted, Wait, Beats };
    [[nodiscard]] u32 word(u32 beat) const { return words_.at(addr_ / 4 + beat); }

    ocp::ChannelRef ch_;
    std::vector<u32> words_;
    u32 delay_;
    Phase phase_ = Phase::Idle;
    u32 count_ = 0;
    u32 addr_ = 0;
    u32 beats_ = 0;
    u32 beat_ = 0;
};

/// Never parks; keeps the largest parked_count() its kernel showed at its
/// eval. Register it last, at the observer stage, to sample each cycle after
/// the components that park or wake in it.
class ParkedSampler final : public sim::Clocked {
public:
    explicit ParkedSampler(const sim::Kernel& kernel) : kernel_(kernel) {}
    void eval() override { max = std::max(max, kernel_.parked_count()); }
    void update() override {}

    std::size_t max = 0;

private:
    const sim::Kernel& kernel_;
};

/// N scripted TestMasters + M memory slaves on one ×pipes mesh — shared by
/// the router-gating bit-identity suite (tests/xpipes_gating_test.cpp) and
/// the mesh_gating bench, so the wiring under test and the wiring being
/// timed cannot drift apart.
struct MeshRig {
    sim::Kernel kernel;
    std::vector<std::unique_ptr<ocp::Channel>> chans;
    std::vector<std::unique_ptr<TestMaster>> masters;
    std::vector<std::unique_ptr<mem::MemorySlave>> mems;
    ic::XpipesNetwork ic;

    explicit MeshRig(ic::XpipesConfig cfg) : ic(cfg) {}

    TestMaster& add_master(int node) {
        chans.push_back(std::make_unique<ocp::Channel>());
        masters.push_back(std::make_unique<TestMaster>(kernel, *chans.back()));
        ic.connect_master(*chans.back(), node);
        kernel.add(*masters.back(), sim::kStageMaster);
        return *masters.back();
    }
    mem::MemorySlave& add_mem(u32 base, u32 size, mem::SlaveTiming t,
                              int node) {
        chans.push_back(std::make_unique<ocp::Channel>());
        mems.push_back(
            std::make_unique<mem::MemorySlave>(*chans.back(), t, base, size));
        ic.connect_slave(*chans.back(), base, size, node);
        kernel.add(*mems.back(), sim::kStageSlave);
        return *mems.back();
    }
    [[nodiscard]] bool run_to_idle(Cycle max = 200'000'000) {
        kernel.add(ic, sim::kStageInterconnect);
        const bool done = kernel.run_until(
            [&] {
                for (const auto& m : masters)
                    if (!m->idle()) return false;
                return true;
            },
            max);
        kernel.run(4000); // drain posted writes
        return done;
    }
};

/// Saturating all-to-all load on a width x height fabric: a master on
/// every even node, a 4 KiB memory on every odd node, and each master
/// streaming `reps` 8-beat write+read burst pairs to a deterministic
/// pseudo-random sequence of slaves. Shared by the mesh_gating bench and
/// the loaded-fabric goldens (tests/xpipes_golden_test.cpp).
inline void load_all_to_all(MeshRig& rig, u32 width, u32 height, u32 reps) {
    const u32 nodes = width * height;
    std::vector<TestMaster*> ms;
    u32 n_slaves = 0;
    for (u32 n = 0; n < nodes; ++n) {
        if (n % 2 == 0) {
            ms.push_back(&rig.add_master(static_cast<int>(n)));
        } else {
            rig.add_mem(0x100000u * n_slaves, 0x1000, mem::SlaveTiming{1, 1, 1},
                        static_cast<int>(n));
            ++n_slaves;
        }
    }
    for (u32 i = 0; i < ms.size(); ++i) {
        u32 lcg = 0x9E3779B9u * (i + 1);
        for (u32 r = 0; r < reps; ++r) {
            lcg = lcg * 1664525u + 1013904223u;
            const u32 slave = (lcg >> 8) % n_slaves;
            const u32 addr = 0x100000u * slave + (r % 32) * 0x20;
            std::vector<u32> beats;
            for (u32 b = 0; b < 8; ++b) beats.push_back(lcg + b);
            ms[i]->push({ocp::Cmd::BurstWrite, addr, 8, beats, 0});
            ms[i]->push({ocp::Cmd::BurstRead, addr, 8, {}, 0});
        }
    }
}

/// Pushes `reps` 8-beat write+read burst pairs onto `m` (addresses cycle
/// within a 0x1000 window).
inline void push_burst_flow(TestMaster& m, u32 reps) {
    for (u32 i = 0; i < reps; ++i) {
        std::vector<u32> beats;
        for (u32 b = 0; b < 8; ++b) beats.push_back(i * 8 + b);
        const u32 addr = (i % 32) * 0x20;
        m.push({ocp::Cmd::BurstWrite, addr, 8, beats, 0});
        m.push({ocp::Cmd::BurstRead, addr, 8, {}, 0});
    }
}

/// Parses one candidate row (a journal line) the way reports are read: as
/// the only row of a report with a default header, through
/// sweep::parse_report_text. False + *error unless `line` is exactly one
/// row in the json_report format.
inline bool parse_row(const std::string& line, sweep::SweepResult* out,
                      std::string* error) {
    std::string text = "{\"sweep\": ";
    sweep::append_sweep_meta(text, sweep::SweepMeta{});
    text += ", \"candidates\": [" + line + "]}";
    std::optional<sweep::ParsedReport> report =
        sweep::parse_report_text(text, error);
    if (!report) return false;
    if (report->rows.size() != 1) {
        *error = "not one row: " + std::to_string(report->rows.size());
        return false;
    }
    *out = std::move(report->rows.front());
    return true;
}

} // namespace tgsim::test
