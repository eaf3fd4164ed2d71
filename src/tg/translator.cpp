#include "tg/translator.hpp"

#include <limits>
#include <optional>
#include <set>

namespace tgsim::tg {

namespace {

/// Register allocation used by generated programs.
constexpr u8 kAddrReg = 1; ///< transaction address
constexpr u8 kDataReg = 2; ///< single-write data
constexpr u8 kTempReg = 3; ///< polling comparison value (the paper's tempreg)

class Emitter {
public:
    Emitter(const Trace& trace, const TranslateOptions& opt)
        : trace_(trace), opt_(opt) {
        result_.program.core_id = trace.core_id;
        result_.program.thread_id = trace.thread_id;
        result_.events_in = trace.events.size();
    }

    TranslateResult run() {
        const auto& events = trace_.events;
        std::size_t k = 0;
        while (k < events.size()) {
            const PollSpec* spec = poll_spec(events[k]);
            if (opt_.mode == TgMode::Reactive && spec != nullptr) {
                std::size_t j = k;
                while (j + 1 < events.size() &&
                       events[j + 1].cmd == ocp::Cmd::Read &&
                       events[j + 1].addr == events[k].addr)
                    ++j;
                emit_poll_run(k, j, *spec);
                k = j + 1;
                continue;
            }
            emit_event(events[k]);
            ++k;
        }
        emit_end();
        return std::move(result_);
    }

private:
    [[nodiscard]] const PollSpec* poll_spec(const TraceEvent& ev) const {
        if (ev.cmd != ocp::Cmd::Read) return nullptr;
        for (const PollSpec& s : opt_.polls)
            if (s.contains(ev.addr)) return &s;
        return nullptr;
    }

    /// Sets a register, preferring a free REGISTER directive for first use.
    /// Returns the number of instructions emitted (0 or 1).
    u32 set_reg(u8 reg, u32 value, std::optional<u32>& cache) {
        if (cache && *cache == value) return 0;
        if (!cache && ever_set_.count(reg) == 0) {
            result_.program.reg_init[reg] = value;
            ever_set_.insert(reg);
            cache = value;
            return 0;
        }
        ever_set_.insert(reg);
        TgInstr in;
        in.op = TgOp::SetRegister;
        in.a = reg;
        in.imm = value;
        result_.program.instrs.push_back(in);
        cache = value;
        return 1;
    }

    /// Emits the pre-command wait. `setups` instructions were already
    /// emitted after the previous unblock; `extra_body` covers in-loop idle
    /// executed before the command (poll loops).
    void emit_wait(Cycle t_assert, u32 setups, u32 extra_body) {
        if (opt_.mode == TgMode::Clone) {
            // Absolute anchor: the OCP instruction must execute at
            // t_assert-1, so wait until t_assert-2.
            if (t_assert >= 2) {
                TgInstr in;
                in.op = TgOp::IdleUntil;
                in.imm = static_cast<u32>(t_assert - 2);
                result_.program.instrs.push_back(in);
            }
            return;
        }
        const i64 think = static_cast<i64>(t_assert) - prev_unblock_;
        const i64 n = think - extra_post_ - setups - extra_body - 2;
        if (n <= 0) {
            if (n < 0) ++result_.clamped_idles;
            return;
        }
        TgInstr in;
        in.op = TgOp::Idle;
        in.imm = static_cast<u32>(
            std::min<i64>(n, std::numeric_limits<u32>::max()));
        result_.program.instrs.push_back(in);
    }

    void emit_event(const TraceEvent& ev) {
        u32 setups = set_reg(kAddrReg, ev.addr, cur_addr_);
        if (ev.cmd == ocp::Cmd::Write)
            setups += set_reg(kDataReg, ev.beat_count == 0 ? 0u : trace_.beats_of(ev)[0],
                              cur_data_);
        emit_wait(ev.t_assert, setups, 0);

        auto& prog = result_.program;
        switch (ev.cmd) {
            case ocp::Cmd::Read:
                prog.instrs.push_back({.op = TgOp::Read, .a = kAddrReg});
                break;
            case ocp::Cmd::Write:
                prog.instrs.push_back({.op = TgOp::Write, .a = kAddrReg, .b = kDataReg});
                break;
            case ocp::Cmd::BurstRead:
                prog.instrs.push_back({.op = TgOp::BurstRead, .a = kAddrReg, .imm = ev.burst});
                break;
            case ocp::Cmd::BurstWrite:
                prog.push_burst_write(kAddrReg, trace_.beats_of(ev));
                break;
            default:
                return; // Idle commands never appear in traces
        }
        prev_unblock_ = static_cast<i64>(ev.unblock());
        extra_post_ = 0;
    }

    void emit_poll_run(std::size_t first, std::size_t last, const PollSpec& spec) {
        const auto& events = trace_.events;
        // Sanity: all but the last read should satisfy the retry predicate,
        // the last one should not.
        for (std::size_t i = first; i <= last; ++i) {
            const auto& ev = events[i];
            const u32 value = ev.beat_count == 0 ? 0u : trace_.beats_of(ev).back();
            const bool retry = compare(spec.retry_cmp, value, spec.retry_value);
            if ((i < last) != retry && result_.data_warnings++ == 0)
                result_.first_warning = i;
        }

        u32 setups = set_reg(kAddrReg, events[first].addr, cur_addr_);
        setups += set_reg(kTempReg, spec.retry_value, cur_temp_);
        emit_wait(events[first].t_assert, setups, spec.inter_poll_idle);

        auto& prog = result_.program;
        const u32 loop_head = static_cast<u32>(prog.instrs.size());
        prog.labels[loop_head] = "poll" + std::to_string(result_.poll_loops);
        if (spec.inter_poll_idle > 0) {
            TgInstr idle;
            idle.op = TgOp::Idle;
            idle.imm = spec.inter_poll_idle;
            prog.instrs.push_back(idle);
        }
        TgInstr rd;
        rd.op = TgOp::Read;
        rd.a = kAddrReg;
        prog.instrs.push_back(rd);
        TgInstr iff;
        iff.op = TgOp::If;
        iff.a = kRdReg;
        iff.b = kTempReg;
        iff.cmp = spec.retry_cmp;
        iff.target = loop_head;
        prog.instrs.push_back(iff);

        ++result_.poll_loops;
        result_.polls_collapsed += (last - first + 1);
        prev_unblock_ = static_cast<i64>(events[last].t_resp_last);
        extra_post_ = 1; // the loop-exit If consumes one cycle after unblock
    }

    void emit_end() {
        auto& prog = result_.program;
        if (opt_.mode == TgMode::Clone) {
            if (trace_.end_cycle >= 2) {
                TgInstr in;
                in.op = TgOp::IdleUntil;
                in.imm = static_cast<u32>(trace_.end_cycle - 2);
                prog.instrs.push_back(in);
            }
        } else {
            const i64 think = static_cast<i64>(trace_.end_cycle) - prev_unblock_;
            const i64 n = think - extra_post_ - 2;
            if (n > 0) {
                TgInstr in;
                in.op = TgOp::Idle;
                in.imm = static_cast<u32>(
                    std::min<i64>(n, std::numeric_limits<u32>::max()));
                prog.instrs.push_back(in);
            } else if (n < 0) {
                ++result_.clamped_idles;
            }
        }
        TgInstr fin;
        if (opt_.loop_forever) {
            fin.op = TgOp::Jump;
            fin.target = 0;
            prog.labels[0] = "start";
        } else {
            fin.op = TgOp::Halt;
        }
        prog.instrs.push_back(fin);
    }

    const Trace& trace_;
    const TranslateOptions& opt_;
    TranslateResult result_;
    std::optional<u32> cur_addr_;
    std::optional<u32> cur_data_;
    std::optional<u32> cur_temp_;
    std::set<u8> ever_set_;
    i64 prev_unblock_ = -1;
    u32 extra_post_ = 0;
};

} // namespace

TranslateResult translate(const Trace& trace, const TranslateOptions& options) {
    return Emitter{trace, options}.run();
}

} // namespace tgsim::tg
