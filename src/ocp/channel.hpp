// OCP channel wire bundles, stored structure-of-arrays.
//
// A channel connects exactly one requester (master side) to one acceptor
// (slave side). All wire state for a platform lives in one ChannelStore:
// one contiguous array per field (m_cmd[], m_addr[], ..., m_gen[], s_gen[]),
// so per-cycle arbitration and activity scans stream through cache lines
// instead of pointer-chasing per-channel heap allocations. Components hold
// lightweight ChannelRef handles (store + index) that expose the classic
// per-channel member API (tidy_request(), touch_m(), request_is_idle(), ...).
//
// The full wire-drive discipline — who drives which group when, and the
// activity-generation-counter rules the gating kernel depends on — is
// documented in docs/ocp.md. Summary: the master side drives the request
// group (m_*) and bumps m_gen on every change; the slave side drives
// s_cmd_accept and the response group (s_*) and bumps s_gen; a missed bump
// breaks bit-reproducibility, so drivers bump conservatively. Every counter
// has a wake list beside it (m_wake/s_wake): a bump also sets the run bit of
// each component the gating kernel subscribed to that counter.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "ocp/types.hpp"
#include "sim/wake.hpp"

namespace tgsim::ocp {

/// Maximum burst length supported by the protocol subset (beats).
inline constexpr u16 kMaxBurstLen = 64;

class ChannelRef;

/// Structure-of-arrays store owning the wire state of every channel in a
/// platform. Fields are public: hot paths (arbitration scans, benches) may
/// index the arrays directly; everything else goes through ChannelRef.
///
/// Allocation happens during platform wiring only. Growing the store never
/// invalidates ChannelRefs (they are store + index), but it may invalidate
/// raw pointers into the field arrays — the kernel reads a component's watch
/// ranges once, at its first park, so the standing rule "wire everything
/// before the first run" (docs/kernel.md) keeps those pointers stable.
class ChannelStore {
public:
    // --- request group: driven by the master side ---
    std::vector<Cmd> m_cmd;
    std::vector<u32> m_addr;  ///< byte address of the (first) beat
    std::vector<u32> m_data;  ///< write data for the current beat
    std::vector<u16> m_burst; ///< total beats in the transaction
    std::vector<u8> m_resp_accept; ///< master consumes the current response beat

    // --- response group: driven by the slave side ---
    std::vector<u8> s_cmd_accept; ///< slave consumes the current request beat
    std::vector<Resp> s_resp;
    std::vector<u32> s_data;
    std::vector<u8> s_resp_last; ///< current response beat is the final beat

    // --- activity generation counters (see docs/ocp.md) ---
    std::vector<u32> m_gen; ///< bumped when the master-driven wires change
    std::vector<u32> s_gen; ///< bumped when the slave-driven wires change
    /// Subscribers woken by each bump (sim::WakeList; one per counter).
    std::vector<sim::WakeList> m_wake;
    std::vector<sim::WakeList> s_wake;

    /// Appends one idle channel and returns its handle.
    ChannelRef allocate();

    void reserve(std::size_t n) {
        m_cmd.reserve(n);
        m_addr.reserve(n);
        m_data.reserve(n);
        m_burst.reserve(n);
        m_resp_accept.reserve(n);
        s_cmd_accept.reserve(n);
        s_resp.reserve(n);
        s_data.reserve(n);
        s_resp_last.reserve(n);
        m_gen.reserve(n);
        s_gen.reserve(n);
        m_wake.reserve(n);
        s_wake.reserve(n);
    }

    [[nodiscard]] std::size_t size() const noexcept { return m_cmd.size(); }

    /// Handle for an already-allocated index.
    [[nodiscard]] ChannelRef channel(u32 index) noexcept;

    // --- per-index wire-group operations (ChannelRef delegates here) ---

    [[nodiscard]] bool request_is_idle(u32 i) const noexcept {
        return m_cmd[i] == Cmd::Idle && m_addr[i] == 0 && m_data[i] == 0 &&
               m_burst[i] == 1 && !m_resp_accept[i];
    }
    [[nodiscard]] bool response_is_idle(u32 i) const noexcept {
        return !s_cmd_accept[i] && s_resp[i] == Resp::None && s_data[i] == 0 &&
               !s_resp_last[i];
    }

    /// The driver of the m_* group calls this after changing any m_* wire;
    /// it bumps m_gen and wakes the counter's subscribers.
    void touch_m(u32 i) noexcept {
        ++m_gen[i];
        m_wake[i].fire();
    }
    /// The driver of the s_* group calls this after changing any s_* wire.
    void touch_s(u32 i) noexcept {
        ++s_gen[i];
        s_wake[i].fire();
    }

    /// Resets the master-driven wires to the idle state (no activity bump;
    /// prefer tidy_request() in eval paths).
    void clear_request(u32 i) noexcept {
        m_cmd[i] = Cmd::Idle;
        m_addr[i] = 0;
        m_data[i] = 0;
        m_burst[i] = 1;
        m_resp_accept[i] = false;
    }

    /// Resets the slave-driven wires to the idle state (no activity bump;
    /// prefer tidy_response() in eval paths).
    void clear_response(u32 i) noexcept {
        s_cmd_accept[i] = false;
        s_resp[i] = Resp::None;
        s_data[i] = 0;
        s_resp_last[i] = false;
    }

    /// Idles the m_* group, bumping m_gen only when something was driven;
    /// returns true if the wires changed. Cheap enough for per-cycle
    /// default-drive passes (the idle case is a few compares, no stores).
    bool tidy_request(u32 i) noexcept {
        if (request_is_idle(i)) return false;
        clear_request(i);
        touch_m(i);
        return true;
    }

    /// Idles the s_* group, bumping s_gen only when something was driven.
    bool tidy_response(u32 i) noexcept {
        if (response_is_idle(i)) return false;
        clear_response(i);
        touch_s(i);
        return true;
    }

    void clear(u32 i) noexcept {
        clear_request(i);
        clear_response(i);
    }

    /// Contiguous activity-counter range over master-side gens, with their
    /// wake lists — the kernel watch-subscription currency
    /// (sim::Clocked::watch_inputs).
    [[nodiscard]] sim::WatchRange m_gen_range(u32 first, u32 count) const noexcept {
        return sim::WatchRange{m_gen.data() + first, count, m_wake.data() + first};
    }
    [[nodiscard]] sim::WatchRange s_gen_range(u32 first, u32 count) const noexcept {
        return sim::WatchRange{s_gen.data() + first, count, s_wake.data() + first};
    }
};

/// Lightweight handle to one channel inside a ChannelStore. Copy freely;
/// a default-constructed ref is null (used e.g. for decode-error targets).
/// Like a pointer, a const ChannelRef still yields mutable wires — read-only
/// use is a convention of the holding component (e.g. monitors).
class ChannelRef {
public:
    ChannelRef() = default;
    ChannelRef(ChannelStore& store, u32 index) noexcept
        : store_(&store), idx_(index) {}

    [[nodiscard]] explicit operator bool() const noexcept { return store_ != nullptr; }
    [[nodiscard]] ChannelStore* store() const noexcept { return store_; }
    [[nodiscard]] u32 index() const noexcept { return idx_; }
    friend bool operator==(const ChannelRef&, const ChannelRef&) = default;

    // --- field access (lvalues into the store's arrays) ---
    [[nodiscard]] Cmd& m_cmd() const noexcept { return store_->m_cmd[idx_]; }
    [[nodiscard]] u32& m_addr() const noexcept { return store_->m_addr[idx_]; }
    [[nodiscard]] u32& m_data() const noexcept { return store_->m_data[idx_]; }
    [[nodiscard]] u16& m_burst() const noexcept { return store_->m_burst[idx_]; }
    [[nodiscard]] u8& m_resp_accept() const noexcept { return store_->m_resp_accept[idx_]; }
    [[nodiscard]] u8& s_cmd_accept() const noexcept { return store_->s_cmd_accept[idx_]; }
    [[nodiscard]] Resp& s_resp() const noexcept { return store_->s_resp[idx_]; }
    [[nodiscard]] u32& s_data() const noexcept { return store_->s_data[idx_]; }
    [[nodiscard]] u8& s_resp_last() const noexcept { return store_->s_resp_last[idx_]; }
    [[nodiscard]] u32 m_gen() const noexcept { return store_->m_gen[idx_]; }
    [[nodiscard]] u32 s_gen() const noexcept { return store_->s_gen[idx_]; }

    // --- classic per-channel member API ---
    void touch_m() const noexcept { store_->touch_m(idx_); }
    void touch_s() const noexcept { store_->touch_s(idx_); }
    [[nodiscard]] bool request_is_idle() const noexcept {
        return store_->request_is_idle(idx_);
    }
    [[nodiscard]] bool response_is_idle() const noexcept {
        return store_->response_is_idle(idx_);
    }
    void clear_request() const noexcept { store_->clear_request(idx_); }
    void clear_response() const noexcept { store_->clear_response(idx_); }
    bool tidy_request() const noexcept { return store_->tidy_request(idx_); }
    bool tidy_response() const noexcept { return store_->tidy_response(idx_); }
    void clear() const noexcept { store_->clear(idx_); }

    /// One-counter watch ranges for single-channel observers (slaves,
    /// monitors).
    [[nodiscard]] sim::WatchRange m_gen_watch() const noexcept {
        return store_->m_gen_range(idx_, 1);
    }
    [[nodiscard]] sim::WatchRange s_gen_watch() const noexcept {
        return store_->s_gen_range(idx_, 1);
    }

private:
    ChannelStore* store_ = nullptr;
    u32 idx_ = 0;
};

inline ChannelRef ChannelStore::allocate() {
    m_cmd.push_back(Cmd::Idle);
    m_addr.push_back(0);
    m_data.push_back(0);
    m_burst.push_back(1);
    m_resp_accept.push_back(false);
    s_cmd_accept.push_back(false);
    s_resp.push_back(Resp::None);
    s_data.push_back(0);
    s_resp_last.push_back(false);
    m_gen.push_back(0);
    s_gen.push_back(0);
    m_wake.emplace_back();
    s_wake.emplace_back();
    return ChannelRef{*this, static_cast<u32>(size() - 1)};
}

inline ChannelRef ChannelStore::channel(u32 index) noexcept {
    return ChannelRef{*this, index};
}

/// Standalone single-channel convenience: a ChannelRef that owns its own
/// one-entry store. Handy for tests and small hand-wired rigs; platforms
/// allocate every channel from one shared ChannelStore instead. Pass it
/// anywhere a ChannelRef is expected (slicing copies the handle).
class Channel : public ChannelRef {
public:
    Channel() : own_(std::make_unique<ChannelStore>()) {
        static_cast<ChannelRef&>(*this) = own_->allocate();
    }
    // Non-copyable and non-movable: components snapshot the base handle.
    Channel(const Channel&) = delete;
    Channel& operator=(const Channel&) = delete;

private:
    std::unique_ptr<ChannelStore> own_;
};

} // namespace tgsim::ocp
