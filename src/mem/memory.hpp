// Word-addressable memory slave.
//
// Used for both private (per-core, cacheable) and shared (non-cacheable)
// memories. Accesses outside the configured window return a poison value and
// are counted, never fatal — the platform's address decoder should make them
// impossible, so a nonzero count indicates a decode bug.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "mem/slave_device.hpp"

namespace tgsim::mem {

class MemorySlave final : public SlaveDevice {
public:
    /// `base` and `size_bytes` define the decoded window; storage is
    /// allocated for the full window (word granularity).
    MemorySlave(ocp::ChannelRef channel, SlaveTiming timing, u32 base,
                u32 size_bytes, std::string name = "mem");

    [[nodiscard]] u32 base() const noexcept { return base_; }
    [[nodiscard]] u32 size_bytes() const noexcept {
        return static_cast<u32>(words_.size()) * 4u;
    }
    [[nodiscard]] const std::string& name() const noexcept { return name_; }
    [[nodiscard]] bool contains(u32 addr) const noexcept {
        return addr >= base_ && (addr - base_) < size_bytes();
    }

    /// Direct (zero-time) accessors for program loading and test inspection.
    [[nodiscard]] u32 peek(u32 addr) const;
    void poke(u32 addr, u32 data);
    void load(u32 addr, std::span<const u32> words);
    void fill(u32 value);

    [[nodiscard]] u64 out_of_range_accesses() const noexcept { return oob_; }

protected:
    u32 read_word(u32 addr) override;
    void write_word(u32 addr, u32 data) override;

private:
    [[nodiscard]] bool index_of(u32 addr, u32& index) const noexcept;

    u32 base_;
    std::vector<u32> words_;
    std::string name_;
    u64 oob_ = 0;
};

} // namespace tgsim::mem
