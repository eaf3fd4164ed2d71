// Hardware semaphore bank with test-and-set-on-read semantics.
//
// Each word-indexed semaphore holds a value; a read atomically returns the
// current value and clears it to 0. A free semaphore holds 1, so reading 1
// means "acquired" and reading 0 means "busy — poll again"; writing 1
// releases. This matches the polling pattern of the paper's Fig. 2(b) and the
// translated Semchk loop of Fig. 3 (`If rdreg != 1 then Semchk`).
#pragma once

#include <string>
#include <vector>

#include "mem/slave_device.hpp"

namespace tgsim::mem {

class SemaphoreDevice final : public SlaveDevice {
public:
    SemaphoreDevice(ocp::ChannelRef channel, SlaveTiming timing, u32 base,
                    u32 count, std::string name = "sem");

    [[nodiscard]] u32 base() const noexcept { return base_; }
    [[nodiscard]] u32 count() const noexcept {
        return static_cast<u32>(vals_.size());
    }
    [[nodiscard]] bool contains(u32 addr) const noexcept {
        return addr >= base_ && (addr - base_) / 4u < count();
    }
    [[nodiscard]] const std::string& name() const noexcept { return name_; }

    /// Non-destructive inspection (tests only; does not count as a poll).
    [[nodiscard]] u32 peek(u32 index) const { return vals_.at(index); }
    void poke(u32 index, u32 value) { vals_.at(index) = value; }

    /// Number of reads that returned a nonzero value (successful acquires).
    [[nodiscard]] u64 acquisitions() const noexcept { return acquisitions_; }
    /// Number of reads that returned zero (failed polls).
    [[nodiscard]] u64 failed_polls() const noexcept { return failed_polls_; }

    /// Every read is a test-and-set.
    [[nodiscard]] bool read_side_effects() const noexcept override { return true; }

protected:
    u32 read_word(u32 addr) override;
    void write_word(u32 addr, u32 data) override;

private:
    u32 base_;
    std::vector<u32> vals_;
    std::string name_;
    u64 acquisitions_ = 0;
    u64 failed_polls_ = 0;
};

} // namespace tgsim::mem
