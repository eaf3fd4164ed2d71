#include "mem/memory.hpp"

#include <stdexcept>

namespace tgsim::mem {

MemorySlave::MemorySlave(ocp::ChannelRef channel, SlaveTiming timing, u32 base,
                         u32 size_bytes, std::string name)
    : SlaveDevice(channel, timing),
      base_(base),
      words_((size_bytes + 3u) / 4u, 0u),
      name_(std::move(name)) {
    if (size_bytes == 0) throw std::invalid_argument{"MemorySlave: zero size"};
}

bool MemorySlave::index_of(u32 addr, u32& index) const noexcept {
    if (!contains(addr)) return false;
    index = (addr - base_) / 4u;
    return true;
}

u32 MemorySlave::read_word(u32 addr) {
    u32 idx = 0;
    if (!index_of(addr, idx)) {
        ++oob_;
        return ocp::kPoison;
    }
    return words_[idx];
}

void MemorySlave::write_word(u32 addr, u32 data) {
    u32 idx = 0;
    if (!index_of(addr, idx)) {
        ++oob_;
        return;
    }
    words_[idx] = data;
}

u32 MemorySlave::peek(u32 addr) const {
    u32 idx = 0;
    if (!index_of(addr, idx)) throw std::out_of_range{"MemorySlave::peek: " + name_};
    return words_[idx];
}

void MemorySlave::poke(u32 addr, u32 data) {
    u32 idx = 0;
    if (!index_of(addr, idx)) throw std::out_of_range{"MemorySlave::poke: " + name_};
    words_[idx] = data;
}

void MemorySlave::load(u32 addr, std::span<const u32> words) {
    for (std::size_t i = 0; i < words.size(); ++i)
        poke(addr + static_cast<u32>(4 * i), words[i]);
}

void MemorySlave::fill(u32 value) {
    for (auto& w : words_) w = value;
}

} // namespace tgsim::mem
