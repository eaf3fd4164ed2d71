// Strict unsigned-number parsing shared by the .trc and .tgp readers.
#pragma once

#include <charconv>
#include <optional>
#include <string_view>

#include "sim/types.hpp"

namespace tgsim::tg {

/// Parses all of `tok` as an unsigned number no larger than `max`: decimal,
/// or with `base0` also 0x-hex and 0-octal (strtoul's base 0). No sign, no
/// whitespace, no trailing characters.
[[nodiscard]] inline std::optional<u64> parse_unsigned(std::string_view tok, bool base0,
                                                       u64 max) noexcept {
    int base = 10;
    if (base0 && tok.size() > 1 && tok[0] == '0') {
        const bool hex = tok[1] == 'x' || tok[1] == 'X';
        base = hex ? 16 : 8;
        tok.remove_prefix(hex ? 2 : 1);
    }
    u64 v = 0;
    const auto [end, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), v, base);
    if (tok.empty() || ec != std::errc{} || end != tok.data() + tok.size() || v > max)
        return std::nullopt;
    return v;
}

} // namespace tgsim::tg
