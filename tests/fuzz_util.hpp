// Helpers for the deterministic parser fuzz loops: committed seed corpora
// under tests/data/ and a seeded text mutator.
#pragma once

#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <string_view>

namespace tgsim::test {

/// The text of tests/data/`rel` in the source checkout.
inline std::string read_test_data(const std::string& rel) {
    std::ifstream in{std::string{TGSIM_SOURCE_DIR} + "/tests/data/" + rel};
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/// Applies 1-4 seeded edits to `text`: a bit flip, a truncation, the
/// erasure of up to 16 bytes, or the insertion of one of the grammar's
/// `syntax` bytes.
inline void mutate(std::string& text, std::mt19937_64& rng, std::string_view syntax) {
    for (auto edits = 1 + rng() % 4; edits > 0; --edits) {
        const std::size_t at = rng() % (text.size() + 1);
        switch (rng() % 4) {
            case 0:
                if (at < text.size())
                    text[at] = static_cast<char>(text[at] ^ static_cast<char>(1u << (rng() % 8)));
                break;
            case 1: text.resize(at); break;
            case 2: text.erase(at, 1 + rng() % 16); break;
            default: text.insert(at, 1, syntax[rng() % syntax.size()]);
        }
    }
}

} // namespace tgsim::test
