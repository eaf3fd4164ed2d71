// Unit tests for the benchmark workload builders and the platform harness.
#include <gtest/gtest.h>

#include <utility>

#include "apps/apps.hpp"
#include "platform/memory_map.hpp"
#include "platform/platform.hpp"
#include "sim/rng.hpp"
#include "test_util.hpp"

namespace tgsim::test {
namespace {

// --- the reference cipher ---

constexpr u32 rotl(u32 x, unsigned k) { return (x << k) | (x >> (32u - k)); }

/// The inverse of apps::feistel_encrypt_ref: the same 16 rounds with the
/// round keys in reverse order. The key schedule and the round function
/// (S-box s maps v to pattern_word(16 s + v)) are written out again here,
/// so the cipher is checked against a second copy of them.
void feistel_decrypt_ref(u32& l, u32& r, u32 key) {
    u32 ks[16];
    ks[0] = key;
    for (u32 i = 1; i < 16; ++i) ks[i] = rotl(ks[i - 1], 1) ^ i;
    for (u32 i = 0; i < 16; ++i) {
        const u32 t = r ^ ks[15 - i];
        u32 u = 0;
        for (u32 s = 0; s < 8; ++s)
            u ^= apps::pattern_word(s * 16 + ((t >> (4 * s)) & 0xFu));
        const u32 nr = l ^ rotl(u, 3) ^ rotl(u, 11);
        l = r;
        r = nr;
    }
    std::swap(l, r);
}

TEST(Feistel, DecryptInvertsEncrypt) {
    sim::Rng rng{99};
    for (int i = 0; i < 200; ++i) {
        const u32 l0 = static_cast<u32>(rng.next());
        const u32 r0 = static_cast<u32>(rng.next());
        const u32 key = static_cast<u32>(rng.next());
        u32 l = l0, r = r0;
        apps::feistel_encrypt_ref(l, r, key);
        feistel_decrypt_ref(l, r, key);
        EXPECT_EQ(l, l0);
        EXPECT_EQ(r, r0);
    }
}

TEST(Feistel, EncryptionActuallyChangesData) {
    u32 l = 0x12345678, r = 0x9ABCDEF0;
    apps::feistel_encrypt_ref(l, r, 0x2B7E1516);
    EXPECT_NE(l, 0x12345678u);
    EXPECT_NE(r, 0x9ABCDEF0u);
}

TEST(Feistel, DifferentKeysGiveDifferentCiphertext) {
    u32 l1 = 1, r1 = 2, l2 = 1, r2 = 2;
    apps::feistel_encrypt_ref(l1, r1, 0xAAAA);
    apps::feistel_encrypt_ref(l2, r2, 0xBBBB);
    EXPECT_TRUE(l1 != l2 || r1 != r2);
}

TEST(PatternWord, DeterministicAndSpread) {
    EXPECT_EQ(apps::pattern_word(5), apps::pattern_word(5));
    int distinct = 0;
    for (u32 i = 1; i < 100; ++i)
        if (apps::pattern_word(i) != apps::pattern_word(i - 1)) ++distinct;
    EXPECT_EQ(distinct, 99);
}

// --- workload structure ---

TEST(Workloads, CoreCountsMatchParams) {
    EXPECT_EQ(apps::make_cacheloop({6, 100}).cores.size(), 6u);
    EXPECT_EQ(apps::make_sp_matrix({8}).cores.size(), 1u);
    EXPECT_EQ(apps::make_mp_matrix({5, 10}).cores.size(), 5u);
    EXPECT_EQ(apps::make_des({4, 1}).cores.size(), 4u);
}

TEST(Workloads, AllPublishPollSpecs) {
    for (const auto& w :
         {apps::make_cacheloop({2, 10}), apps::make_sp_matrix({4}),
          apps::make_mp_matrix({2, 4}), apps::make_des({2, 1})}) {
        EXPECT_GE(w.polls.size(), 2u) << w.name;
        // The semaphore bank must always be registered pollable.
        bool sem_covered = false;
        for (const auto& s : w.polls)
            if (s.contains(platform::sem_addr(0))) sem_covered = true;
        EXPECT_TRUE(sem_covered) << w.name;
    }
}

TEST(Workloads, CodeFitsBeforeScratchArea) {
    for (const auto& w :
         {apps::make_mp_matrix({12, 24}), apps::make_des({12, 8}),
          apps::make_sp_matrix({32}), apps::make_cacheloop({12, 100000})}) {
        for (const auto& core : w.cores)
            EXPECT_LT(core.code.size() * 4, platform::kPrivScratch) << w.name;
    }
}

TEST(Workloads, ChecksCoverResults) {
    EXPECT_EQ(apps::make_sp_matrix({8}).checks.size(), 64u);
    EXPECT_EQ(apps::make_mp_matrix({2, 6}).checks.size(), 36u);
    // DES: 2 words per block + one status word per core.
    const auto des = apps::make_des({3, 2});
    EXPECT_EQ(des.checks.size(), 3u * 2u * 2u + 3u);
}

TEST(Workloads, MpMatrixHandlesRemainderRows) {
    // 5 rows over 3 cores: partitions 0-1, 1-3, 3-5 must still compute the
    // full product.
    const auto w = apps::make_mp_matrix({3, 5});
    platform::PlatformConfig cfg;
    cfg.n_cores = 3;
    platform::Platform p{cfg};
    p.load_workload(w);
    ASSERT_TRUE(p.run(kMaxCycles).completed);
    std::string msg;
    EXPECT_TRUE(p.run_checks(w, &msg)) << msg;
}

TEST(Workloads, SingleCoreMpMatrixDegeneratesGracefully) {
    const auto w = apps::make_mp_matrix({1, 6});
    platform::PlatformConfig cfg;
    cfg.n_cores = 1;
    platform::Platform p{cfg};
    p.load_workload(w);
    ASSERT_TRUE(p.run(kMaxCycles).completed);
    std::string msg;
    EXPECT_TRUE(p.run_checks(w, &msg)) << msg;
}

// --- platform harness ---

TEST(Platform, RejectsBadConfigurations) {
    platform::PlatformConfig cfg;
    cfg.n_cores = 0;
    EXPECT_THROW(platform::Platform{cfg}, std::invalid_argument);
}

TEST(Platform, RejectsDoubleLoadAndEmptyRun) {
    const auto w = apps::make_cacheloop({2, 10});
    platform::PlatformConfig cfg;
    cfg.n_cores = 2;
    platform::Platform p{cfg};
    EXPECT_THROW((void)p.run(100), std::logic_error);
    p.load_workload(w);
    EXPECT_THROW(p.load_workload(w), std::logic_error);
}

TEST(Platform, RejectsCoreCountMismatch) {
    const auto w = apps::make_cacheloop({3, 10});
    platform::PlatformConfig cfg;
    cfg.n_cores = 2;
    platform::Platform p{cfg};
    EXPECT_THROW(p.load_workload(w), std::invalid_argument);
}

TEST(Platform, PeekRoutesAcrossMemories) {
    const auto w = apps::make_cacheloop({2, 10});
    platform::PlatformConfig cfg;
    cfg.n_cores = 2;
    platform::Platform p{cfg};
    p.load_workload(w);
    p.private_mem(1).poke(platform::priv_base(1) + 0x100, 0xAB);
    p.shared_mem().poke(platform::kSharedBase + 8, 0xCD);
    EXPECT_EQ(p.peek(platform::priv_base(1) + 0x100), 0xABu);
    EXPECT_EQ(p.peek(platform::kSharedBase + 8), 0xCDu);
    EXPECT_EQ(p.peek(platform::sem_addr(0)), 1u); // semaphores start free
    EXPECT_THROW((void)p.peek(0xFEFE0000), std::out_of_range);
}

TEST(Platform, ChecksReportMismatches) {
    auto w = apps::make_cacheloop({1, 10});
    w.checks.push_back({platform::kSharedBase, 0x1234});
    platform::PlatformConfig cfg;
    cfg.n_cores = 1;
    platform::Platform p{cfg};
    p.load_workload(w);
    ASSERT_TRUE(p.run(kMaxCycles).completed);
    std::string msg;
    EXPECT_FALSE(p.run_checks(w, &msg));
    EXPECT_NE(msg.find("check failed"), std::string::npos);
}

TEST(Platform, TracesCollectEndCycles) {
    const auto w = apps::make_cacheloop({2, 50});
    platform::PlatformConfig cfg;
    cfg.n_cores = 2;
    cfg.collect_traces = true;
    platform::Platform p{cfg};
    p.load_workload(w);
    const auto res = p.run(kMaxCycles);
    ASSERT_TRUE(res.completed);
    ASSERT_EQ(p.traces().size(), 2u);
    EXPECT_EQ(p.traces()[0].end_cycle, res.per_core[0]);
    EXPECT_EQ(p.traces()[1].end_cycle, res.per_core[1]);
    EXPECT_FALSE(p.traces()[0].events.empty()); // at least I$ refills
}

TEST(Platform, XpipesAutoSizesMesh) {
    const auto w = apps::make_cacheloop({7, 10});
    platform::PlatformConfig cfg;
    cfg.n_cores = 7;
    cfg.ic = platform::IcKind::Xpipes;
    platform::Platform p{cfg};
    p.load_workload(w);
    EXPECT_TRUE(p.run(kMaxCycles).completed);
}

} // namespace
} // namespace tgsim::test
