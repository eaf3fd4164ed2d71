#include "apps/apps.hpp"
#include "apps/common.hpp"

namespace tgsim::apps {

namespace {

constexpr u32 kDesKey = 0x2B7E1516u;

constexpr u32 rotl(u32 x, unsigned k) noexcept {
    return (x << k) | (x >> (32u - k));
}

u32 sbox_entry(u32 s, u32 v) { return pattern_word(s * 16 + v); }

u32 feistel_f(u32 r, u32 k) {
    const u32 t = r ^ k;
    u32 u = 0;
    for (u32 s = 0; s < 8; ++s) u ^= sbox_entry(s, (t >> (4 * s)) & 0xFu);
    return rotl(u, 3) ^ rotl(u, 11);
}

void round_keys(u32 key, u32 ks[16]) {
    ks[0] = key;
    for (u32 r = 1; r < 16; ++r) ks[r] = rotl(ks[r - 1], 1) ^ r;
}

} // namespace

void feistel_encrypt_ref(u32& l, u32& r, u32 key) {
    u32 ks[16];
    round_keys(key, ks);
    for (u32 i = 0; i < 16; ++i) {
        const u32 nl = r;
        const u32 nr = l ^ feistel_f(r, ks[i]);
        l = nl;
        r = nr;
    }
    std::swap(l, r);
}

// DES benchmark (paper Sec. 6): each core encrypts a static slice of blocks
// from a shared input buffer (ciphertext committed to a shared output buffer
// under a semaphore lock), then decrypts its slice and verifies it matches
// the plaintext; cores meet in a flag barrier. S-box and round-key tables
// live in private cacheable memory, so the traffic profile is compute-heavy
// with bursts of shared accesses at block boundaries — distinct from both
// Cacheloop (no traffic) and MP matrix (traffic-dominated).
Workload make_des(const DesParams& p, const cpu::CpuTiming& timing) {
    using cpu::Reg;
    const u32 bpc = p.blocks_per_core;
    const u32 total_blocks = p.n_cores * bpc;
    const u32 in_addr = platform::kSharedBase + platform::kSharedData;
    const u32 out_addr = in_addr + 8 * total_blocks + 0x100;
    const u32 sem0 = platform::sem_addr(0);

    Workload w;
    w.name = "des";
    w.polls = detail::standard_polls(p.n_cores, timing);

    // Shared input blocks + expected ciphertext checks.
    std::vector<u32> input(2 * total_blocks);
    for (u32 i = 0; i < input.size(); ++i) input[i] = pattern_word(1000 + i);
    w.shared_init.push_back(Segment{in_addr, input});
    for (u32 b = 0; b < total_blocks; ++b) {
        u32 l = input[2 * b], r = input[2 * b + 1];
        feistel_encrypt_ref(l, r, kDesKey);
        w.checks.push_back(Check{out_addr + 8 * b, l});
        w.checks.push_back(Check{out_addr + 8 * b + 4, r});
    }
    for (u32 core = 0; core < p.n_cores; ++core)
        w.checks.push_back(Check{
            platform::kSharedBase + platform::kSharedStatus + 4 * core, bpc});

    // S-box table image (identical in every core's private memory).
    std::vector<u32> tables(8 * 16);
    for (u32 s = 0; s < 8; ++s)
        for (u32 v = 0; v < 16; ++v) tables[s * 16 + v] = sbox_entry(s, v);

    for (u32 core = 0; core < p.n_cores; ++core) {
        const u32 b_lo = core * bpc;
        const u32 b_hi = (core + 1) * bpc;
        const u32 tbl = platform::priv_base(core) + platform::kPrivTables;
        const u32 scratch = platform::priv_base(core) + platform::kPrivScratch;

        cpu::Assembler a;
        // r1=block r2=L r3=R r4=&sbox r5=&in r6=&out r7..r12=scratch
        // r13=&round-keys r14=key-order mask (0=encrypt, 15=decrypt) r15=lr
        a.li(Reg::R4, tbl);
        a.li(Reg::R5, in_addr);
        a.li(Reg::R6, out_addr);
        a.li(Reg::R13, scratch);

        // Round-key schedule: ks[0]=key; ks[r] = rotl(ks[r-1],1) ^ r.
        a.li(Reg::R8, kDesKey);
        a.st(Reg::R8, Reg::R13, 0);
        a.movi(Reg::R9, 1);
        a.bind("ks_loop");
        a.slli(Reg::R12, Reg::R8, 1);
        a.srli(Reg::R7, Reg::R8, 31);
        a.or_(Reg::R12, Reg::R12, Reg::R7);
        a.xor_(Reg::R8, Reg::R12, Reg::R9);
        a.slli(Reg::R7, Reg::R9, 2);
        a.add(Reg::R7, Reg::R7, Reg::R13);
        a.st(Reg::R8, Reg::R7, 0);
        a.addi(Reg::R9, Reg::R9, 1);
        a.movi(Reg::R12, 16);
        a.blt(Reg::R9, Reg::R12, "ks_loop");
        // ok-counter (scratch[16]) = 0
        a.st(Reg::R0, Reg::R13, 64);

        // --- encrypt pass ---
        a.movi(Reg::R14, 0);
        a.li(Reg::R1, b_lo);
        if (bpc > 0) {
            a.bind("enc_loop");
            a.slli(Reg::R8, Reg::R1, 3);
            a.add(Reg::R8, Reg::R8, Reg::R5);
            a.ld(Reg::R2, Reg::R8, 0); // L (shared)
            a.ld(Reg::R3, Reg::R8, 4); // R (shared)
            a.jal("feistel");
            a.li(Reg::R11, sem0);
            detail::emit_acquire(a, "enc_lock", Reg::R11, Reg::R12);
            a.slli(Reg::R8, Reg::R1, 3);
            a.add(Reg::R8, Reg::R8, Reg::R6);
            a.st(Reg::R2, Reg::R8, 0); // ciphertext out (shared)
            a.st(Reg::R3, Reg::R8, 4);
            detail::emit_release(a, Reg::R11, Reg::R12);
            a.addi(Reg::R1, Reg::R1, 1);
            a.li(Reg::R12, b_hi);
            a.blt(Reg::R1, Reg::R12, "enc_loop");

            // --- decrypt & verify pass ---
            a.movi(Reg::R14, 15); // key index i^15 = 15-i
            a.li(Reg::R1, b_lo);
            a.bind("dec_loop");
            a.slli(Reg::R8, Reg::R1, 3);
            a.add(Reg::R8, Reg::R8, Reg::R6);
            a.ld(Reg::R2, Reg::R8, 0); // ciphertext (shared)
            a.ld(Reg::R3, Reg::R8, 4);
            a.jal("feistel");
            a.slli(Reg::R8, Reg::R1, 3);
            a.add(Reg::R8, Reg::R8, Reg::R5);
            a.ld(Reg::R9, Reg::R8, 0); // original plaintext (shared)
            a.ld(Reg::R10, Reg::R8, 4);
            a.bne(Reg::R2, Reg::R9, "dec_skip");
            a.bne(Reg::R3, Reg::R10, "dec_skip");
            a.ld(Reg::R12, Reg::R13, 64);
            a.addi(Reg::R12, Reg::R12, 1);
            a.st(Reg::R12, Reg::R13, 64);
            a.bind("dec_skip");
            a.addi(Reg::R1, Reg::R1, 1);
            a.li(Reg::R12, b_hi);
            a.blt(Reg::R1, Reg::R12, "dec_loop");
        }

        // --- status commit + barrier ---
        a.ld(Reg::R9, Reg::R13, 64); // ok count
        a.li(Reg::R11, sem0);
        detail::emit_acquire(a, "status_lock", Reg::R11, Reg::R12);
        a.li(Reg::R8, platform::kSharedBase + platform::kSharedStatus + 4 * core);
        a.st(Reg::R9, Reg::R8, 0);
        detail::emit_release(a, Reg::R11, Reg::R12);
        detail::emit_barrier(a, core, p.n_cores, Reg::R11, Reg::R12, "bar");
        a.halt();

        // --- feistel subroutine: (r2,r3) -> cipher rounds with keys at r13,
        //     key order i ^ r14; clobbers r7..r12; returns via r15 ---
        a.bind("feistel");
        a.movi(Reg::R10, 0);
        a.bind("f_round");
        a.xor_(Reg::R9, Reg::R10, Reg::R14);
        a.slli(Reg::R9, Reg::R9, 2);
        a.add(Reg::R9, Reg::R9, Reg::R13);
        a.ld(Reg::R9, Reg::R9, 0); // round key (private, cached)
        a.xor_(Reg::R9, Reg::R3, Reg::R9); // t = R ^ k
        a.movi(Reg::R7, 0);                // u = 0
        for (u32 s = 0; s < 8; ++s) {
            if (s == 0)
                a.andi(Reg::R8, Reg::R9, 15);
            else {
                a.srli(Reg::R8, Reg::R9, static_cast<i32>(4 * s));
                a.andi(Reg::R8, Reg::R8, 15);
            }
            a.slli(Reg::R8, Reg::R8, 2);
            a.add(Reg::R8, Reg::R8, Reg::R4);
            a.ld(Reg::R8, Reg::R8, static_cast<i32>(s * 64)); // S-box (cached)
            a.xor_(Reg::R7, Reg::R7, Reg::R8);
        }
        // u = rotl(u,3) ^ rotl(u,11)
        a.slli(Reg::R8, Reg::R7, 3);
        a.srli(Reg::R9, Reg::R7, 29);
        a.or_(Reg::R8, Reg::R8, Reg::R9);
        a.slli(Reg::R9, Reg::R7, 11);
        a.srli(Reg::R12, Reg::R7, 21);
        a.or_(Reg::R9, Reg::R9, Reg::R12);
        a.xor_(Reg::R7, Reg::R8, Reg::R9);
        // (L,R) = (R, L ^ u)
        a.xor_(Reg::R12, Reg::R2, Reg::R7);
        a.add(Reg::R2, Reg::R3, Reg::R0);
        a.add(Reg::R3, Reg::R12, Reg::R0);
        a.addi(Reg::R10, Reg::R10, 1);
        a.movi(Reg::R12, 16);
        a.blt(Reg::R10, Reg::R12, "f_round");
        // final swap
        a.add(Reg::R12, Reg::R2, Reg::R0);
        a.add(Reg::R2, Reg::R3, Reg::R0);
        a.add(Reg::R3, Reg::R12, Reg::R0);
        a.jr(Reg::R15);

        CoreProgram prog;
        prog.code = a.finish();
        prog.data.push_back(Segment{tbl, tables});
        w.cores.push_back(std::move(prog));
    }
    return w;
}

} // namespace tgsim::apps
