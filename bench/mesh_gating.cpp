// Activity-gated ×pipes router phase vs the full-scan baseline.
//
// Two workload shapes per grid size (4x4, 8x8, 16x16):
//
//   * single_flow — one master in a corner streaming bursts to the far
//     corner: the worklist touches only the XY path, so the router phase
//     should scale with traffic, not mesh size (the headline claim);
//   * all_to_all  — a master on every even node hammering pseudo-random
//     slaves: the saturated case, where gating must at least break even.
//
// Each shape runs with router_gating on and off; the run must be
// bit-identical (handshake timestamps, read data, response codes, memory
// images, behavioural stats) — any divergence is fatal, so CI fails loudly.
// The two modes run kTimingReps times each, alternated, and each keeps its
// fastest wall time: host contention only ever adds time, in bursts that
// can cover a whole single run, so one run per mode let a burst over either
// side move the speedup floor's ratio by tens of percent.
// The 8x8 grid additionally runs as a torus (docs/topology.md): wrap links
// plus the dateline VC planes ride the same gating contract, and the
// torus rows feed the same identity + speedup floors in
// ci/bench_floors.json. Every row also records the gated router path's
// absolute cost — ns per flit hop and simulated cycles per second — so the
// per-hop trajectory comes from this harness rather than from CI
// artifacts. Those are host-dependent numbers and carry no floor. Results
// go to BENCH_mesh_gating.json.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "ic/xpipes/xpipes.hpp"
#include "mem/memory.hpp"
#include "test_util.hpp"

namespace tgsim {
namespace {

using mem::SlaveTiming;
using test::MeshRig; // shared with tests/xpipes_gating_test.cpp

/// Timed runs per router-phase mode (see the header comment).
constexpr int kTimingReps = 5;

/// Everything that must be bit-identical across the two router-phase modes.
struct Observation {
    u64 crc = 0; ///< FNV over master results + memory images
    Cycle cycles = 0;
    u64 busy = 0, flits = 0, packets = 0, contention = 0;
    u64 router_visits = 0;
    u64 router_phase_cycles = 0;
    double wall_seconds = 0.0;

    [[nodiscard]] bool same_behaviour(const Observation& o) const {
        return crc == o.crc && cycles == o.cycles && busy == o.busy &&
               flits == o.flits && packets == o.packets &&
               contention == o.contention &&
               router_phase_cycles == o.router_phase_cycles;
    }
};

u64 fnv_step(u64 h, u64 w) { return (h ^ w) * 0x100000001b3ull; }

Observation observe(MeshRig& rig, double wall) {
    Observation o;
    o.wall_seconds = wall;
    u64 h = 0xcbf29ce484222325ull;
    Cycle last = 0;
    for (const auto& m : rig.masters) {
        for (const auto& d : m->results()) {
            h = fnv_step(h, d.t_assert);
            h = fnv_step(h, d.t_accept);
            h = fnv_step(h, d.t_resp_first);
            h = fnv_step(h, d.t_resp_last);
            for (const u32 w : d.rdata) h = fnv_step(h, w);
            for (const auto r : d.resps) h = fnv_step(h, static_cast<u64>(r));
            last = std::max(last, std::max(d.t_accept, d.t_resp_last));
        }
    }
    for (const auto& mem : rig.mems)
        for (u32 a = 0; a < mem->size_bytes(); a += 4)
            h = fnv_step(h, mem->peek(mem->base() + a));
    o.crc = h;
    o.cycles = last;
    const ic::XpipesStats& s = rig.ic.stats();
    o.busy = s.busy_cycles;
    o.flits = s.flits_routed;
    o.packets = s.packets_sent;
    o.contention = rig.ic.contention_cycles();
    o.router_visits = s.router_visits;
    o.router_phase_cycles = s.router_phase_cycles;
    return o;
}

/// One corner-to-corner flow: repeated 8-beat write+read bursts.
void load_single_flow(MeshRig& rig, u32 width, u32 height, u32 reps) {
    auto& m = rig.add_master(0);
    rig.add_mem(0x0, 0x1000, SlaveTiming{1, 1, 1},
                static_cast<int>(width * height - 1));
    test::push_burst_flow(m, reps);
}

template <typename Loader>
Observation run_one(u32 width, u32 height, bool gating,
                    ic::TopologyKind topology, Loader&& load) {
    ic::XpipesConfig cfg{width, height, 4};
    cfg.router_gating = gating;
    cfg.topology = topology;
    MeshRig rig{cfg};
    load(rig, width, height);
    const auto t0 = std::chrono::steady_clock::now();
    if (!rig.run_to_idle()) {
        std::fprintf(stderr, "FATAL: mesh run did not complete\n");
        std::exit(1);
    }
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    return observe(rig, wall);
}

} // namespace
} // namespace tgsim

int main() {
    using namespace tgsim;
    const u32 reps = 40 * bench::scale();
    bench::JsonReport report{"mesh_gating"};
    std::printf("×pipes router-phase gating: worklist vs full scan\n");
    std::printf("%-22s %10s %10s %8s %14s %14s %9s\n", "workload", "full s",
                "gated s", "speedup", "visits", "scan bound", "ns/hop");

    bool all_identical = true;
    for (const u32 dim : {4u, 8u, 16u}) {
        struct Shape {
            const char* name;
            void (*load)(MeshRig&, u32, u32, u32);
        };
        const Shape shapes[] = {{"single_flow", load_single_flow},
                                {"all_to_all", test::load_all_to_all}};
        for (const Shape& sh : shapes)
        for (const ic::TopologyKind topo :
             {ic::TopologyKind::Mesh, ic::TopologyKind::Torus}) {
            // Torus rows only at 8x8: one size is enough to gate the wrap
            // links + dateline VCs without doubling the bench budget.
            if (topo == ic::TopologyKind::Torus && dim != 8) continue;
            const auto loader = [&](MeshRig& rig, u32 w, u32 h) {
                sh.load(rig, w, h, reps);
            };
            Observation full;
            Observation gated;
            bool identical = true;
            for (int rep = 0; rep < kTimingReps; ++rep) {
                const auto f = run_one(dim, dim, false, topo, loader);
                const auto g = run_one(dim, dim, true, topo, loader);
                if (rep == 0) {
                    full = f;
                    gated = g;
                }
                identical = identical && f.same_behaviour(full) &&
                            g.same_behaviour(full);
                full.wall_seconds = std::min(full.wall_seconds, f.wall_seconds);
                gated.wall_seconds =
                    std::min(gated.wall_seconds, g.wall_seconds);
            }
            all_identical = all_identical && identical;
            const double speedup = full.wall_seconds / gated.wall_seconds;
            const u64 bound =
                static_cast<u64>(dim) * dim * full.router_phase_cycles;
            const double ns_per_hop =
                gated.wall_seconds * 1e9 / static_cast<double>(gated.flits);
            const double gated_cycles_per_s =
                static_cast<double>(gated.cycles) / gated.wall_seconds;
            char row[64];
            std::snprintf(row, sizeof row, "%ux%u_%s%s", dim, dim,
                          topo == ic::TopologyKind::Torus ? "torus_" : "",
                          sh.name);
            std::printf("%-22s %10.4f %10.4f %7.2fx %14llu %14llu %9.1f%s\n",
                        row, full.wall_seconds, gated.wall_seconds, speedup,
                        static_cast<unsigned long long>(gated.router_visits),
                        static_cast<unsigned long long>(bound), ns_per_hop,
                        identical ? "" : "  MISMATCH");
            report.add_row(
                row,
                {{"mesh_dim", dim},
                 {"full_scan_seconds", full.wall_seconds},
                 {"gated_seconds", gated.wall_seconds},
                 {"speedup", speedup},
                 {"cycles", static_cast<double>(full.cycles)},
                 {"router_visits_gated",
                  static_cast<double>(gated.router_visits)},
                 {"router_visits_full",
                  static_cast<double>(full.router_visits)},
                 {"full_scan_bound", static_cast<double>(bound)},
                 {"flits_routed", static_cast<double>(full.flits)},
                 {"ns_per_hop", ns_per_hop},
                 {"gated_cycles_per_s", gated_cycles_per_s},
                 {"identical", identical ? 1.0 : 0.0}});
        }
    }
    if (!all_identical) {
        std::fprintf(stderr,
                     "FATAL: gated router phase diverged from full scan\n");
        return 1;
    }
    return 0;
}
