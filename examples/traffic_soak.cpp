// Traffic soak rig: stochastic load generators against the TG slave
// entities (paper Sec. 4's entity 2 and 3) — the kind of standalone
// stress setup one would put on a NoC test chip, built here entirely from
// tgsim components without any CPU model or application.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "ic/amba/ahb_bus.hpp"
#include "mem/semaphore.hpp"
#include "tg/stochastic.hpp"
#include "tg/tg_slaves.hpp"

using namespace tgsim;

int main() {
    constexpr u32 kMasters = 4;
    sim::Kernel kernel;
    // All wire state in one SoA store; masters allocated first so the bus
    // scans (and the kernel watches) one contiguous index run.
    ocp::ChannelStore wires;
    wires.reserve(kMasters + 2);

    ic::AhbBus bus{ic::Arbitration::RoundRobin};

    // Master side: four stochastic generators with different personalities.
    std::vector<std::unique_ptr<tg::StochasticTg>> masters;
    const tg::ArrivalProcess procs[] = {
        tg::ArrivalProcess::Uniform, tg::ArrivalProcess::Poisson,
        tg::ArrivalProcess::Bursty, tg::ArrivalProcess::Bursty};
    for (u32 i = 0; i < kMasters; ++i) {
        tg::StochasticConfig cfg;
        cfg.seed = 42 + i;
        cfg.process = procs[i];
        cfg.total_transactions = 2000;
        cfg.read_fraction = 0.6 + 0.1 * i;
        cfg.burst_fraction = 0.25;
        cfg.burst_len = 8;
        cfg.min_gap = 1;
        cfg.max_gap = 30;
        cfg.rate = 0.08;
        cfg.targets = {
            {0x20000000 + i * 0x2000, 0x2000, 3}, // own shared slice
            {0x40000000, 0x1000, 1},              // dummy device
        };
        const ocp::ChannelRef ch = wires.allocate();
        masters.push_back(std::make_unique<tg::StochasticTg>(ch, cfg));
        bus.connect_master(ch, -1);
    }

    // Slave side: one shared-memory TG slave, one dummy responder.
    const ocp::ChannelRef shared_ch = wires.allocate();
    tg::SharedMemTgSlave shared{shared_ch, mem::SlaveTiming{2, 1, 1},
                                0x20000000, 0x10000, "tg_shared"};
    bus.connect_slave(shared_ch, 0x20000000, 0x10000, -1);

    const ocp::ChannelRef dummy_ch = wires.allocate();
    tg::DummySlaveTg dummy{dummy_ch, mem::SlaveTiming{1, 1, 1}, 0x40000000,
                           0x10000};
    bus.connect_slave(dummy_ch, 0x40000000, 0x10000, -1);

    for (auto& m : masters) kernel.add(*m, sim::kStageMaster);
    kernel.add(shared, sim::kStageSlave);
    kernel.add(dummy, sim::kStageSlave);
    kernel.add(bus, sim::kStageInterconnect);

    sim::WallTimer timer;
    const bool done = kernel.run_until(
        [&] {
            for (const auto& m : masters)
                if (!m->done()) return false;
            return true;
        },
        50'000'000, /*check_interval=*/1024);

    std::printf("=== stochastic soak over AMBA with TG slave entities ===\n\n");
    Cycle completion = 0;
    for (const auto& m : masters)
        completion = std::max(completion, m->halt_cycle());
    std::printf("completed: %s in %llu cycles (%.3f s wall)\n",
                done ? "yes" : "NO",
                static_cast<unsigned long long>(done ? completion
                                                     : kernel.now()),
                timer.seconds());
    for (u32 i = 0; i < kMasters; ++i)
        std::printf("  master %u: %llu transactions, halted @%llu\n", i,
                    static_cast<unsigned long long>(masters[i]->issued()),
                    static_cast<unsigned long long>(masters[i]->halt_cycle()));
    std::printf("shared TG slave: %llu reads, %llu writes\n",
                static_cast<unsigned long long>(shared.reads_served()),
                static_cast<unsigned long long>(shared.writes_served()));
    std::printf("dummy TG slave:  %llu reads, %llu writes discarded\n",
                static_cast<unsigned long long>(dummy.reads_served()),
                static_cast<unsigned long long>(dummy.writes_discarded()));
    std::printf("bus: %llu busy cycles, %llu contention cycles, %llu decode errors\n",
                static_cast<unsigned long long>(bus.stats().busy_cycles),
                static_cast<unsigned long long>(bus.contention_cycles()),
                static_cast<unsigned long long>(bus.stats().decode_errors));
    return done ? 0 : 1;
}
