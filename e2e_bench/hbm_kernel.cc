#include "bench.hh"

#include <chrono>

#include "common/rng.hh"
#include "gpu/cache_bank.hh"
#include "memory/hbm.hh"

namespace eqx::e2e {

double
hbmTickNs(double accesses_per_cycle, double write_frac, std::uint64_t seed,
          Cycle cycles)
{
    // One stack with the CB's own parameters, fed at the measured
    // per-CB arrival rate and read/write mix. Addresses walk
    // sequentially with the synthetic profiles' continuation odds,
    // else jump, so FR-FCFS sees both row hits and conflicts.
    constexpr double kSeqProb = 0.6;
    constexpr Addr kFootprintLines = Addr{1} << 20;
    const int line_bytes = CbParams{}.hbm.lineBytes;

    std::uint64_t completions = 0;
    HbmStack hbm(CbParams{}.hbm,
                 [&](const MemRequest &, Cycle) { ++completions; });
    Rng rng(seed);
    Addr line = 0;
    double acc = 0;
    std::uint64_t offered = 0;

    auto start = std::chrono::steady_clock::now();
    for (Cycle now = 1; now <= cycles; ++now) {
        acc += accesses_per_cycle;
        while (acc >= 1.0) {
            acc -= 1.0;
            line = rng.chance(kSeqProb) ? (line + 1) % kFootprintLines
                                        : rng.nextBounded(kFootprintLines);
            Addr addr = line * static_cast<Addr>(line_bytes);
            if (hbm.canEnqueue(addr)) {
                hbm.enqueue(MemRequest{addr, rng.chance(write_frac), line},
                            now);
                ++offered;
            }
        }
        hbm.tick(now);
    }
    auto end = std::chrono::steady_clock::now();
    if (offered == 0 || completions == 0)
        return 0;
    return std::chrono::duration<double, std::nano>(end - start).count() /
           static_cast<double>(cycles);
}

} // namespace eqx::e2e
