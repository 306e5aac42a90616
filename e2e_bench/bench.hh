/**
 * @file
 * Shared declarations of the end-to-end benchmark: the workload
 * table, the per-pass EquiNox design pinning, one untraced cell run
 * through ExperimentRunner::prepareCell -> System, the correctness
 * gate, and the layer counters read back from a finished System.
 */

#ifndef EQX_E2E_BENCH_BENCH_HH
#define EQX_E2E_BENCH_BENCH_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/experiment.hh"
#include "traced_cell.hh"

namespace eqx::e2e {

/** Seed the committed goldens were recorded with. */
inline constexpr std::uint64_t kGoldenSeed = 1;

/**
 * Traffic rounds per run. Pass p simulates round p % kRounds under
 * roundSeed(seed, round), and the simulated metrics cover one full
 * rotation, so tail statistics describe the workload rather than
 * one seed's congestion episodes.
 */
inline constexpr int kRounds = 8;

/** Simulation seed of one round: the run seed itself for round 0. */
std::uint64_t roundSeed(std::uint64_t seed, int round);

/** One benchmark workload: a fixed scheme x benchmark cell matrix. */
struct WorkloadDef
{
    std::string name;
    int side = 8;         ///< mesh is side x side
    std::vector<std::string> schemes;
    std::vector<std::string> benchmarks;
    double instScale = 1; ///< ExperimentConfig::instScale
    TrafficConfig traffic; ///< default = closed-loop synthetic PEs
    double paperSpeedup = 0; ///< fig12 EquiNox/SeparateBase, 0 = none

    bool openLoop() const { return !traffic.model.empty(); }
};

/** The workload table; fatal on an unknown name, listing the keys. */
const WorkloadDef &workloadDef(const std::string &name);

/** EquiNox designs pinned for one pass, one per scheme that uses one. */
struct PinnedDesigns
{
    std::map<std::string, EquiNoxDesign> byScheme;
    double seconds = 0;            ///< buildEquiNoxDesign host time
    std::uint64_t evaluations = 0; ///< search evaluations, all designs
};

/**
 * Run buildEquiNoxDesign once per design-using scheme, with default
 * DesignParams (seed included) at the scheme's own reply topology.
 * The design is the modelled hardware, so it does not follow the
 * benchmark seed; only the traffic does.
 */
PinnedDesigns buildDesigns(const WorkloadDef &w);

/** The experiment whose tweak pins @p designs into every cell. */
ExperimentConfig experimentFor(const WorkloadDef &w, std::uint64_t seed,
                               const PinnedDesigns &designs);

/** The benchmark profiles in cell order (workload-major). */
std::vector<WorkloadProfile> profilesOf(const WorkloadDef &w);

/** Layer counters summed over cells, read after untraced runs. */
struct Counts
{
    double cycles = 0, skipped = 0;
    double reqFlits = 0, repFlits = 0, repInterposerFlits = 0;
    double reqSaReq = 0, reqSaGrant = 0, repSaReq = 0, repSaGrant = 0;
    double reqQueueNs = 0, reqPackets = 0; ///< packet-weighted sums
    double repQueueNs = 0, repPackets = 0;
    double maxEirLoad = 0;
    double peInsts = 0, l1Hits = 0, l1Accesses = 0;
    double peStallInject = 0, peStallMshrFull = 0;
    double l2Hits = 0, l2Accesses = 0;
    double cbStallReply = 0, cbStallHbm = 0;
    double cbCycles = 0; ///< sum over cells of banks x cycles
    double hbmReads = 0, hbmWrites = 0, hbmRowHits = 0, hbmIssued = 0;
    double stormOffered = 0, stormDelivered = 0, stormDropped = 0;

    void add(const System &sys, const RunResult &r);
};

/** One untraced cell: built, run, checked and counted. */
struct CellRun
{
    std::string scheme;
    std::string benchmark;
    RunResult result;
    double buildNs = 0; ///< System::System
    double runNs = 0;   ///< System::run
    std::string record; ///< cellJsonRecord without wall_ms
    CellSignature signature;
    std::string error;  ///< non-empty when the cell threw
};

/**
 * Build and run one cell through ExperimentRunner::prepareCell and
 * System. @p counts (optional) accumulates the finished System's
 * layer counters.
 */
CellRun runCell(ExperimentRunner &runner, const std::string &scheme,
                const WorkloadProfile &wp, Counts *counts);

/** cellJsonRecord of a finished cell with its wall_ms field removed. */
std::string recordWithoutWallMs(CellResult cell);

/** Golden records of @p w (one line per cell, cell order). */
std::string goldenPath(const std::string &dir, const WorkloadDef &w);
std::vector<std::string> readGolden(const std::string &path);

/**
 * Correctness gate for one cell: completion and the conservation
 * invariants always; on kGoldenSeed also the golden record. Returns
 * an empty string on success, else the reason.
 */
std::string checkCell(const WorkloadDef &w, std::uint64_t seed,
                      const CellRun &cell, const std::string *golden);

/**
 * Host slowdown against the reference host: the time of two fixed
 * standard-library kernels (an in-cache sort and a hash-map mix) over
 * their time on the host the benchmark was tuned on, geometric mean.
 * That shared host runs the same code up to ~1.6x slower for minutes
 * at a time, depending on neighbouring load; dividing a host time
 * measured beside it by this factor gives the time at reference speed.
 */
double hostSlowdown();

/**
 * Standalone HbmStack kernel: host ns per core cycle of enqueue+tick
 * at @p accesses_per_cycle arrivals with @p write_frac writes.
 */
double hbmTickNs(double accesses_per_cycle, double write_frac,
                 std::uint64_t seed, Cycle cycles);

} // namespace eqx::e2e

#endif // EQX_E2E_BENCH_BENCH_HH
