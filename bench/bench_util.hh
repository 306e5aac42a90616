/**
 * @file
 * Shared helpers for the bench harness: key=value argument parsing and
 * run-scale defaults. Every bench binary accepts:
 *   scale=<f>     instruction-count scale (default varies per bench)
 *   benchmarks=<n> use only the first n workloads
 *   seed=<n>
 *   scheme=<key>[,<key>...]  restrict the sweep to these schemes
 *                 (SchemeRegistry names or aliases, any case; an
 *                 unknown key aborts listing the registered schemes)
 * and the matrix benches additionally accept the sweep-engine knobs:
 *   workers=<n>   pool worker threads (default 0 = all hardware
 *                 threads; results are identical for any value)
 *   timeout=<s>   per-job wall-clock timeout, 0 = off
 *   retries=<n>   retries after a non-completed attempt
 *   progress=1    stderr progress ticker
 *   jsonl=<path>  stream per-cell JSONL records
 *   warmup=<n>    reset NoC stats at core cycle n (0 = off)
 *   metrics=1     per-router/per-NI observability snapshot per cell
 * and the sweep-fabric knobs (src/sweep, see DESIGN.md §13):
 *   cache=<dir>   consult/populate the content-addressed cell cache;
 *                 a repeated run serves every cell without simulating
 *   journal=<p>   write-ahead journal: one record per finished cell
 *   resume=1     recover an existing journal instead of truncating it
 *   shard=<i/N>   run only this shard's cells (deterministic split;
 *                 merge the journals with `sweep merge=...`)
 *

 * and the traffic-model knobs (src/traffic, see DESIGN.md §16):
 *   traffic=<key>      TrafficRegistry model (synthetic, storm-diurnal,
 *                      storm-flash, storm-hotspot, coherence, or an
 *                      alias; an unknown key aborts listing the
 *                      registered models)
 *   trace=<spec>       capture:<path> and/or replay:<path>, comma
 *                      separated (closed-loop models only)
 *   storm_rate=<f>     offered arrivals / 1000 cycles / endpoint
 *   storm_horizon=<n>  arrival-generation window in core cycles
 *   storm_queue=<n>    per-endpoint backlog cap (drops beyond = loss)
 *   storm_trough=<f>   off-peak rate fraction (diurnal/flash)
 *   storm_write=<f>    write fraction of storm requests
 *   storm_hot_cbs=<n>  hotspot: CBs the hot fraction concentrates on
 *   storm_hot_frac=<f> hotspot: fraction aimed at the hot CBs
 *   coh_vcs=<n>        dedicated coherence-class VCs (classVcs
 *                      networks; needs vcsPerPort >= n + 2)
 *   coh_region=<n>     cache lines per tracked sharer region
 *
 * Fault-campaign benches additionally accept (see EXPERIMENTS.md):
 *   fault_rate=<f>     expected fault events / 1000 ticks / network
 *   fault_types=<s>    stall,corrupt,link_kill,router_kill or the
 *                      groups transient / permanent / all
 *   retx_timeout=<n>   initial end-to-end retransmission timeout
 *   retx_max=<n>       attempts before a packet is declared lost
 *                      (0 = unlimited)
 *   fault_seed=<n>     fault stream seed (0 = derive from seed=)
 *   fault_horizon=<n>  tick range random fault times are drawn from
 *   detect_latency=<n> kill-to-port-mask detection delay in ticks
 *   ack_latency=<n>    out-of-band ack path latency in ticks
 */

#ifndef EQX_BENCH_UTIL_HH
#define EQX_BENCH_UTIL_HH

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/logging.hh"
#include "sim/experiment.hh"
#include "sweep/shard.hh"
#include "sweep/sweep_runner.hh"
#include "traffic/traffic_registry.hh"

namespace eqx {

inline Config
parseBenchArgs(int argc, char **argv)
{
    Config cfg;
    std::vector<std::string> toks;
    for (int i = 1; i < argc; ++i)
        toks.emplace_back(argv[i]);
    cfg.parseArgs(toks);
    return cfg;
}

/**
 * Parse a comma-separated scheme= list into registry keys. Lookup is
 * case-insensitive over names and aliases; unknown keys are fatal and
 * print the registered key list. Returns canonical names.
 */
inline std::vector<std::string>
parseSchemeList(const std::string &spec)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= spec.size()) {
        std::size_t comma = spec.find(',', start);
        std::string key =
            spec.substr(start, comma == std::string::npos
                                   ? std::string::npos
                                   : comma - start);
        if (!key.empty())
            out.push_back(SchemeRegistry::instance().byName(key).name());
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    if (out.empty())
        eqx_fatal("empty scheme list; registered schemes: ",
                  SchemeRegistry::instance().keyList());
    return out;
}

/** Apply the shared scheme= restriction, when given. */
inline void
applySchemeArg(ExperimentConfig &ec, const Config &cfg)
{
    std::string spec = cfg.getString("scheme", "");
    if (!spec.empty())
        ec.schemes = parseSchemeList(spec);
}

/**
 * Apply the shared traffic-model arguments. traffic= is validated
 * against the TrafficRegistry up front (fatal with the key list on an
 * unknown model) and stored canonically; every other knob defaults to
 * the current TrafficConfig value, so an untouched command line leaves
 * the config — and therefore the sweep digest and record schema —
 * byte-identical to a pre-traffic build.
 */
inline void
applyTrafficArgs(TrafficConfig &tc, const Config &cfg)
{
    std::string model = cfg.getString("traffic", "");
    if (!model.empty())
        tc.model = TrafficRegistry::instance().byName(model).name();
    tc.trace = cfg.getString("trace", tc.trace);
    tc.stormRatePerK = cfg.getDouble("storm_rate", tc.stormRatePerK);
    long horizon = cfg.getInt("storm_horizon",
                              static_cast<long>(tc.stormHorizon));
    if (horizon < 1) // before the cast, which would wrap a negative
        eqx_fatal("storm_horizon must be >= 1 cycle, got ", horizon);
    tc.stormHorizon = static_cast<std::uint64_t>(horizon);
    tc.stormQueueCap =
        static_cast<int>(cfg.getInt("storm_queue", tc.stormQueueCap));
    tc.stormTrough = cfg.getDouble("storm_trough", tc.stormTrough);
    tc.stormWriteFrac = cfg.getDouble("storm_write", tc.stormWriteFrac);
    tc.stormHotCbs =
        static_cast<int>(cfg.getInt("storm_hot_cbs", tc.stormHotCbs));
    tc.stormHotFrac = cfg.getDouble("storm_hot_frac", tc.stormHotFrac);
    tc.coherenceVcs =
        static_cast<int>(cfg.getInt("coh_vcs", tc.coherenceVcs));
    tc.cohRegionLines =
        static_cast<int>(cfg.getInt("coh_region", tc.cohRegionLines));
}

/** Apply the shared sweep-engine arguments to a matrix experiment. */
inline void
applySweepArgs(ExperimentConfig &ec, const Config &cfg)
{
    applySchemeArg(ec, cfg);
    applyTrafficArgs(ec.traffic, cfg);
    ec.workers = static_cast<int>(cfg.getInt("workers", 0));
    ec.jobTimeoutSec = cfg.getDouble("timeout", 0);
    ec.jobRetries = static_cast<int>(cfg.getInt("retries", 1));
    ec.progress = cfg.getBool("progress", false);
    ec.jsonlPath = cfg.getString("jsonl", "");
    ec.warmupCycles = static_cast<Cycle>(cfg.getInt("warmup", 0));
    ec.collectMetrics = cfg.getBool("metrics", false);
}

/** Parse the sweep-fabric arguments (cache= journal= resume= shard=). */
inline SweepOptions
parseFabricArgs(const Config &cfg)
{
    SweepOptions so;
    so.cacheDir = cfg.getString("cache", "");
    so.journalPath = cfg.getString("journal", "");
    so.resume = cfg.getBool("resume", false);
    std::string shard = cfg.getString("shard", "");
    if (!shard.empty() &&
        !parseShardSpec(shard, so.shardIndex, so.shardCount))
        eqx_fatal("bad shard= spec '", shard,
                  "' (want i/N with 0 <= i < N)");
    if (so.resume && so.journalPath.empty())
        eqx_fatal("resume=1 needs journal=<path>");
    return so;
}

/**
 * Run the matrix, through the sweep fabric when any of its knobs is
 * set (printing the served/simulated split) and directly otherwise.
 */
inline std::vector<CellResult>
runMatrixOrSweep(const ExperimentConfig &ec, const SweepOptions &so)
{
    if (!so.enabled()) {
        ExperimentRunner runner(ec);
        return runner.runMatrix();
    }
    SweepOutcome out = runSweep(ec, so);
    std::printf("sweep fabric: %zu/%zu cells (shard %d/%d), "
                "%zu journal + %zu cache served, %zu simulated, "
                "%zu failed\n",
                out.shardCells, out.totalCells, so.shardIndex,
                so.shardCount, out.journalHits, out.cacheHits,
                out.simulated, out.failed);
    return std::move(out.cells);
}

inline std::vector<CellResult>
runMatrixOrSweep(const ExperimentConfig &ec, const Config &cfg)
{
    return runMatrixOrSweep(ec, parseFabricArgs(cfg));
}

/** Apply the fault-injection arguments to a fault config. */
inline void
applyFaultArgs(FaultConfig &fc, const Config &cfg)
{
    fc.ratePerKTick = cfg.getDouble("fault_rate", fc.ratePerKTick);
    std::string types = cfg.getString("fault_types", "");
    if (!types.empty() && !parseFaultKinds(types, fc.kinds))
        eqx_fatal("unknown fault_types spec: '", types, "'");
    fc.retxTimeout = static_cast<Cycle>(
        cfg.getInt("retx_timeout", static_cast<long>(fc.retxTimeout)));
    fc.retxMax = static_cast<int>(cfg.getInt("retx_max", fc.retxMax));
    fc.seed = static_cast<std::uint64_t>(
        cfg.getInt("fault_seed", static_cast<long>(fc.seed)));
    fc.horizonTicks = static_cast<Cycle>(cfg.getInt(
        "fault_horizon", static_cast<long>(fc.horizonTicks)));
    fc.detectLatency = static_cast<Cycle>(cfg.getInt(
        "detect_latency", static_cast<long>(fc.detectLatency)));
    fc.ackLatency = static_cast<Cycle>(
        cfg.getInt("ack_latency", static_cast<long>(fc.ackLatency)));
}

/**
 * Per-scheme observability digest printed by the matrix benches when
 * metrics=1: hottest router, credit-stall totals and the measured
 * max-EIR load next to the MCTS-predicted one.
 */
inline void
printMetricsDigest(const std::vector<CellResult> &cells,
                   const std::vector<std::string> &schemes)
{
    std::printf("\nobservability digest (metrics=1)\n");
    std::printf("%-18s %12s %14s %14s %12s\n", "scheme", "hot-router",
                "hot-flits", "credit-stalls", "max-eir-load");
    for (const std::string &s : schemes) {
        int hot_router = -1;
        double hot_flits = 0, stalls = 0;
        std::uint64_t max_eir = 0;
        for (const auto &c : cells) {
            if (c.scheme != s)
                continue;
            max_eir = std::max(max_eir, c.result.maxEirLoadPackets);
            for (const auto &[k, v] : c.result.metrics.all()) {
                // keys look like "<net>.router.<id>.flits"
                auto r = k.find(".router.");
                if (r == std::string::npos)
                    continue;
                auto tail = k.substr(r + 8);
                auto dot = tail.find('.');
                if (dot == std::string::npos)
                    continue;
                if (tail.substr(dot) == ".flits" && v > hot_flits) {
                    hot_flits = v;
                    hot_router = std::atoi(tail.c_str());
                }
                if (tail.substr(dot) == ".credit_stall")
                    stalls += v;
            }
        }
        std::printf("%-18s %12d %14.0f %14.0f %12llu\n", s.c_str(),
                    hot_router, hot_flits, stalls,
                    static_cast<unsigned long long>(max_eir));
    }
}

inline void
printHeader(const char *title, const char *paper_ref)
{
    std::printf("==================================================\n");
    std::printf("%s\n", title);
    std::printf("reproduces: %s\n", paper_ref);
    std::printf("==================================================\n");
}

} // namespace eqx

#endif // EQX_BENCH_UTIL_HH
