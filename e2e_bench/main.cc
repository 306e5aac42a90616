/**
 * @file
 * End-to-end simulator benchmark program. Runs one workload's cell
 * matrix through ExperimentRunner::prepareCell -> System, serially,
 * in repeated passes for a fixed host-time budget, checks every cell,
 * and prints each metric by name and unit followed by one JSON
 * result line. --trace 1 instead reruns every cell through the
 * traced replica and reports the per-layer split. See README.md.
 *
 *   e2e_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--golden-dir <dir>] [--bless]
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench.hh"
#include "common/logging.hh"
#include "schemes/scheme_registry.hh"

using namespace eqx;
using namespace eqx::e2e;

namespace {

struct Args
{
    std::string workload;
    std::uint64_t seed = kGoldenSeed;
    double seconds = 30;
    bool trace = false;
    std::string goldenDir = "e2e_bench/golden";
    bool bless = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "e2e_bench: %s\nusage: e2e_bench --workload <name> "
                 "--seed <n> --seconds <s> --trace <0|1> "
                 "[--golden-dir <dir>] [--bless]\n",
                 why.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        std::string k = argv[i];
        if (k == "--bless") {
            a.bless = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + k);
        std::string v = argv[++i];
        char *end = nullptr;
        if (k == "--workload") {
            a.workload = v;
            have_workload = true;
        } else if (k == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end)
                usage("bad --seed " + v);
        } else if (k == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end || !(a.seconds > 0))
                usage("bad --seconds " + v);
        } else if (k == "--trace") {
            if (v != "0" && v != "1")
                usage("bad --trace " + v);
            a.trace = v == "1";
        } else if (k == "--golden-dir") {
            a.goldenDir = v;
        } else {
            usage("unknown argument " + k);
        }
    }
    if (!have_workload)
        usage("--workload is required");
    if (a.bless && a.seed != kGoldenSeed)
        usage("--bless records goldens for the default seed only");
    return a;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

double
peakRssMiB()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Per-pass host timings; medians over passes are reported. */
struct PassTimes
{
    double setupS = 0;   ///< design flow + every System::System
    double designS = 0;  ///< buildEquiNoxDesign, all designs
    double buildS = 0;   ///< every System::System
    double runS = 0;     ///< every System::run
    double cycles = 0;
    double slowdown = 1; ///< hostSlowdown() around the pass
    // Traced run only.
    LayerTimes layers;   ///< summed over cells
};

/** A host time of pass @p p at reference host speed. */
double
atRef(const PassTimes &p, double t)
{
    return t / p.slowdown;
}

/** Everything one benchmark invocation accumulates. */
struct Run
{
    const WorkloadDef *w = nullptr;
    Args args;
    std::vector<std::string> golden; ///< kRounds x cells, round-major
    std::vector<CellRun> rotation;   ///< the first kRounds passes' cells
    Counts counts;                   ///< over the rotation
    std::vector<PassTimes> passes;
    std::uint64_t evaluations = 0;
    int attempted = 0;
    int failed = 0;

    void
    fail(const std::string &what, const std::string &why)
    {
        ++failed;
        std::fprintf(stderr, "FAIL %s: %s\n", what.c_str(), why.c_str());
    }
};

/**
 * One pass over round (pass % kRounds): pin designs, then build, run
 * and check every cell, and in a traced run replay it traced.
 */
void
runPass(Run &run)
{
    const WorkloadDef &w = *run.w;
    const std::size_t pass = run.passes.size();
    const int round = static_cast<int>(pass % kRounds);
    const bool first_rotation = pass < static_cast<std::size_t>(kRounds);
    const bool traced_first = pass % 2 == 1;
    PassTimes p;
    const double slowdown_before = hostSlowdown();

    PinnedDesigns designs = buildDesigns(w);
    p.designS = designs.seconds;
    run.evaluations = designs.evaluations;
    ExperimentRunner runner(
        experimentFor(w, roundSeed(run.args.seed, round), designs));

    const std::size_t per_round =
        runner.config().workloads.size() * w.schemes.size();
    std::size_t idx = static_cast<std::size_t>(round) * per_round;
    for (const auto &wp : runner.config().workloads) {
        for (const auto &scheme : w.schemes) {
            // Traced and untraced runs alternate which goes first, so
            // neither always inherits the other's warm caches.
            LayerTimes lt;
            CellSignature traced_sig;
            std::string traced_error;
            auto traced = [&] {
                try {
                    PreparedCell pc = runner.prepareCell(scheme, wp);
                    TracedCell tc(pc.sc, pc.wp);
                    lt = tc.run();
                    traced_sig = tc.signature();
                } catch (const std::exception &e) {
                    traced_error = e.what();
                }
            };
            if (run.args.trace && traced_first)
                traced();
            CellRun c = runCell(runner, scheme, wp,
                                first_rotation ? &run.counts : nullptr);
            if (run.args.trace && !traced_first)
                traced();

            std::string what = w.name + "/round" + std::to_string(round) +
                               "/" + c.benchmark + "/" + c.scheme;
            ++run.attempted;
            const std::string *golden =
                idx < run.golden.size() ? &run.golden[idx] : nullptr;
            // --bless records this run as the golden, so the cell is
            // its own reference.
            std::string why = checkCell(w, run.args.seed, c,
                                        run.args.bless ? &c.record
                                                       : golden);
            if (why.empty() && !first_rotation &&
                c.record != run.rotation[idx].record)
                why = "record differs from the first rotation";
            if (!why.empty())
                run.fail(what, why);

            if (run.args.trace) {
                ++run.attempted;
                if (!traced_error.empty())
                    run.fail(what + " (traced)", "threw: " + traced_error);
                else if (traced_sig != c.signature)
                    run.fail(what + " (traced)",
                             "traced run diverged: " + traced_sig.str() +
                                 " vs untraced " + c.signature.str());
                for (std::size_t l = 0; l < lt.selfNs.size(); ++l)
                    p.layers.selfNs[l] += lt.selfNs[l];
                p.layers.loopNs += lt.loopNs;
            }

            p.buildS += c.buildNs * 1e-9;
            p.runS += c.runNs * 1e-9;
            p.cycles += static_cast<double>(c.result.cycles);
            if (first_rotation)
                run.rotation.push_back(std::move(c));
            ++idx;
        }
    }
    p.setupS = p.designS + p.buildS;
    p.slowdown = 0.5 * (slowdown_before + hostSlowdown());
    run.passes.push_back(p);
}

template <class F>
double
medianOf(const Run &run, F f)
{
    std::vector<double> v;
    for (const auto &p : run.passes)
        v.push_back(f(p));
    return median(v);
}

/** Geomean of @p f over the rotation's cells that @p pick selects. */
template <class P, class F>
double
geomean(const Run &run, P pick, F f)
{
    double log_sum = 0;
    int n = 0;
    for (const auto &c : run.rotation)
        if (pick(c) && f(c.result) > 0) {
            log_sum += std::log(f(c.result));
            ++n;
        }
    return n ? std::exp(log_sum / n) : 0;
}

std::vector<Metric>
endToEndMetrics(const Run &run)
{
    const WorkloadDef &w = *run.w;
    auto scheme_is = [](const char *name) {
        return [name](const CellRun &c) { return c.scheme == name; };
    };
    auto ipc = [](const RunResult &r) { return r.ipc; };
    auto latency = [](const RunResult &r) { return r.totalLatencyNs(); };
    // Closed loop: EquiNox's IPC speedup. Open loop has no IPC, so
    // the same name carries EquiNox's mean packet-latency speedup.
    double speedup =
        w.openLoop()
            ? ratio(geomean(run, scheme_is("SeparateBase"), latency),
                    geomean(run, scheme_is("EquiNox"), latency))
            : ratio(geomean(run, scheme_is("EquiNox"), ipc),
                    geomean(run, scheme_is("SeparateBase"), ipc));
    auto equinox_family = [](const CellRun &c) {
        return SchemeRegistry::instance()
            .byName(c.scheme)
            .usesEquiNoxDesign();
    };
    double rep_p99 = geomean(run, equinox_family, [](const RunResult &r) {
        return r.repP99Ns;
    });
    double cycles = 0;
    for (const auto &c : run.rotation)
        cycles += static_cast<double>(c.result.cycles);

    return {
        {"ns_per_cycle",
         medianOf(run,
                  [](const PassTimes &p) {
                      return ratio(atRef(p, p.runS) * 1e9, p.cycles);
                  }),
         "ns"},
        {"setup_s",
         medianOf(run, [](const PassTimes &p) { return atRef(p, p.setupS); }),
         "s"},
        {"wall_s",
         medianOf(run,
                  [](const PassTimes &p) {
                      return atRef(p, p.setupS + p.runS);
                  }),
         "s"},
        {"peak_rss_mb", peakRssMiB(), "MiB"},
        {"pass_ratio",
         1.0 - ratio(run.failed, static_cast<double>(run.attempted)),
         "ratio"},
        {"sim_cycles", cycles, "cycles"},
        {"eqx_speedup", speedup, "x"},
        {"rep_p99_ns", rep_p99, "sim_ns"},
    };
}

std::vector<Metric>
perLayerMetrics(const Run &run)
{
    const Counts &k = run.counts;
    std::vector<Metric> m;
    for (int l = 0; l < kNumLayers; ++l)
        m.push_back({std::string(layerName(static_cast<Layer>(l))) +
                         ".ns_per_cycle",
                     medianOf(run,
                              [l](const PassTimes &p) {
                                  return ratio(atRef(p, p.layers.selfNs[l]),
                                               p.cycles);
                              }),
                     "ns"});
    double design_s = medianOf(
        run, [](const PassTimes &p) { return atRef(p, p.designS); });
    // The HBM kernel replays the rotation's measured per-CB arrival
    // rate and write mix; five repeats, median.
    std::vector<double> hbm;
    for (int i = 0; i < 5; ++i) {
        double before = hostSlowdown();
        double ns = hbmTickNs(ratio(k.hbmReads + k.hbmWrites, k.cbCycles),
                              ratio(k.hbmWrites, k.hbmReads + k.hbmWrites),
                              run.args.seed, 200'000);
        hbm.push_back(ns / (0.5 * (before + hostSlowdown())));
    }
    double hbm_tick_ns = median(hbm);
    m.insert(
        m.end(),
        {
            {"memory.hbm.tick_ns", hbm_tick_ns, "ns"},
            {"core.design_flow_s", design_s, "s"},
            {"core.evals_per_s",
             ratio(static_cast<double>(run.evaluations), design_s), "1/s"},
            {"sim.build_ms",
             medianOf(run,
                      [](const PassTimes &p) {
                          return atRef(p, p.buildS) * 1e3;
                      }),
             "ms"},
            {"trace.overhead_pct",
             medianOf(run,
                      [](const PassTimes &p) {
                          return 100 * (ratio(p.layers.loopNs * 1e-9,
                                              p.runS) -
                                        1);
                      }),
             "%"},
            {"trace.uncovered_pct",
             medianOf(run,
                      [](const PassTimes &p) {
                          double covered = 0;
                          for (double s : p.layers.selfNs)
                              covered += s;
                          return 100 * ratio(p.layers.loopNs - covered,
                                             p.layers.loopNs);
                      }),
             "%"},
            {"sim.cycles_skipped_frac", ratio(k.skipped, k.cycles),
             "ratio"},
            {"noc.request.flits", k.reqFlits, "count"},
            {"noc.reply.flits", k.repFlits, "count"},
            {"noc.reply.interposer_flits", k.repInterposerFlits, "count"},
            {"noc.request.sa_grant_ratio", ratio(k.reqSaGrant, k.reqSaReq),
             "ratio"},
            {"noc.reply.sa_grant_ratio", ratio(k.repSaGrant, k.repSaReq),
             "ratio"},
            {"noc.req_queue_ns", ratio(k.reqQueueNs, k.reqPackets),
             "sim_ns"},
            {"noc.rep_queue_ns", ratio(k.repQueueNs, k.repPackets),
             "sim_ns"},
            {"noc.max_eir_load", k.maxEirLoad, "count"},
            {"gpu.pe.insts", k.peInsts, "count"},
            {"gpu.pe.l1_hit_ratio", ratio(k.l1Hits, k.l1Accesses), "ratio"},
            {"gpu.pe.stall_inject", k.peStallInject, "count"},
            {"gpu.pe.stall_mshr_full", k.peStallMshrFull, "count"},
            {"gpu.cb.l2_hit_ratio", ratio(k.l2Hits, k.l2Accesses), "ratio"},
            {"gpu.cb.stall_reply_queue", k.cbStallReply, "count"},
            {"gpu.cb.stall_hbm_queue", k.cbStallHbm, "count"},
            {"memory.hbm.accesses", k.hbmReads + k.hbmWrites, "count"},
            {"memory.hbm.row_hit_ratio", ratio(k.hbmRowHits, k.hbmIssued),
             "ratio"},
            {"traffic.storm.delivered_ratio",
             ratio(k.stormDelivered, k.stormOffered), "ratio"},
            {"traffic.storm.dropped", k.stormDropped, "count"},
            {"core.evaluations", static_cast<double>(run.evaluations),
             "count"},
        });
    return m;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        v = 0;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void
writeGolden(const Run &run)
{
    std::string path = goldenPath(run.args.goldenDir, *run.w);
    std::ofstream out(path);
    for (const auto &c : run.rotation)
        out << c.record << '\n';
    if (!out)
        eqx_fatal("cannot write golden file ", path);
    std::fprintf(stderr, "wrote %zu golden records to %s\n",
                 run.rotation.size(), path.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    Run run;
    run.args = parseArgs(argc, argv);
    try {
        run.w = &workloadDef(run.args.workload);
    } catch (const std::exception &e) {
        usage(e.what());
    }
    const WorkloadDef &w = *run.w;
    if (run.args.seed == kGoldenSeed && !run.args.bless) {
        run.golden = readGolden(goldenPath(run.args.goldenDir, w));
        if (run.golden.empty()) {
            std::fprintf(stderr, "e2e_bench: no golden records at %s\n",
                         goldenPath(run.args.goldenDir, w).c_str());
            return 1;
        }
    }

    std::printf("e2e_bench: workload %s, seed %llu, %s run, %.0f s "
                "budget\n",
                w.name.c_str(),
                static_cast<unsigned long long>(run.args.seed),
                run.args.trace ? "traced" : "untraced", run.args.seconds);
    auto t0 = std::chrono::steady_clock::now();
    do {
        runPass(run);
    } while (secondsSince(t0) < run.args.seconds ||
             run.passes.size() < static_cast<std::size_t>(kRounds));
    if (run.args.bless)
        writeGolden(run);

    std::vector<Metric> metrics =
        run.args.trace ? perLayerMetrics(run) : endToEndMetrics(run);
    std::printf("%zu passes (%d traffic rounds) x %zu cells, %d attempted, "
                "%d failed\n",
                run.passes.size(), kRounds, run.rotation.size() / kRounds,
                run.attempted, run.failed);
    for (const auto &m : metrics)
        std::printf("  %-32s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("  (host times above are at reference speed; this host "
                "ran at a median slowdown of %.3f, raw ns_per_cycle "
                "%.1f)\n",
                medianOf(run, [](const PassTimes &p) { return p.slowdown; }),
                medianOf(run, [](const PassTimes &p) {
                    return ratio(p.runS * 1e9, p.cycles);
                }));
    if (!run.args.trace) {
        std::printf("  %-32s %16.6f %s\n", "fail_ratio",
                    ratio(run.failed, static_cast<double>(run.attempted)),
                    "ratio");
        if (w.paperSpeedup > 0)
            std::printf("  (paper fig12 eqx_speedup at %dx%d: %.2fx, "
                        "29-benchmark geomean)\n",
                        w.side, w.side, w.paperSpeedup);
    }

    std::string json = "{\"correct\": ";
    json += run.failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(run.attempted);
    json += ", \"failed\": " + std::to_string(run.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        if (i)
            json += ", ";
        json += "\"" + metrics[i].name + "\": {\"value\": " +
                jsonNumber(metrics[i].value) + ", \"unit\": \"" +
                metrics[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}
