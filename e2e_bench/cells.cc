#include "bench.hh"

#include <algorithm>
#include <chrono>
#include <fstream>

#include "common/logging.hh"
#include "runner/stream_seed.hh"
#include "schemes/scheme_registry.hh"

namespace eqx::e2e {

namespace {

double
elapsedNs(std::chrono::steady_clock::time_point since)
{
    return std::chrono::duration<double, std::nano>(
               std::chrono::steady_clock::now() - since)
        .count();
}

std::vector<WorkloadDef>
makeWorkloads()
{
    std::vector<WorkloadDef> ws;

    // The paper's setup: every layer works, bfs drives HBM row
    // conflicts, DA2Mesh runs nine networks.
    WorkloadDef closed;
    closed.name = "closed-8x8";
    closed.side = 8;
    closed.schemes = {"SeparateBase", "EquiNox", "DA2Mesh"};
    closed.benchmarks = {"kmeans", "bfs"};
    closed.instScale = 0.2;
    closed.paperSpeedup = 1.23;
    ws.push_back(closed);

    // 16x16 with the same eight CBs: NoC- and PE-heavy, and the only
    // workload whose set-up is dominated by design-flow searches.
    // EquiNox-Torus is the only cell on the wrap/dateline path.
    WorkloadDef scale;
    scale.name = "scale-16x16";
    scale.side = 16;
    scale.schemes = {"SeparateBase", "EquiNox", "EquiNox-Torus"};
    scale.benchmarks = {"kmeans"};
    scale.instScale = 0.06;
    scale.paperSpeedup = 1.30;
    ws.push_back(scale);

    // Open-loop diurnal storm at a rate that drops nothing: no PEs,
    // idle routers skipped, per-cycle fixed overhead exposed.
    WorkloadDef storm;
    storm.name = "storm-light";
    storm.side = 8;
    storm.schemes = {"SeparateBase", "EquiNox"};
    storm.benchmarks = {"storm-diurnal"};
    storm.traffic.model = "storm-diurnal";
    storm.traffic.stormRatePerK = 2.0;
    ws.push_back(storm);
    return ws;
}

/** Reply topology each design-using scheme deploys (DESIGN.md §17). */
TopoSpec
designTopo(const std::string &scheme)
{
    if (scheme == "EquiNox-Torus")
        return {TopologyKind::Torus, 1};
    return {};
}

} // namespace

std::uint64_t
roundSeed(std::uint64_t seed, int round)
{
    return round == 0 ? seed
                      : deriveStreamSeed(seed, "e2e-round",
                                         static_cast<std::uint64_t>(round));
}

const WorkloadDef &
workloadDef(const std::string &name)
{
    static const std::vector<WorkloadDef> ws = makeWorkloads();
    std::string keys;
    for (const auto &w : ws) {
        if (w.name == name)
            return w;
        keys += (keys.empty() ? "" : ", ") + w.name;
    }
    eqx_fatal("unknown workload '", name, "' (known: ", keys, ")");
}

PinnedDesigns
buildDesigns(const WorkloadDef &w)
{
    PinnedDesigns pd;
    for (const auto &scheme : w.schemes) {
        if (!SchemeRegistry::instance().byName(scheme).usesEquiNoxDesign())
            continue;
        DesignParams dp;
        dp.width = dp.height = w.side;
        dp.topo = designTopo(scheme);
        auto t0 = std::chrono::steady_clock::now();
        EquiNoxDesign d = buildEquiNoxDesign(dp);
        pd.seconds += elapsedNs(t0) * 1e-9;
        pd.evaluations += d.evaluations;
        pd.byScheme.emplace(scheme, std::move(d));
    }
    return pd;
}

ExperimentConfig
experimentFor(const WorkloadDef &w, std::uint64_t seed,
              const PinnedDesigns &designs)
{
    ExperimentConfig ec;
    ec.width = ec.height = w.side;
    ec.seed = seed;
    ec.schemes = w.schemes;
    ec.workloads = profilesOf(w);
    ec.instScale = w.instScale;
    ec.traffic = w.traffic;
    ec.workers = 1;
    // Pin each scheme's own design: ExperimentRunner::equinoxDesign()
    // would hand every design-using scheme one mesh-scored design.
    ec.tweak = [&designs](SystemConfig &sc) {
        auto it = designs.byScheme.find(sc.schemeKey);
        if (it != designs.byScheme.end())
            sc.preDesign = &it->second;
    };
    return ec;
}

std::vector<WorkloadProfile>
profilesOf(const WorkloadDef &w)
{
    std::vector<WorkloadProfile> ps;
    for (const auto &b : w.benchmarks) {
        if (w.openLoop()) {
            // Storm endpoints replace the PEs; the profile only names
            // the cell.
            WorkloadProfile wp;
            wp.name = b;
            ps.push_back(wp);
        } else {
            ps.push_back(eqx::workloadByName(b));
        }
    }
    return ps;
}

void
Counts::add(const System &sys, const RunResult &r)
{
    cycles += static_cast<double>(r.cycles);
    skipped += static_cast<double>(sys.cyclesSkipped());
    for (int i = 0; i < sys.numNetworks(); ++i) {
        const Network &net = sys.network(i);
        bool reply = isReplyNetwork(net);
        double sa_req = 0, sa_grant = 0;
        for (NodeId n = 0; n < net.numRouters(); ++n) {
            sa_req += static_cast<double>(net.router(n).saRequests());
            sa_grant += static_cast<double>(net.router(n).saGrants());
        }
        auto flits = static_cast<double>(net.activity().bufferWrites);
        if (reply) {
            repFlits += flits;
            repInterposerFlits +=
                static_cast<double>(net.activity().interposerLinkFlits);
            repSaReq += sa_req;
            repSaGrant += sa_grant;
        } else {
            reqFlits += flits;
            reqSaReq += sa_req;
            reqSaGrant += sa_grant;
        }
    }
    reqQueueNs += r.reqQueueNs * static_cast<double>(r.reqPackets);
    reqPackets += static_cast<double>(r.reqPackets);
    repQueueNs += r.repQueueNs * static_cast<double>(r.repPackets);
    repPackets += static_cast<double>(r.repPackets);
    maxEirLoad =
        std::max(maxEirLoad, static_cast<double>(r.maxEirLoadPackets));

    for (int i = 0; i < sys.numPes(); ++i) {
        const StatGroup &s = sys.pe(i).stats();
        peInsts += static_cast<double>(sys.pe(i).instsIssued());
        double hits = s.get("l1_read_hits");
        l1Hits += hits;
        l1Accesses +=
            hits + s.get("l1_read_merges") + s.get("l1_read_misses");
        peStallInject += s.get("stall_inject");
        peStallMshrFull += s.get("stall_mshr_full");
    }
    for (int i = 0; i < sys.numCacheBanks(); ++i) {
        const StatGroup &s = sys.cacheBank(i).stats();
        double hits = s.get("l2_read_hits") + s.get("l2_write_hits");
        l2Hits += hits;
        l2Accesses += hits + s.get("l2_read_misses") +
                      s.get("l2_write_misses") + s.get("l2_miss_merges");
        cbStallReply += s.get("stall_reply_queue");
        cbStallHbm += s.get("stall_hbm_queue");
        const StatGroup &h = sys.cacheBank(i).hbm().stats();
        hbmReads += h.get("reads");
        hbmWrites += h.get("writes");
        hbmRowHits += h.get("row_hits");
        hbmIssued +=
            h.get("row_hits") + h.get("row_conflicts") + h.get("row_empty");
    }
    cbCycles += sys.numCacheBanks() * static_cast<double>(r.cycles);
    stormOffered += static_cast<double>(r.stormOffered);
    stormDelivered += static_cast<double>(r.stormDelivered);
    stormDropped += static_cast<double>(r.stormDropped);
}

CellRun
runCell(ExperimentRunner &runner, const std::string &scheme,
        const WorkloadProfile &wp, Counts *counts)
{
    CellRun c;
    c.scheme = SchemeRegistry::instance().byName(scheme).name();
    c.benchmark = wp.name;
    try {
        PreparedCell pc = runner.prepareCell(scheme, wp);
        auto t0 = std::chrono::steady_clock::now();
        System sys(pc.sc, pc.wp);
        c.buildNs = elapsedNs(t0);
        t0 = std::chrono::steady_clock::now();
        c.result = sys.run();
        c.runNs = elapsedNs(t0);
        c.signature = signatureOf(sys);
        if (counts)
            counts->add(sys, c.result);
    } catch (const std::exception &e) {
        c.error = e.what();
    }
    CellResult cr;
    cr.scheme = c.scheme;
    cr.benchmark = c.benchmark;
    cr.result = c.result;
    cr.failed = !c.result.completed;
    cr.error = c.error;
    c.record = recordWithoutWallMs(cr);
    return c;
}

std::string
recordWithoutWallMs(CellResult cell)
{
    cell.wallMs = 0;
    std::string rec = cellJsonRecord(cell);
    const std::string field = "\"wall_ms\":0,";
    std::size_t at = rec.find(field);
    eqx_assert(at != std::string::npos, "record lacks wall_ms: ", rec);
    return rec.erase(at, field.size());
}

std::string
goldenPath(const std::string &dir, const WorkloadDef &w)
{
    return dir + "/" + w.name + ".jsonl";
}

std::vector<std::string>
readGolden(const std::string &path)
{
    std::vector<std::string> lines;
    std::ifstream in(path);
    for (std::string line; std::getline(in, line);)
        if (!line.empty())
            lines.push_back(line);
    return lines;
}

std::string
checkCell(const WorkloadDef &w, std::uint64_t seed, const CellRun &cell,
          const std::string *golden)
{
    const RunResult &r = cell.result;
    if (!cell.error.empty())
        return "threw: " + cell.error;
    if (!r.completed)
        return "did not complete";
    if (w.openLoop()) {
        if (r.stormOffered != r.stormInjected + r.stormDropped)
            return "storm offered != injected + dropped";
        if (r.stormDelivered != r.stormInjected)
            return "storm delivered != injected";
    } else if (r.reqPackets != r.repPackets) {
        return "request packets != reply packets";
    }
    if (seed == kGoldenSeed) {
        if (!golden)
            return "no golden record";
        if (*golden != cell.record)
            return "record differs from golden:\n  got    " +
                   cell.record + "\n  golden " + *golden;
    }
    return {};
}

} // namespace eqx::e2e
