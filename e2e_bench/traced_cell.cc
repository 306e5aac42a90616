#include "traced_cell.hh"

#include <algorithm>
#include <chrono>
#include <sstream>

#include "common/logging.hh"
#include "schemes/scheme_registry.hh"
#include "traffic/traffic_registry.hh"

namespace eqx::e2e {

namespace {

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Close the span that started at @p mark and open the next one. */
void
closeSpan(LayerTimes &t, Layer l, std::int64_t &mark)
{
    std::int64_t end = nowNs();
    t.selfNs[static_cast<std::size_t>(l)] +=
        static_cast<double>(end - mark);
    mark = end;
}

} // namespace

const char *
layerName(Layer l)
{
    switch (l) {
    case Layer::NocRequest:
        return "noc.request";
    case Layer::NocReply:
        return "noc.reply";
    case Layer::GpuCb:
        return "gpu.cb";
    case Layer::GpuPe:
        return "gpu.pe";
    case Layer::TrafficStorm:
        return "traffic.storm";
    case Layer::SimSkip:
        return "sim.skip";
    case Layer::SimFinished:
        return "sim.finished";
    case Layer::Count:
        break;
    }
    return "?";
}

std::string
CellSignature::str() const
{
    std::ostringstream os;
    os << "cycles=" << cycles << " skipped=" << skipped
       << " insts=" << insts << " buffer_writes=";
    for (auto v : bufferWrites)
        os << v << ',';
    os << " sa_grants=";
    for (auto v : saGrants)
        os << v << ',';
    return os.str();
}

CellSignature
signatureOf(const System &sys)
{
    CellSignature s;
    s.cycles = sys.now();
    s.skipped = sys.cyclesSkipped();
    for (int i = 0; i < sys.numPes(); ++i)
        s.insts += sys.pe(i).instsIssued();
    for (int i = 0; i < sys.numNetworks(); ++i) {
        s.bufferWrites.push_back(sys.network(i).activity().bufferWrites);
        s.saGrants.push_back(sys.network(i).activity().saGrants);
    }
    return s;
}

TracedCell::TracedCell(const SystemConfig &sc, const WorkloadProfile &wp)
    : cfg_(sc),
      model_(sc.schemeKey.empty()
                 ? &SchemeRegistry::instance().byEnum(sc.scheme)
                 : &SchemeRegistry::instance().byName(sc.schemeKey))
{
    // The replica covers the paths the benchmark workloads use; the
    // rest of System (faults, warmup reset, trace capture/replay,
    // coherence, cancellation) is refused rather than approximated.
    if (cfg_.fault.enabled() || cfg_.warmupCycles != 0 ||
        cfg_.exhaustiveNocTick || !cfg_.traffic.trace.empty() ||
        cfg_.cancel)
        eqx_fatal("traced cell: unsupported SystemConfig option");

    // System::buildPlacement
    designUsed_ = model_->placeCbs(cfg_, ownedDesign_, cbCoords_);
    for (const auto &c : cbCoords_)
        cbNodes_.push_back(static_cast<NodeId>(c.y * cfg_.width + c.x));

    // System::buildNetworks
    SchemeBuild build{cfg_, cbCoords_, cbNodes_, designUsed_};
    for (auto &spec : model_->networkSpecs(build)) {
        nets_.push_back(std::make_unique<Network>(spec));
        netLayer_.push_back(isReplyNetwork(*nets_.back())
                                ? Layer::NocReply
                                : Layer::NocRequest);
    }

    // System::buildEndpoints
    int num_nodes = cfg_.width * cfg_.height;
    int num_cbs = static_cast<int>(cbNodes_.size());
    std::vector<bool> is_cb(static_cast<std::size_t>(num_nodes), false);
    amap_.lineBytes = 64;
    amap_.cbNodes = cbNodes_;
    for (NodeId n : cbNodes_)
        is_cb[static_cast<std::size_t>(n)] = true;
    tileSinks_.assign(static_cast<std::size_t>(num_nodes), nullptr);

    const TrafficModel &tm = TrafficRegistry::instance().byName(
        cfg_.traffic.model.empty() ? "synthetic" : cfg_.traffic.model);
    TrafficBuild tb{cfg_.traffic, wp, cfg_.seed, num_nodes - num_cbs,
                    num_cbs};
    traffic_ = tm.build(tb);
    if (traffic_->wantsCoherence())
        eqx_fatal("traced cell: coherence traffic is not replicated");

    auto make_injector = [&](NodeId node, bool for_reply) {
        injectors_.push_back(
            model_->makeInjector(build, nets_, node, for_reply));
        return injectors_.back().get();
    };
    int pe_index = 0;
    bool open_loop = traffic_->openLoop();
    for (NodeId n = 0; n < num_nodes; ++n) {
        auto slot = static_cast<std::size_t>(n);
        if (is_cb[slot]) {
            auto *inj = make_injector(n, /*for_reply=*/true);
            cbs_.push_back(std::make_unique<CacheBank>(n, cfg_.cb, inj,
                                                       &cfg_.sizes));
            tileSinks_[slot] = cbs_.back().get();
        } else if (open_loop) {
            auto *inj = make_injector(n, /*for_reply=*/false);
            storms_.push_back(traffic_->makeEndpoint(
                pe_index++, n, inj, &amap_, &cfg_.sizes));
            tileSinks_[slot] = storms_.back().get();
        } else {
            auto *inj = make_injector(n, /*for_reply=*/false);
            pes_.push_back(std::make_unique<ProcessingElement>(
                n, cfg_.pe, traffic_->makeSource(pe_index++), &amap_, inj,
                &cfg_.sizes));
            tileSinks_[slot] = pes_.back().get();
        }
    }
    model_->wireSinks(build, nets_, tileSinks_, overlaySinks_);
}

TracedCell::~TracedCell() = default;

void
TracedCell::step(LayerTimes &t, std::int64_t &mark)
{
    ++cycle_;
    // Consecutive networks of one layer share a span, so DA2Mesh's
    // eight reply subnets cost one clock read, not eight.
    for (std::size_t i = 0; i < nets_.size(); ++i) {
        nets_[i]->coreTick(cycle_);
        if (i + 1 == nets_.size() || netLayer_[i + 1] != netLayer_[i])
            closeSpan(t, netLayer_[i], mark);
    }
    for (auto &cb : cbs_)
        cb->tick(cycle_);
    closeSpan(t, Layer::GpuCb, mark);
    if (!pes_.empty()) {
        for (auto &pe : pes_)
            pe->tick(cycle_);
        closeSpan(t, Layer::GpuPe, mark);
    }
    if (!storms_.empty()) {
        for (auto &s : storms_)
            s->tick(cycle_);
        closeSpan(t, Layer::TrafficStorm, mark);
    }
}

void
TracedCell::maybeSkip()
{
    // System::maybeSkip, minus the branches the constructor refused
    // (exhaustive/fault-armed networks, the warmup clamp).
    if (!cfg_.timeSkip || cycle_ + 1 >= cfg_.maxCycles)
        return;
    wheel_.beginEpoch(cycle_);
    for (const auto &pe : pes_) {
        Cycle due = pe->nextDueCycle(cycle_);
        if (due == cycle_ + 1)
            return;
        wheel_.post(due);
    }
    for (const auto &s : storms_) {
        Cycle due = s->nextDueCycle(cycle_);
        if (due == cycle_ + 1)
            return;
        wheel_.post(due);
    }
    for (const auto &cb : cbs_) {
        Cycle due = cb->nextDueCycle(cycle_);
        if (due == cycle_ + 1)
            return;
        wheel_.post(due);
    }
    for (const auto &net : nets_) {
        Cycle due = net->nextDueCycle(cycle_);
        if (due == cycle_ + 1)
            return;
        wheel_.post(due);
    }
    Cycle next = wheel_.nextDue();
    if (next == kNeverCycle || next <= cycle_ + 1)
        return;
    Cycle target = std::min(next - 1, cfg_.maxCycles - 1);
    if (target <= cycle_)
        return;
    for (auto &net : nets_)
        net->skipTo(target);
    cyclesSkipped_ += target - cycle_;
    cycle_ = target;
}

bool
TracedCell::finished() const
{
    for (const auto &pe : pes_)
        if (!pe->done())
            return false;
    for (const auto &s : storms_)
        if (!s->done())
            return false;
    for (const auto &cb : cbs_)
        if (!cb->drained())
            return false;
    for (const auto &net : nets_)
        if (!net->drained())
            return false;
    return true;
}

LayerTimes
TracedCell::run()
{
    LayerTimes t;
    const std::int64_t start = nowNs();
    std::int64_t mark = start;
    for (;;) {
        bool done = finished() || cycle_ >= cfg_.maxCycles;
        closeSpan(t, Layer::SimFinished, mark);
        if (done)
            break;
        step(t, mark);
        maybeSkip();
        closeSpan(t, Layer::SimSkip, mark);
    }
    t.loopNs = static_cast<double>(nowNs() - start);
    return t;
}

CellSignature
TracedCell::signature() const
{
    CellSignature s;
    s.cycles = cycle_;
    s.skipped = cyclesSkipped_;
    for (const auto &pe : pes_)
        s.insts += pe->instsIssued();
    for (const auto &net : nets_) {
        s.bufferWrites.push_back(net->activity().bufferWrites);
        s.saGrants.push_back(net->activity().saGrants);
    }
    return s;
}

} // namespace eqx::e2e
