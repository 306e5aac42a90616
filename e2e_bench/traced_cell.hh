/**
 * @file
 * Traced replica of one System cell. Assembles the cell from public
 * APIs only (SchemeModel build hooks, TrafficRegistry, the Network /
 * CacheBank / ProcessingElement / StormEndpoint constructors), steps
 * it in System::step order, and records one span per layer call
 * boundary so host time can be attributed to the src/ module that
 * spent it. The replica must reproduce the untraced System run
 * exactly; CellSignature is what the benchmark compares.
 */

#ifndef EQX_E2E_BENCH_TRACED_CELL_HH
#define EQX_E2E_BENCH_TRACED_CELL_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/time_wheel.hh"
#include "gpu/cache_bank.hh"
#include "gpu/pe.hh"
#include "noc/network.hh"
#include "schemes/scheme_model.hh"
#include "sim/system.hh"
#include "traffic/storm.hh"
#include "traffic/traffic_model.hh"

namespace eqx::e2e {

/** The layers a traced step is split into, named after src/ modules. */
enum class Layer : int
{
    NocRequest,   ///< Network::coreTick of the request network
    NocReply,     ///< Network::coreTick of every reply network
    GpuCb,        ///< CacheBank::tick (L2 + the HBM tick it drives)
    GpuPe,        ///< ProcessingElement::tick
    TrafficStorm, ///< StormEndpoint::tick
    SimSkip,      ///< time-wheel queries and Network::skipTo
    SimFinished,  ///< the drain test at the top of the cycle loop
    Count,
};

inline constexpr int kNumLayers = static_cast<int>(Layer::Count);

/** Metric-name stem of each layer ("<stem>.ns_per_cycle"). */
const char *layerName(Layer l);

/** Reply networks ("reply", DA2Mesh's "reply-sub<i>") vs the rest. */
inline bool
isReplyNetwork(const Network &net)
{
    return net.params().name.rfind("reply", 0) == 0;
}

/** What a traced run must reproduce of the untraced one. */
struct CellSignature
{
    Cycle cycles = 0;
    Cycle skipped = 0;
    std::uint64_t insts = 0;
    std::vector<std::uint64_t> bufferWrites; ///< per network
    std::vector<std::uint64_t> saGrants;     ///< per network

    bool operator==(const CellSignature &o) const = default;
    std::string str() const;
};

/** The signature of a System after run(). */
CellSignature signatureOf(const System &sys);

/** Host time of one traced run, split by layer. */
struct LayerTimes
{
    std::array<double, kNumLayers> selfNs{}; ///< per-layer span sums
    double loopNs = 0; ///< the whole cycle loop, spans and gaps
};

class TracedCell
{
  public:
    /** Build the cell exactly as System's constructor would. */
    TracedCell(const SystemConfig &sc, const WorkloadProfile &wp);
    ~TracedCell();

    TracedCell(const TracedCell &) = delete;
    TracedCell &operator=(const TracedCell &) = delete;

    /** Run to completion (or maxCycles), recording layer spans. */
    LayerTimes run();

    bool finished() const;
    CellSignature signature() const;

  private:
    void step(LayerTimes &t, std::int64_t &mark);
    void maybeSkip();

    // Declaration order mirrors System so teardown order matches:
    // sinks and injectors die before the networks they point into.
    SystemConfig cfg_;
    const SchemeModel *model_;
    std::vector<Coord> cbCoords_;
    std::vector<NodeId> cbNodes_;
    AddressMap amap_;
    EquiNoxDesign ownedDesign_;
    const EquiNoxDesign *designUsed_ = nullptr;

    std::vector<std::unique_ptr<Network>> nets_;
    std::vector<Layer> netLayer_; ///< NocRequest or NocReply per net
    std::vector<std::unique_ptr<ProcessingElement>> pes_;
    std::vector<std::unique_ptr<CacheBank>> cbs_;
    std::vector<std::unique_ptr<StormEndpoint>> storms_;
    std::vector<std::unique_ptr<PacketInjector>> injectors_;
    std::vector<std::unique_ptr<PacketSink>> overlaySinks_;
    std::vector<PacketSink *> tileSinks_;
    std::unique_ptr<TrafficInstance> traffic_;

    Cycle cycle_ = 0;
    Cycle cyclesSkipped_ = 0;
    TimeWheel wheel_;
};

} // namespace eqx::e2e

#endif // EQX_E2E_BENCH_TRACED_CELL_HH
