/**
 * @file
 * Open-loop storm machinery shared by the storm-* traffic models: a
 * rate-driven arrival process per non-CB tile, decoupled from the PE
 * latency-tolerance window. Arrivals come from a fractional
 * accumulator (no libm, bit-exact everywhere) that one StormSchedule
 * per instance runs for every tile, queue in a bounded backlog
 * against NI admission backpressure, and are *dropped* — the
 * open-loop loss signal — when the backlog is full. Request/reply
 * bookkeeping measures delivered ratio and saturation.
 */

#ifndef EQX_TRAFFIC_STORM_HH
#define EQX_TRAFFIC_STORM_HH

#include <cstdint>
#include <deque>
#include <memory>

#include "common/rng.hh"
#include "noc/network_interface.hh"
#include "traffic/traffic_model.hh"

namespace eqx {

/** Rate-profile shape of a storm model. */
enum class StormShape
{
    Diurnal, ///< triangle ramp: trough -> peak -> trough over horizon
    Flash,   ///< flash crowd: trough base, peak step in [0.4h, 0.6h)
    Hotspot, ///< constant peak, arrivals concentrated on hot CBs
};

/** Packet::tag sentinel marking storm-generated traffic. */
inline constexpr std::uint64_t kStormTag = 0x53544f524dULL; // "STORM"

/** Cap on TrafficConfig::stormRatePerK: 100 arrivals per core cycle
 *  per tile, far past what one NI can admit. It bounds the work of
 *  one cycle's arrival loop. */
inline constexpr double kStormMaxRatePerK = 100'000.0;

/**
 * One step of a storm arrival schedule: @c count arrivals at
 * @c cycle, and the fractional accumulator left after them. A step
 * with count 0 is a scan checkpoint; cycle kNeverCycle means no
 * arrival is left before the horizon.
 */
struct StormStep
{
    Cycle cycle = 0;
    int count = 0;
    double acc = 0;
};

/**
 * The arrival sequence of one StormInstance (DESIGN.md §16.3). The
 * accumulator depends only on the shape, the knobs, the horizon and
 * the cycle, and every tile starts it at 0, so all tiles share one
 * sequence; the per-tile RNG only picks write/address. next() is a
 * pure function of its argument, and a one-step memo lets endpoints
 * ticked in lockstep compute each step once. Memory is O(1) in the
 * horizon.
 */
class StormSchedule
{
  public:
    StormSchedule(StormShape shape, const TrafficConfig &tc);

    /**
     * The step after @p prev, which is StormStep{} (before cycle 1)
     * or a step this schedule returned. One call scans at most
     * kMaxScanCycles cycles and returns a checkpoint when it finds no
     * arrival in them, so a sparse schedule over a huge horizon never
     * stalls a tick.
     */
    StormStep next(const StormStep &prev);

    static constexpr Cycle kMaxScanCycles = Cycle{1} << 16;

  private:
    /** Offered arrivals per core cycle at @p now (profile-shaped). */
    double ratePerCycle(Cycle now) const;

    StormShape shape_;
    double peak_;
    double trough_;
    Cycle horizon_;
    Cycle flashLo_, flashHi_;

    Cycle memoFrom_ = kNeverCycle; ///< prev.cycle that memo_ follows
    StormStep memo_;
};

/**
 * One tile's open-loop injector + reply sink. Replaces the PE at a
 * non-CB tile when a storm model is active.
 */
class StormEndpoint final : public PacketSink
{
  public:
    StormEndpoint(NodeId node, StormShape shape, const TrafficConfig &tc,
                  std::shared_ptr<StormSchedule> schedule,
                  std::uint64_t stream_seed, PacketInjector *inj,
                  const AddressMap *amap, const PacketSizes *sizes);

    NodeId node() const { return node_; }

    /**
     * Take this cycle's arrivals if @p now is the next scheduled
     * step, then push the backlog. Callers must tick at every cycle
     * nextDueCycle() names; ticks in between take no arrivals.
     */
    void
    tick(Cycle now)
    {
        lastNow_ = now;
        if (now >= next_.cycle)
            takeArrivals(now);
        if (!backlog_.empty())
            drainBacklog();
    }

    /** Horizon passed, backlog flushed, every reply returned. */
    bool done() const;

    /**
     * Global time wheel (DESIGN.md §14): next cycle while the backlog
     * waits on the NI, else the next schedule step, else the horizon
     * (the cycle done() can flip), else never.
     */
    Cycle
    nextDueCycle(Cycle now) const
    {
        if (!backlog_.empty())
            return now + 1;
        if (next_.cycle != kNeverCycle)
            return next_.cycle;
        return now < horizon_ ? horizon_ : kNeverCycle;
    }

    std::uint64_t offered() const { return offered_; }
    std::uint64_t injected() const { return injected_; }
    std::uint64_t delivered() const { return delivered_; }
    std::uint64_t dropped() const { return dropped_; }

    // PacketSink: replies are always consumed immediately.
    bool canAccept(const PacketPtr &) override { return true; }
    void accept(const PacketPtr &pkt, Cycle core_now) override;

  private:
    /** Queue (or drop) the arrivals of the step due at @p now, then
     *  move the cursor to the next step. */
    void takeArrivals(Cycle now);

    /** Open-loop NI admission: push until the NI refuses. */
    void drainBacklog();

    /** Pick the target line address (hotspot concentrates on hot CBs). */
    Addr pickAddr();

    NodeId node_;
    StormShape shape_;
    TrafficConfig tc_;
    std::shared_ptr<StormSchedule> schedule_;
    PacketInjector *injector_;
    const AddressMap *amap_;
    const PacketSizes *sizes_;
    Rng rng_;

    Cycle horizon_;
    Cycle lastNow_ = 0;
    StormStep next_; ///< cursor: the next schedule step to take

    std::deque<PacketPtr> backlog_;
    int outstanding_ = 0;

    std::uint64_t offered_ = 0;
    std::uint64_t injected_ = 0;
    std::uint64_t delivered_ = 0;
    std::uint64_t dropped_ = 0;
};

/** TrafficInstance shared by the three storm model TUs. */
class StormInstance final : public TrafficInstance
{
  public:
    /** Fatal, naming the knob, on a storm knob outside its domain. */
    StormInstance(const TrafficBuild &b, StormShape shape);

    bool openLoop() const override { return true; }

    std::unique_ptr<StormEndpoint>
    makeEndpoint(int pe_index, NodeId node, PacketInjector *inj,
                 const AddressMap *amap,
                 const PacketSizes *sizes) override;

  private:
    TrafficConfig tc_;
    std::uint64_t seed_;
    StormShape shape_;
    std::shared_ptr<StormSchedule> schedule_;
};

} // namespace eqx

#endif // EQX_TRAFFIC_STORM_HH
