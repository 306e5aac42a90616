#include "traffic/storm.hh"

#include <cmath>

#include "common/logging.hh"
#include "runner/stream_seed.hh"

namespace eqx {

namespace {

/** Line-index space per CB: 2^20 lines (64 MB) keeps the L2 missing. */
constexpr std::uint64_t kStormLinesPerCb = 1ULL << 20;

void
checkFraction(const char *knob, double v)
{
    if (!(v >= 0.0 && v <= 1.0))
        eqx_fatal(knob, " must be in [0, 1], got ", v);
}

/** Every storm knob inside its domain, or fatal naming the knob. */
void
validateStormKnobs(const TrafficConfig &tc)
{
    double rate = tc.stormRatePerK;
    if (!std::isfinite(rate) || rate <= 0 || rate > kStormMaxRatePerK)
        eqx_fatal("storm_rate (stormRatePerK) must be finite and in (0, ",
                  kStormMaxRatePerK, "] arrivals per 1000 cycles per "
                  "tile, got ", rate);
    if (tc.stormHorizon < 1)
        eqx_fatal("storm_horizon (stormHorizon) must be >= 1 cycle, "
                  "got 0");
    if (tc.stormQueueCap < 1)
        eqx_fatal("storm_queue (stormQueueCap) must be >= 1, got ",
                  tc.stormQueueCap);
    checkFraction("storm_trough (stormTrough)", tc.stormTrough);
    checkFraction("storm_write (stormWriteFrac)", tc.stormWriteFrac);
    checkFraction("storm_hot_frac (stormHotFrac)", tc.stormHotFrac);
    if (tc.stormHotCbs < 1)
        eqx_fatal("storm_hot_cbs (stormHotCbs) must be >= 1, got ",
                  tc.stormHotCbs);
}

} // namespace

StormSchedule::StormSchedule(StormShape shape, const TrafficConfig &tc)
    : shape_(shape), peak_(tc.stormRatePerK / 1000.0),
      trough_(tc.stormTrough),
      horizon_(static_cast<Cycle>(tc.stormHorizon)),
      flashLo_(horizon_ * 2 / 5), flashHi_(horizon_ * 3 / 5)
{
}

double
StormSchedule::ratePerCycle(Cycle now) const
{
    switch (shape_) {
      case StormShape::Diurnal: {
          // Piecewise-linear triangle (no libm: bit-exact everywhere):
          // trough at the horizon's edges, peak at its midpoint.
          double phase = static_cast<double>(now) /
                         static_cast<double>(horizon_);
          double tri = phase < 0.5 ? 2.0 * phase : 2.0 - 2.0 * phase;
          return peak_ * (trough_ + (1.0 - trough_) * tri);
      }
      case StormShape::Flash:
          // Flash crowd: a step spike over the middle fifth.
          return peak_ * (now >= flashLo_ && now < flashHi_ ? 1.0
                                                            : trough_);
      case StormShape::Hotspot:
          return peak_;
    }
    return peak_;
}

StormStep
StormSchedule::next(const StormStep &prev)
{
    if (prev.cycle == memoFrom_)
        return memo_;
    // Arrivals happen at cycles 1 .. horizon-1, the cycles System::step
    // numbers below the horizon; the accumulator runs through each of
    // them in order, so every step is the one a per-cycle tick made.
    Cycle last = horizon_ - 1;
    if (last - prev.cycle > kMaxScanCycles)
        last = prev.cycle + kMaxScanCycles;
    StormStep s{prev.cycle, 0, prev.acc};
    while (s.count == 0 && s.cycle < last) {
        ++s.cycle;
        s.acc += ratePerCycle(s.cycle);
        while (s.acc >= 1.0) {
            s.acc -= 1.0;
            ++s.count;
        }
    }
    if (s.count == 0 && s.cycle == horizon_ - 1)
        s.cycle = kNeverCycle;
    memoFrom_ = prev.cycle;
    memo_ = s;
    return s;
}

StormEndpoint::StormEndpoint(NodeId node, StormShape shape,
                             const TrafficConfig &tc,
                             std::shared_ptr<StormSchedule> schedule,
                             std::uint64_t stream_seed,
                             PacketInjector *inj, const AddressMap *amap,
                             const PacketSizes *sizes)
    : node_(node), shape_(shape), tc_(tc), schedule_(std::move(schedule)),
      injector_(inj), amap_(amap), sizes_(sizes), rng_(stream_seed),
      horizon_(static_cast<Cycle>(tc.stormHorizon)),
      next_(schedule_->next(StormStep{}))
{
}

Addr
StormEndpoint::pickAddr()
{
    auto num_cbs = static_cast<std::uint64_t>(amap_->cbNodes.size());
    std::uint64_t cb;
    if (shape_ == StormShape::Hotspot) {
        auto hot = static_cast<std::uint64_t>(tc_.stormHotCbs);
        if (hot > num_cbs)
            hot = num_cbs;
        cb = rng_.chance(tc_.stormHotFrac) ? rng_.nextBounded(hot)
                                           : rng_.nextBounded(num_cbs);
    } else {
        cb = rng_.nextBounded(num_cbs);
    }
    std::uint64_t line = rng_.nextBounded(kStormLinesPerCb) * num_cbs + cb;
    return line * static_cast<Addr>(amap_->lineBytes);
}

void
StormEndpoint::takeArrivals(Cycle now)
{
    eqx_assert(now == next_.cycle, "storm endpoint at node ", node_,
               " ticked at cycle ", now, ", past its arrival step at ",
               next_.cycle);
    for (int i = 0; i < next_.count; ++i) {
        ++offered_;
        if (static_cast<int>(backlog_.size()) >= tc_.stormQueueCap) {
            ++dropped_; // open-loop loss: the backlog is saturated
            continue;
        }
        bool is_write = rng_.chance(tc_.stormWriteFrac);
        Addr addr = pickAddr();
        PacketType t = is_write ? PacketType::WriteRequest
                                : PacketType::ReadRequest;
        backlog_.push_back(makePacket(t, node_, amap_->cbNodeOf(addr),
                                      sizes_->bitsFor(t), addr, kStormTag));
    }
    next_ = schedule_->next(next_);
}

void
StormEndpoint::drainBacklog()
{
    // The backlog, not a latency-tolerance window, is the only
    // throttle.
    while (!backlog_.empty() && injector_->tryInject(backlog_.front())) {
        backlog_.pop_front();
        ++injected_;
        ++outstanding_;
    }
}

bool
StormEndpoint::done() const
{
    return lastNow_ >= horizon_ && backlog_.empty() && outstanding_ == 0;
}

void
StormEndpoint::accept(const PacketPtr &pkt, Cycle)
{
    eqx_assert(isReply(pkt->type),
               "storm endpoint received a request packet");
    eqx_assert(pkt->tag == kStormTag,
               "non-storm reply delivered to a storm endpoint");
    ++delivered_;
    --outstanding_;
}

StormInstance::StormInstance(const TrafficBuild &b, StormShape shape)
    : tc_(b.traffic), seed_(b.seed), shape_(shape)
{
    validateStormKnobs(tc_);
    schedule_ = std::make_shared<StormSchedule>(shape_, tc_);
}

std::unique_ptr<StormEndpoint>
StormInstance::makeEndpoint(int, NodeId node, PacketInjector *inj,
                            const AddressMap *amap,
                            const PacketSizes *sizes)
{
    // Per-node decorrelated stream, hashed (not forked) so the arrival
    // pattern is independent of endpoint construction order.
    return std::make_unique<StormEndpoint>(
        node, shape_, tc_, schedule_,
        deriveStreamSeed(seed_, "storm", static_cast<std::uint64_t>(node)),
        inj, amap, sizes);
}

} // namespace eqx
