/**
 * @file
 * The shared storm arrival schedule against a copy of the per-cycle
 * accumulator it replaced: same (cycle, count) arrivals, same
 * offered/injected/dropped counts, and nextDueCycle() never later than
 * the next arrival, when an endpoint is ticked only at the cycles it
 * asks for plus random extra cycles. Also the fatal storm-knob checks.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "../../bench/bench_util.hh"
#include "common/rng.hh"
#include "traffic/storm.hh"

namespace eqx {
namespace {

using Arrivals = std::vector<std::pair<Cycle, int>>;

/**
 * The per-cycle accumulator every StormEndpoint ran before the shared
 * schedule: one accumulator per tile, advanced at each cycle below the
 * horizon.
 */
class ReferenceAccumulator
{
  public:
    ReferenceAccumulator(StormShape shape, const TrafficConfig &tc)
        : shape_(shape), tc_(tc), horizon_(tc.stormHorizon)
    {
    }

    int
    arrivals(Cycle now)
    {
        if (now >= horizon_)
            return 0;
        int n = 0;
        acc_ += ratePerCycle(now);
        while (acc_ >= 1.0) {
            acc_ -= 1.0;
            ++n;
        }
        return n;
    }

  private:
    double
    ratePerCycle(Cycle now) const
    {
        double peak = tc_.stormRatePerK / 1000.0;
        double trough = tc_.stormTrough;
        switch (shape_) {
          case StormShape::Diurnal: {
              double phase = static_cast<double>(now) /
                             static_cast<double>(horizon_);
              double tri = phase < 0.5 ? 2.0 * phase : 2.0 - 2.0 * phase;
              return peak * (trough + (1.0 - trough) * tri);
          }
          case StormShape::Flash: {
              Cycle lo = horizon_ * 2 / 5, hi = horizon_ * 3 / 5;
              return peak * (now >= lo && now < hi ? 1.0 : trough);
          }
          case StormShape::Hotspot:
              return peak;
        }
        return peak;
    }

    StormShape shape_;
    TrafficConfig tc_;
    Cycle horizon_;
    double acc_ = 0;
};

/** NI admission as a function of the cycle alone, so the endpoint and
 *  the reference see the same backpressure. */
enum class Admission
{
    Always,   ///< every packet, every cycle
    Never,    ///< backlog fills to the cap, the rest drop
    OneEvery3 ///< one packet on cycles divisible by 3
};

class StubInjector final : public PacketInjector
{
  public:
    explicit StubInjector(Admission a) : admission_(a) {}

    void
    beginCycle(Cycle now)
    {
        now_ = now;
        taken_ = 0;
    }

    bool
    tryInject(const PacketPtr &) override
    {
        if (!admits(admission_, now_, taken_))
            return false;
        ++taken_;
        return true;
    }

    static bool
    admits(Admission a, Cycle now, int taken)
    {
        switch (a) {
          case Admission::Always:
            return true;
          case Admission::Never:
            return false;
          case Admission::OneEvery3:
            return now % 3 == 0 && taken == 0;
        }
        return false;
    }

  private:
    Admission admission_;
    Cycle now_ = 0;
    int taken_ = 0;
};

struct Outcome
{
    Arrivals arrivals;
    std::uint64_t offered = 0;
    std::uint64_t injected = 0;
    std::uint64_t dropped = 0;
};

/** The reference accumulator plus a backlog, ticked at every cycle. */
Outcome
referenceRun(StormShape shape, const TrafficConfig &tc, Admission a,
             Cycle end)
{
    ReferenceAccumulator ref(shape, tc);
    Outcome out;
    int backlog = 0;
    for (Cycle c = 1; c <= end; ++c) {
        int n = ref.arrivals(c);
        if (n > 0)
            out.arrivals.emplace_back(c, n);
        for (int i = 0; i < n; ++i) {
            ++out.offered;
            if (backlog >= tc.stormQueueCap)
                ++out.dropped;
            else
                ++backlog;
        }
        for (int taken = 0;
             backlog > 0 && StubInjector::admits(a, c, taken); ++taken) {
            --backlog;
            ++out.injected;
        }
    }
    return out;
}

const AddressMap &
twoCbMap()
{
    static const AddressMap amap{64, {0, 5}};
    return amap;
}

/**
 * Drive @p ep only at the cycles nextDueCycle() names, plus a random
 * extra cycle before a due one about a third of the time, up to
 * @p end. Checks every due cycle against the reference arrivals.
 */
Outcome
eventRun(StormEndpoint &ep, StubInjector &inj, Cycle end,
         const Arrivals &want, std::uint64_t seed)
{
    Rng rng(seed);
    Outcome out;
    std::size_t next_want = 0;
    Cycle now = 0;
    while (now < end) {
        Cycle due = ep.nextDueCycle(now);
        if (next_want < want.size()) {
            EXPECT_LE(due, want[next_want].first)
                << "due cycle skips the arrival at cycle "
                << want[next_want].first << " (now " << now << ")";
        }
        if (due == kNeverCycle)
            break;
        EXPECT_GT(due, now);
        Cycle t = due;
        if (due - now > 1 && rng.chance(0.3))
            t = now + 1 + rng.nextBounded(due - now - 1);
        if (t > end)
            break;
        now = t;
        inj.beginCycle(now);
        std::uint64_t before = ep.offered();
        ep.tick(now);
        if (ep.offered() > before)
            out.arrivals.emplace_back(
                now, static_cast<int>(ep.offered() - before));
        while (next_want < want.size() && want[next_want].first <= now)
            ++next_want;
    }
    out.offered = ep.offered();
    out.injected = ep.injected();
    out.dropped = ep.dropped();
    return out;
}

TrafficBuild
build(const TrafficConfig &tc)
{
    static const WorkloadProfile wp = workloadByName("kmeans");
    return TrafficBuild{tc, wp, 1, 62, 2};
}

void
expectMatchesReference(StormShape shape)
{
    const PacketSizes sizes;
    std::uint64_t seed = 11;
    for (double rate : {2.0, 64.0, 1500.0})
        for (double trough : {0.0, 1.0})
            for (std::uint64_t horizon : {1ULL, 2ULL, 50'000ULL})
                for (Admission a : {Admission::Always, Admission::Never,
                                    Admission::OneEvery3}) {
                    SCOPED_TRACE(::testing::Message()
                                 << "rate " << rate << " trough " << trough
                                 << " horizon " << horizon << " admission "
                                 << static_cast<int>(a));
                    TrafficConfig tc;
                    tc.stormRatePerK = rate;
                    tc.stormTrough = trough;
                    tc.stormHorizon = horizon;
                    tc.stormQueueCap = a == Admission::Always ? 1 : 3;
                    Cycle end = horizon + 5;
                    Outcome want = referenceRun(shape, tc, a, end);

                    StormInstance inst(build(tc), shape);
                    StubInjector inj(a);
                    auto ep = inst.makeEndpoint(0, 1, &inj, &twoCbMap(),
                                                &sizes);
                    Outcome got =
                        eventRun(*ep, inj, end, want.arrivals, ++seed);
                    EXPECT_EQ(got.arrivals, want.arrivals);
                    EXPECT_EQ(got.offered, want.offered);
                    EXPECT_EQ(got.injected, want.injected);
                    EXPECT_EQ(got.dropped, want.dropped);
                }
}

TEST(StormSchedule, DiurnalMatchesPerCycleAccumulator)
{
    expectMatchesReference(StormShape::Diurnal);
}

TEST(StormSchedule, FlashMatchesPerCycleAccumulator)
{
    expectMatchesReference(StormShape::Flash);
}

TEST(StormSchedule, HotspotMatchesPerCycleAccumulator)
{
    expectMatchesReference(StormShape::Hotspot);
}

TEST(StormSchedule, EndpointsShareOneSequenceOutOfLockstep)
{
    // One endpoint runs to the horizon before the other starts: the
    // one-step memo misses on every step and each cursor recomputes.
    TrafficConfig tc;
    tc.stormRatePerK = 64.0;
    tc.stormHorizon = 20'000;
    Outcome want = referenceRun(StormShape::Diurnal, tc, Admission::Always,
                                tc.stormHorizon + 5);
    ASSERT_FALSE(want.arrivals.empty());
    StormInstance inst(build(tc), StormShape::Diurnal);
    const PacketSizes sizes;
    StubInjector inj(Admission::Always);
    auto a = inst.makeEndpoint(0, 1, &inj, &twoCbMap(), &sizes);
    auto b = inst.makeEndpoint(1, 2, &inj, &twoCbMap(), &sizes);
    Outcome ga = eventRun(*a, inj, tc.stormHorizon + 5, want.arrivals, 1);
    Outcome gb = eventRun(*b, inj, tc.stormHorizon + 5, want.arrivals, 2);
    EXPECT_EQ(ga.arrivals, want.arrivals);
    EXPECT_EQ(gb.arrivals, want.arrivals);
}

TEST(StormSchedule, SparseScheduleScansInBoundedSteps)
{
    // One arrival per 10^6 cycles over a horizon no run reaches: the
    // first due cycle is a scan checkpoint, not the end of a scan over
    // the whole horizon, and the checkpoints keep the arrivals exact.
    TrafficConfig tc;
    tc.stormRatePerK = 0.001;
    tc.stormHorizon = 1'000'000'000'000'000ULL;
    StormSchedule sched(StormShape::Hotspot, tc);
    StormStep first = sched.next(StormStep{});
    EXPECT_EQ(first.cycle, StormSchedule::kMaxScanCycles);
    EXPECT_EQ(first.count, 0);

    Cycle end = 3'500'000;
    Outcome want =
        referenceRun(StormShape::Hotspot, tc, Admission::Always, end);
    ASSERT_EQ(want.arrivals.size(), 3u);
    StormInstance inst(build(tc), StormShape::Hotspot);
    const PacketSizes sizes;
    StubInjector inj(Admission::Always);
    auto ep = inst.makeEndpoint(0, 1, &inj, &twoCbMap(), &sizes);
    Outcome got = eventRun(*ep, inj, end, want.arrivals, 3);
    EXPECT_EQ(got.arrivals, want.arrivals);
}

TEST(StormSchedule, DueAtTheHorizonAfterTheLastArrival)
{
    // With no arrival left the endpoint still asks for the horizon,
    // the cycle its done() can first flip, then never.
    TrafficConfig tc;
    tc.stormRatePerK = 2.0;
    tc.stormTrough = 0.0;
    tc.stormHorizon = 1000; // flash spike [400, 600): no arrival at all
    StormInstance inst(build(tc), StormShape::Flash);
    const PacketSizes sizes;
    StubInjector inj(Admission::Always);
    auto ep = inst.makeEndpoint(0, 1, &inj, &twoCbMap(), &sizes);
    EXPECT_EQ(ep->nextDueCycle(0), 1000u);
    ep->tick(1000);
    EXPECT_TRUE(ep->done());
    EXPECT_EQ(ep->offered(), 0u);
    EXPECT_EQ(ep->nextDueCycle(1000), kNeverCycle);
}

// ---- knob validation: fatal, naming the knob ----

void
expectRejected(const TrafficConfig &tc, const char *knob)
{
    try {
        StormInstance inst(build(tc), StormShape::Hotspot);
        ADD_FAILURE() << knob << " out of range was accepted";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find(knob), std::string::npos)
            << e.what();
    }
}

TEST(StormKnobs, DefaultsAreAccepted)
{
    TrafficConfig tc;
    EXPECT_NO_THROW(StormInstance(build(tc), StormShape::Hotspot));
    tc.stormRatePerK = kStormMaxRatePerK;
    tc.stormTrough = 0.0;
    tc.stormWriteFrac = 1.0;
    tc.stormHorizon = 1;
    EXPECT_NO_THROW(StormInstance(build(tc), StormShape::Diurnal));
}

TEST(StormKnobs, NonFiniteRateIsFatal)
{
    for (double r : {std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity(),
                     std::numeric_limits<double>::quiet_NaN()}) {
        TrafficConfig tc;
        tc.stormRatePerK = r;
        expectRejected(tc, "storm_rate");
    }
}

TEST(StormKnobs, NonPositiveRateIsFatal)
{
    for (double r : {0.0, -1.0}) {
        TrafficConfig tc;
        tc.stormRatePerK = r;
        expectRejected(tc, "storm_rate");
    }
}

TEST(StormKnobs, RateAboveTheCapIsFatal)
{
    TrafficConfig tc;
    tc.stormRatePerK = kStormMaxRatePerK * 1.5;
    expectRejected(tc, "storm_rate");
    tc.stormRatePerK = 1e300;
    expectRejected(tc, "storm_rate");
}

TEST(StormKnobs, TroughOutsideUnitIntervalIsFatal)
{
    for (double v : {-0.1, 1.5, std::nan("")}) {
        TrafficConfig tc;
        tc.stormTrough = v;
        expectRejected(tc, "storm_trough");
    }
}

TEST(StormKnobs, WriteFractionOutsideUnitIntervalIsFatal)
{
    for (double v : {-0.1, 1.5, std::nan("")}) {
        TrafficConfig tc;
        tc.stormWriteFrac = v;
        expectRejected(tc, "storm_write");
    }
}

TEST(StormKnobs, HotFractionOutsideUnitIntervalIsFatal)
{
    for (double v : {-0.1, 1.5, std::nan("")}) {
        TrafficConfig tc;
        tc.stormHotFrac = v;
        expectRejected(tc, "storm_hot_frac");
    }
}

TEST(StormKnobs, ZeroHorizonIsFatal)
{
    TrafficConfig tc;
    tc.stormHorizon = 0;
    expectRejected(tc, "storm_horizon");
}

TEST(StormKnobs, NegativeHorizonArgumentIsFatalBeforeTheCast)
{
    for (long h : {-1L, 0L}) {
        Config cfg;
        cfg.set("storm_horizon", h);
        TrafficConfig tc;
        try {
            applyTrafficArgs(tc, cfg);
            ADD_FAILURE() << "storm_horizon=" << h << " was accepted";
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find("storm_horizon"),
                      std::string::npos)
                << e.what();
        }
        EXPECT_EQ(tc.stormHorizon, TrafficConfig{}.stormHorizon);
    }
}

TEST(StormKnobs, HotCbsBelowOneIsFatal)
{
    TrafficConfig tc;
    tc.stormHotCbs = 0;
    expectRejected(tc, "storm_hot_cbs");
}

TEST(StormKnobs, QueueCapBelowOneIsFatal)
{
    TrafficConfig tc;
    tc.stormQueueCap = 0;
    expectRejected(tc, "storm_queue");
}

} // namespace
} // namespace eqx
