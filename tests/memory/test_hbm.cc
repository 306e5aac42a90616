/** @file HBM stack: FR-FCFS, row-buffer behaviour, bandwidth cap. */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <queue>
#include <tuple>
#include <vector>

#include "common/rng.hh"
#include "memory/hbm.hh"

namespace eqx {
namespace {

struct Harness
{
    explicit Harness(HbmParams p = {})
        : stack(p, [this](const MemRequest &r, Cycle c) {
              done.push_back({r, c});
          })
    {}

    void
    run(Cycle &clock, int cycles)
    {
        for (int i = 0; i < cycles; ++i)
            stack.tick(++clock);
    }

    std::vector<std::pair<MemRequest, Cycle>> done;
    HbmStack stack;
};

TEST(Hbm, AddressDecompositionInterleavesChannels)
{
    Harness h;
    // Consecutive lines hit consecutive channels.
    int ch0 = h.stack.channelOf(0);
    int ch1 = h.stack.channelOf(64);
    EXPECT_NE(ch0, ch1);
    EXPECT_EQ(h.stack.channelOf(0), h.stack.channelOf(16 * 64));
}

TEST(Hbm, SingleReadCompletes)
{
    Harness h;
    Cycle clock = 0;
    ASSERT_TRUE(h.stack.canEnqueue(0x1000));
    h.stack.enqueue({0x1000, false, 7}, clock);
    EXPECT_EQ(h.stack.outstanding(), 1);
    h.run(clock, 100);
    ASSERT_EQ(h.done.size(), 1u);
    EXPECT_EQ(h.done[0].first.tag, 7u);
    EXPECT_EQ(h.stack.outstanding(), 0);
}

TEST(Hbm, RowHitFasterThanRowConflict)
{
    HbmParams p;
    Harness h(p);
    Cycle clock = 0;
    // Two accesses to the same row, then one to a different row in the
    // same bank.
    Addr a = 0;
    // Same channel (x16) and same bank (x8): the next line of row 0.
    Addr same_row = 64 * 16 * 8;
    h.stack.enqueue({a, false, 1}, clock);
    h.run(clock, 100);
    Cycle t0 = h.done[0].second;

    h.stack.enqueue({same_row, false, 2}, clock);
    h.run(clock, 100);
    Cycle hit_lat = h.done[1].second - t0;

    // Conflict: a line far enough to land in another row, same bank.
    Addr other_row = 64ull * 16 * 8 * 64 * 2;
    EXPECT_EQ(h.stack.channelOf(other_row), h.stack.channelOf(a));
    EXPECT_EQ(h.stack.bankOf(other_row), h.stack.bankOf(a));
    EXPECT_NE(h.stack.rowOf(other_row), h.stack.rowOf(a));
    Cycle t1 = h.done[1].second;
    h.stack.enqueue({other_row, false, 3}, clock);
    h.run(clock, 200);
    Cycle miss_lat = h.done[2].second - t1;
    EXPECT_LT(hit_lat, miss_lat);
    EXPECT_GT(h.stack.stats().get("row_hits"), 0.0);
    EXPECT_GT(h.stack.stats().get("row_conflicts"), 0.0);
}

TEST(Hbm, FrFcfsPrefersReadyRowHit)
{
    HbmParams p;
    p.channels = 1;
    p.banksPerChannel = 1;
    p.queueDepth = 8;
    Harness h(p);
    Cycle clock = 0;
    // Open row A, then enqueue row B (older) and row A (younger): the
    // row hit should finish first despite arriving later.
    h.stack.enqueue({0, false, 0}, clock);
    h.run(clock, 100);
    h.done.clear();
    Addr rowB = 64ull * 64 * 3;
    h.stack.enqueue({rowB, false, 1}, clock);
    h.stack.enqueue({64, false, 2}, clock); // same row as addr 0
    h.run(clock, 300);
    ASSERT_EQ(h.done.size(), 2u);
    EXPECT_EQ(h.done[0].first.tag, 2u); // the hit completed first
    EXPECT_EQ(h.done[1].first.tag, 1u);
}

TEST(Hbm, QueueDepthEnforced)
{
    HbmParams p;
    p.channels = 1;
    p.queueDepth = 2;
    Harness h(p);
    Cycle clock = 0;
    h.stack.enqueue({0, false, 0}, clock);
    h.stack.enqueue({64, false, 1}, clock);
    // The first may have issued at tick time 0? No ticks yet: both
    // queued, so the channel is full.
    EXPECT_FALSE(h.stack.canEnqueue(128));
    h.run(clock, 100);
    EXPECT_TRUE(h.stack.canEnqueue(128));
}

TEST(Hbm, WritesTakeRecoveryTime)
{
    HbmParams p;
    p.channels = 1;
    p.banksPerChannel = 1;
    Harness h(p);
    Cycle clock = 0;
    h.stack.enqueue({0, false, 0}, clock);
    h.run(clock, 200);
    Cycle start = clock;
    h.stack.enqueue({64, true, 1}, clock); // row hit write
    h.run(clock, 200);
    Cycle write_lat = h.done[1].second - start;
    EXPECT_GE(write_lat,
              static_cast<Cycle>(p.timing.tCL + p.timing.tBL +
                                 p.timing.tWR));
}

TEST(Hbm, ChannelBusSerializesBursts)
{
    HbmParams p;
    p.channels = 1;
    p.banksPerChannel = 8;
    Harness h(p);
    Cycle clock = 0;
    // 8 row-empty accesses to 8 different banks: bank-parallel but the
    // shared bus issues at most one burst per tBL.
    for (int b = 0; b < 8; ++b) {
        Addr addr = static_cast<Addr>(b) * 64;
        // channels=1 so lines map to consecutive banks
        h.stack.enqueue({addr, false, static_cast<std::uint64_t>(b)},
                        clock);
    }
    h.run(clock, 500);
    ASSERT_EQ(h.done.size(), 8u);
    // Completions must be spread by at least tBL apart on average.
    Cycle first = h.done.front().second;
    Cycle last = h.done.back().second;
    EXPECT_GE(last - first, static_cast<Cycle>(7 * p.timing.tBL));
}

TEST(Hbm, ThroughputScalesWithChannels)
{
    auto run_n = [](int channels) {
        HbmParams p;
        p.channels = channels;
        p.queueDepth = 64;
        Harness h(p);
        Cycle clock = 0;
        int sent = 0;
        for (int i = 0; i < 64; ++i) {
            Addr a = static_cast<Addr>(i) * 64;
            if (h.stack.canEnqueue(a)) {
                h.stack.enqueue({a, false, 0}, clock);
                ++sent;
            }
        }
        Cycle start = clock;
        while (h.stack.outstanding() > 0 && clock < start + 10000)
            h.stack.tick(++clock);
        return clock - start;
    };
    EXPECT_LT(run_n(16), run_n(2));
}

TEST(Hbm, RejectsInvalidGeometry)
{
    auto build = [](HbmParams p) {
        HbmStack s(p, [](const MemRequest &, Cycle) {});
    };
    HbmParams p;
    p.channels = 0;
    EXPECT_THROW(build(p), std::logic_error);
    p.channels = HbmStack::kMaxChannels + 1;
    EXPECT_THROW(build(p), std::logic_error);
    p = HbmParams{};
    p.banksPerChannel = 0;
    EXPECT_THROW(build(p), std::logic_error);
    p = HbmParams{};
    p.queueDepth = 0;
    EXPECT_THROW(build(p), std::logic_error);
    p = HbmParams{};
    p.lineBytes = 0; // would divide by zero in channelOf
    EXPECT_THROW(build(p), std::logic_error);
    p = HbmParams{};
    p.channels = HbmStack::kMaxChannels;
    EXPECT_NO_THROW(build(p));
}

/** One completion as the differential test compares them. */
using Completion = std::tuple<Cycle, Addr, bool, std::uint64_t>;

/**
 * Reference FR-FCFS stack: the straightforward model that scans every
 * channel on every cycle and decodes each queued address on every
 * probe. Same timing rules as HbmStack; kept here only as the oracle
 * the event-driven stack must match completion for completion.
 */
class ReferenceHbm
{
  public:
    explicit ReferenceHbm(const HbmParams &p)
        : p_(p), channels_(static_cast<std::size_t>(p.channels))
    {
        for (auto &ch : channels_)
            ch.banks.resize(static_cast<std::size_t>(p.banksPerChannel));
    }

    bool
    canEnqueue(Addr a) const
    {
        return static_cast<int>(chan(a).queue.size()) < p_.queueDepth;
    }

    void
    enqueue(const MemRequest &r)
    {
        channels_[static_cast<std::size_t>(channelOf(r.addr))]
            .queue.push_back(r);
    }

    /** Advance one cycle; true when anything completed or issued. */
    bool
    tick(Cycle now, std::vector<Completion> &out)
    {
        bool acted = false;
        while (!inflight_.empty() && inflight_.top().finishAt <= now) {
            const MemRequest &r = inflight_.top().req;
            out.emplace_back(now, r.addr, r.write, r.tag);
            inflight_.pop();
            acted = true;
        }
        for (auto &ch : channels_)
            acted |= issue(ch, now);
        return acted;
    }

    std::uint64_t rowHits = 0, rowConflicts = 0, rowEmpty = 0;

  private:
    struct Bank
    {
        std::int64_t openRow = -1;
        Cycle readyAt = 0;
    };
    struct Channel
    {
        std::deque<MemRequest> queue;
        std::vector<Bank> banks;
        Cycle busFreeAt = 0;
    };
    struct Inflight
    {
        Cycle finishAt;
        MemRequest req;
        bool operator>(const Inflight &o) const
        {
            return finishAt > o.finishAt;
        }
    };

    Addr line(Addr a) const { return a / static_cast<Addr>(p_.lineBytes); }
    int
    channelOf(Addr a) const
    {
        return static_cast<int>(line(a) %
                                static_cast<Addr>(p_.channels));
    }
    int
    bankOf(Addr a) const
    {
        return static_cast<int>(
            (line(a) / static_cast<Addr>(p_.channels)) %
            static_cast<Addr>(p_.banksPerChannel));
    }
    std::int64_t
    rowOf(Addr a) const
    {
        return static_cast<std::int64_t>(
            line(a) / static_cast<Addr>(p_.channels) /
            static_cast<Addr>(p_.banksPerChannel) / 64);
    }
    const Channel &
    chan(Addr a) const
    {
        return channels_[static_cast<std::size_t>(channelOf(a))];
    }

    bool
    issue(Channel &ch, Cycle now)
    {
        if (ch.queue.empty() || ch.busFreeAt > now)
            return false;
        const DramTiming &t = p_.timing;
        auto bank = [&](const MemRequest &r) -> Bank & {
            return ch.banks[static_cast<std::size_t>(bankOf(r.addr))];
        };
        std::size_t pick = ch.queue.size();
        for (std::size_t i = 0; i < ch.queue.size(); ++i) {
            const MemRequest &r = ch.queue[i];
            if (bank(r).readyAt <= now && bank(r).openRow == rowOf(r.addr)) {
                pick = i;
                break;
            }
        }
        if (pick == ch.queue.size()) {
            for (std::size_t i = 0; i < ch.queue.size(); ++i) {
                if (bank(ch.queue[i]).readyAt <= now) {
                    pick = i;
                    break;
                }
            }
        }
        if (pick == ch.queue.size())
            return false;
        MemRequest r = ch.queue[pick];
        ch.queue.erase(ch.queue.begin() +
                       static_cast<std::ptrdiff_t>(pick));
        Bank &b = bank(r);
        std::int64_t row = rowOf(r.addr);
        int lat;
        if (b.openRow == row) {
            lat = t.tCL + t.tBL;
            ++rowHits;
        } else if (b.openRow >= 0) {
            lat = t.tRP + t.tRCD + t.tCL + t.tBL;
            ++rowConflicts;
        } else {
            lat = t.tRCD + t.tCL + t.tBL;
            ++rowEmpty;
        }
        b.openRow = row;
        Cycle finish = now + static_cast<Cycle>(lat) +
                       static_cast<Cycle>(r.write ? t.tWR : 0);
        b.readyAt = finish;
        ch.busFreeAt = now + static_cast<Cycle>(t.tBL);
        inflight_.push(Inflight{finish, r});
        return true;
    }

    HbmParams p_;
    std::vector<Channel> channels_;
    std::priority_queue<Inflight, std::vector<Inflight>,
                        std::greater<Inflight>>
        inflight_;
};

/** What one differential run exercised, so the test can prove it. */
struct DiffCoverage
{
    std::uint64_t completions = 0;
    std::uint64_t fullQueueRefusals = 0;
    std::uint64_t sharedCycleCrossChannel = 0; ///< ties across channels
    std::uint64_t writes = 0;
};

/**
 * Drive the stack and the reference with one seeded random stream and
 * compare every completion, in order. Addresses come from a few rows
 * per bank, so hits, conflicts and first touches all occur; bursts
 * aimed at one channel fill its queue; and quiet stretches let the
 * stack sit idle between them.
 */
DiffCoverage
runDifferential(const HbmParams &p, std::uint64_t seed, Cycle cycles)
{
    std::vector<Completion> got, want;
    HbmStack dut(p, [&](const MemRequest &r, Cycle c) {
        got.emplace_back(c, r.addr, r.write, r.tag);
    });
    ReferenceHbm ref(p);
    Rng rng(seed);
    DiffCoverage cov;

    const Addr lines_per_row = 64;
    const Addr stride = static_cast<Addr>(p.channels) *
                        static_cast<Addr>(p.banksPerChannel);
    auto pick_addr = [&](int channel) {
        Addr bank = rng.nextBounded(static_cast<std::uint64_t>(
            p.banksPerChannel));
        Addr row = rng.nextBounded(3);
        Addr col = rng.nextBounded(lines_per_row);
        Addr line = (row * lines_per_row + col) * stride +
                    bank * static_cast<Addr>(p.channels) +
                    static_cast<Addr>(channel);
        return line * static_cast<Addr>(p.lineBytes);
    };

    std::vector<Cycle> due(static_cast<std::size_t>(cycles) + 1);
    std::vector<bool> enqueued(static_cast<std::size_t>(cycles) + 2);
    std::vector<bool> acted(static_cast<std::size_t>(cycles) + 2);
    std::uint64_t tag = 0;
    for (Cycle now = 1; now <= cycles; ++now) {
        int offers = 0;
        // Phases: bursts (queue-filling), trickle, silence.
        Cycle phase = (now / 400) % 3;
        if (phase == 0 && rng.chance(0.5))
            offers = 1 + static_cast<int>(rng.nextBounded(6));
        else if (phase == 1 && rng.chance(0.05))
            offers = 1;
        int burst_channel =
            static_cast<int>(rng.nextBounded(static_cast<std::uint64_t>(
                p.channels)));
        for (int i = 0; i < offers; ++i) {
            int c = rng.chance(0.7)
                        ? burst_channel
                        : static_cast<int>(rng.nextBounded(
                              static_cast<std::uint64_t>(p.channels)));
            Addr a = pick_addr(c);
            bool ok = dut.canEnqueue(a);
            EXPECT_EQ(ok, ref.canEnqueue(a)) << "cycle " << now;
            if (!ok) {
                ++cov.fullQueueRefusals;
                continue;
            }
            MemRequest r{a, rng.chance(0.3), ++tag};
            cov.writes += r.write;
            dut.enqueue(r, now);
            ref.enqueue(r);
            enqueued[static_cast<std::size_t>(now)] = true;
        }
        std::size_t before = want.size();
        dut.tick(now);
        acted[static_cast<std::size_t>(now)] = ref.tick(now, want);
        due[static_cast<std::size_t>(now)] = dut.nextDueCycle(now);
        std::vector<int> chans;
        for (std::size_t i = before; i < want.size(); ++i)
            chans.push_back(dut.channelOf(std::get<1>(want[i])));
        std::sort(chans.begin(), chans.end());
        if (std::unique(chans.begin(), chans.end()) - chans.begin() > 1)
            ++cov.sharedCycleCrossChannel;
    }

    EXPECT_EQ(got, want);
    cov.completions = want.size();
    StatGroup st = dut.stats();
    EXPECT_EQ(st.get("row_hits"), static_cast<double>(ref.rowHits));
    EXPECT_EQ(st.get("row_conflicts"),
              static_cast<double>(ref.rowConflicts));
    EXPECT_EQ(st.get("row_empty"), static_cast<double>(ref.rowEmpty));
    EXPECT_GT(ref.rowHits, 0u);
    EXPECT_GT(ref.rowConflicts, 0u);
    EXPECT_GT(ref.rowEmpty, 0u);

    // The time-wheel contract: absent an enqueue (the only external
    // wake), the reference changes state no earlier than the stack's
    // reported due cycle.
    int violations = 0;
    for (Cycle now = 1; now < cycles; ++now) {
        Cycle next_change = now + 1;
        while (next_change <= cycles &&
               !acted[static_cast<std::size_t>(next_change)] &&
               !enqueued[static_cast<std::size_t>(next_change)])
            ++next_change;
        if (next_change > cycles ||
            enqueued[static_cast<std::size_t>(next_change)])
            continue;
        Cycle reported = due[static_cast<std::size_t>(now)];
        if (reported > next_change && ++violations <= 5)
            ADD_FAILURE() << "nextDueCycle(" << now << ") = " << reported
                          << " but the reference acts at " << next_change;
    }
    EXPECT_EQ(violations, 0);
    return cov;
}

TEST(HbmDifferential, MatchesAllChannelScanAtPaperGeometry)
{
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        DiffCoverage cov = runDifferential(HbmParams{}, seed, 12000);
        EXPECT_GT(cov.completions, 1000u);
        EXPECT_GT(cov.writes, 0u);
        EXPECT_GT(cov.fullQueueRefusals, 0u);
        EXPECT_GT(cov.sharedCycleCrossChannel, 0u);
    }
}

TEST(HbmDifferential, MatchesAllChannelScanOnSmallQueues)
{
    HbmParams p;
    p.channels = 3;
    p.banksPerChannel = 2;
    p.queueDepth = 4;
    for (std::uint64_t seed : {11u, 12u}) {
        DiffCoverage cov = runDifferential(p, seed, 12000);
        EXPECT_GT(cov.fullQueueRefusals, 0u);
        EXPECT_GT(cov.sharedCycleCrossChannel, 0u);
    }
}

TEST(HbmDifferential, MatchesAllChannelScanAtFullMaskWidth)
{
    HbmParams p;
    p.channels = HbmStack::kMaxChannels; // bit 63 of the backlog mask
    p.queueDepth = 2;
    DiffCoverage cov = runDifferential(p, 21, 12000);
    EXPECT_GT(cov.fullQueueRefusals, 0u);
    EXPECT_GT(cov.sharedCycleCrossChannel, 0u);
}

} // namespace
} // namespace eqx
