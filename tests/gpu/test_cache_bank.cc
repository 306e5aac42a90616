/** @file Cache bank: L2 service, miss handling, reply backpressure. */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "gpu/cache_bank.hh"

namespace eqx {
namespace {

class CapturingInjector : public PacketInjector
{
  public:
    bool
    tryInject(const PacketPtr &pkt) override
    {
        if (!accepting)
            return false;
        sent.push_back(pkt);
        sentAt.push_back(clock ? *clock : 0);
        return true;
    }

    bool accepting = true;
    std::vector<PacketPtr> sent;
    const Cycle *clock = nullptr; ///< stamps sentAt when set
    std::vector<Cycle> sentAt;
};

struct Fixture
{
    explicit Fixture(CbParams p = CbParams{})
        : cb(5, p, &inj, &sizes)
    {
        inj.clock = &clock;
    }

    void
    run(int cycles)
    {
        for (int i = 0; i < cycles; ++i)
            cb.tick(++clock);
    }

    PacketPtr
    request(Addr addr, bool write = false, NodeId src = 1)
    {
        return makePacket(write ? PacketType::WriteRequest
                                : PacketType::ReadRequest,
                          src, 5,
                          write ? sizes.writeRequestBits
                                : sizes.readRequestBits,
                          addr);
    }

    CapturingInjector inj;
    PacketSizes sizes;
    Cycle clock = 0;
    CacheBank cb;
};

TEST(CacheBank, ColdReadMissProducesReadReply)
{
    Fixture f;
    auto req = f.request(0x4000);
    ASSERT_TRUE(f.cb.canAccept(req));
    f.cb.accept(req, 0);
    f.run(300);
    ASSERT_EQ(f.inj.sent.size(), 1u);
    const auto &rep = f.inj.sent[0];
    EXPECT_EQ(rep->type, PacketType::ReadReply);
    EXPECT_EQ(rep->src, 5);
    EXPECT_EQ(rep->dst, 1);
    EXPECT_EQ(rep->addr, 0x4000u);
    EXPECT_TRUE(f.cb.drained());
    EXPECT_EQ(f.cb.stats().get("l2_read_misses"), 1.0);
}

TEST(CacheBank, SecondAccessHitsAndIsFaster)
{
    Fixture f;
    f.cb.accept(f.request(0x4000), 0);
    f.run(300);
    Cycle miss_done = f.clock;
    (void)miss_done;
    f.inj.sent.clear();
    Cycle start = f.clock;
    f.cb.accept(f.request(0x4000, false, 2), f.clock);
    f.run(300);
    ASSERT_EQ(f.inj.sent.size(), 1u);
    EXPECT_EQ(f.cb.stats().get("l2_read_hits"), 1.0);
    // A hit completes in about the L2 pipeline latency.
    EXPECT_LE(f.inj.sent[0]->cycleCreated, start + 30);
}

TEST(CacheBank, ConcurrentMissesMerge)
{
    Fixture f;
    f.cb.accept(f.request(0x8000, false, 1), 0);
    f.cb.accept(f.request(0x8000, false, 2), 0);
    f.cb.accept(f.request(0x8000, false, 3), 0);
    f.run(400);
    EXPECT_EQ(f.inj.sent.size(), 3u); // one reply per requester
    EXPECT_EQ(f.cb.stats().get("l2_miss_merges"), 2.0);
    EXPECT_EQ(f.cb.stats().get("fills"), 1.0);
    // Only one memory access went to the HBM stack.
    EXPECT_EQ(f.cb.hbm().stats().get("reads"), 1.0);
}

TEST(CacheBank, WriteMissAllocatesAndAcks)
{
    Fixture f;
    f.cb.accept(f.request(0xC000, true), 0);
    f.run(400);
    ASSERT_EQ(f.inj.sent.size(), 1u);
    EXPECT_EQ(f.inj.sent[0]->type, PacketType::WriteReply);
    EXPECT_EQ(f.cb.stats().get("l2_write_misses"), 1.0);
    // Line is now resident and dirty; a read hits it.
    f.inj.sent.clear();
    f.cb.accept(f.request(0xC000), f.clock);
    f.run(50);
    ASSERT_EQ(f.inj.sent.size(), 1u);
    EXPECT_EQ(f.inj.sent[0]->type, PacketType::ReadReply);
    EXPECT_EQ(f.cb.stats().get("l2_read_hits"), 1.0);
}

TEST(CacheBank, InputQueueBoundsAcceptance)
{
    CbParams p;
    p.inputQueuePackets = 2;
    Fixture f(p);
    f.cb.accept(f.request(0x1000), 0);
    f.cb.accept(f.request(0x2000), 0);
    EXPECT_FALSE(f.cb.canAccept(f.request(0x3000)));
    f.run(300);
    EXPECT_TRUE(f.cb.canAccept(f.request(0x3000)));
}

TEST(CacheBank, BlockedReplyInjectionBackpressuresRequests)
{
    // The parking-lot mechanism: replies cannot inject, so the reply
    // queue fills, hits stall, the input queue fills, and canAccept
    // goes false - propagating pressure into the request network.
    CbParams p;
    p.inputQueuePackets = 4;
    p.replyQueuePackets = 2;
    Fixture f(p);
    f.inj.accepting = false;

    // Warm a line so subsequent requests are hits (hit path is the
    // one gated by the reply queue).
    f.cb.accept(f.request(0x0), 0);
    f.run(300);

    for (int i = 0; i < 12; ++i) {
        auto req = f.request(0x0, false, static_cast<NodeId>(i + 1));
        if (f.cb.canAccept(req))
            f.cb.accept(req, f.clock);
        f.run(20);
    }
    EXPECT_FALSE(f.cb.canAccept(f.request(0x0)));
    EXPECT_GT(f.cb.stats().get("stall_reply_queue"), 0.0);

    // Release the injection: everything drains.
    f.inj.accepting = true;
    f.run(600);
    EXPECT_TRUE(f.cb.drained());
    EXPECT_TRUE(f.cb.canAccept(f.request(0x0)));
}

TEST(CacheBank, DirtyEvictionWritesBack)
{
    // Tiny L2 so we can overflow a set quickly.
    CbParams p;
    p.l2 = CacheGeometry{2 * 64 * 4, 64, 2}; // 4 sets x 2 ways
    Fixture f(p);
    // Dirty a line, then evict it with two more lines in the same set.
    Addr base = 0;
    Addr stride = 4 * 64; // same set (4 sets)
    f.cb.accept(f.request(base, true), 0);
    f.run(300);
    f.cb.accept(f.request(base + stride), f.clock);
    f.run(300);
    f.cb.accept(f.request(base + 2 * stride), f.clock);
    f.run(500);
    EXPECT_GE(f.cb.hbm().stats().get("writes"), 1.0);
    EXPECT_GE(f.cb.stats().get("writebacks_done"), 1.0);
    EXPECT_TRUE(f.cb.drained());
}

/**
 * A bank that drains and then idles for a long stretch must come back
 * on accept() and serve the request in that very cycle: the reply
 * timing is the bank's fixed pipeline, whether the idle cycles were
 * ticked (and gated inside the bank) or skipped by the owner.
 */
TEST(CacheBank, AcceptWakesIdleBankSameCycle)
{
    const CbParams p;
    const DramTiming &t = p.hbm.timing;
    for (bool tick_idle : {true, false}) {
        SCOPED_TRACE(tick_idle ? "idle cycles ticked"
                               : "idle cycles skipped");
        Fixture f(p);
        // Drive as System does: a request is accepted (NoC ejection)
        // before the bank's tick in the same cycle, and with skipping
        // on, the owner jumps to one cycle before the bank's due cycle.
        auto advance_to = [&](Cycle target) {
            while (f.clock < target) {
                Cycle due = f.cb.nextDueCycle(f.clock);
                if (tick_idle || due <= f.clock + 1)
                    f.cb.tick(++f.clock);
                else
                    f.clock = std::min(target, due - 1);
            }
        };

        // Cold miss: HBM issues the cycle after accept, row empty.
        Cycle t0 = 10;
        advance_to(t0 - 1);
        f.cb.accept(f.request(0x4000), t0);
        advance_to(t0 + 200);
        ASSERT_EQ(f.inj.sentAt.size(), 1u);
        EXPECT_EQ(f.inj.sentAt[0],
                  t0 + 1 + static_cast<Cycle>(t.tRCD + t.tCL + t.tBL));
        ASSERT_TRUE(f.cb.drained());
        EXPECT_EQ(f.cb.nextDueCycle(f.clock), kNeverCycle);

        // Long idle stretch, then an L2 hit.
        Cycle t1 = t0 + 50000;
        advance_to(t1 - 1);
        f.cb.accept(f.request(0x4000), t1);
        advance_to(t1 + 200);
        ASSERT_EQ(f.inj.sentAt.size(), 2u);
        EXPECT_EQ(f.inj.sentAt[1], t1 + static_cast<Cycle>(p.l2HitLatency));

        // Another idle stretch, then a miss to the same open DRAM row.
        Cycle t2 = t1 + 70000;
        advance_to(t2 - 1);
        f.cb.accept(f.request(0x4000 + 64 * 16 * 8), t2);
        advance_to(t2 + 200);
        ASSERT_EQ(f.inj.sentAt.size(), 3u);
        EXPECT_EQ(f.inj.sentAt[2],
                  t2 + 1 + static_cast<Cycle>(t.tCL + t.tBL));
        EXPECT_EQ(f.cb.stats().get("l2_read_misses"), 2.0);
        EXPECT_EQ(f.cb.hbm().stats().get("row_hits"), 1.0);
        EXPECT_TRUE(f.cb.drained());
    }
}

/**
 * InvAcks go through accept() too: one arriving at an idle bank, or in
 * the middle of an L2 hit, must leave the bank's timing untouched.
 */
TEST(CacheBank, InvAckAcceptKeepsTiming)
{
    const CbParams p;
    Fixture f(p);
    auto ack = [&] {
        return makePacket(PacketType::InvAck, 1, 5, f.sizes.invAckBits, 0);
    };

    f.cb.accept(f.request(0x4000), 1);
    f.run(300);
    ASSERT_EQ(f.inj.sent.size(), 1u);

    // Idle bank: the ack is counted and the bank stays drained.
    f.run(4700);
    ASSERT_TRUE(f.cb.canAccept(ack()));
    f.cb.accept(ack(), f.clock + 1);
    f.run(1);
    EXPECT_EQ(f.cb.invAcksReceived(), 1u);
    EXPECT_TRUE(f.cb.drained());
    EXPECT_EQ(f.cb.nextDueCycle(f.clock), kNeverCycle);
    EXPECT_EQ(f.inj.sent.size(), 1u);

    // An ack mid-hit: the reply still leaves at the hit latency.
    f.run(3998);
    Cycle t1 = f.clock + 1;
    f.cb.accept(f.request(0x4000, false, 2), t1);
    f.run(4);
    f.cb.accept(ack(), f.clock + 1);
    f.run(100);
    ASSERT_EQ(f.inj.sentAt.size(), 2u);
    EXPECT_EQ(f.inj.sentAt[1], t1 + static_cast<Cycle>(p.l2HitLatency));
    EXPECT_EQ(f.cb.invAcksReceived(), 2u);
    EXPECT_EQ(f.cb.stats().get("inv_acks_received"), 2.0);
    EXPECT_TRUE(f.cb.drained());
}

TEST(CacheBank, RejectsInvalidParams)
{
    CapturingInjector inj;
    PacketSizes sizes;
    CbParams p;
    p.requestsPerCycle = 0;
    EXPECT_THROW(CacheBank(5, p, &inj, &sizes), std::logic_error);
    p = CbParams{};
    p.l2HitLatency = -1;
    EXPECT_THROW(CacheBank(5, p, &inj, &sizes), std::logic_error);
    p = CbParams{};
    p.hbm.lineBytes = 0;
    EXPECT_THROW(CacheBank(5, p, &inj, &sizes), std::logic_error);
}

TEST(CacheBank, ReplyDelivModeRejectsReplies)
{
    Fixture f;
    auto reply = makePacket(PacketType::ReadReply, 2, 5, 640);
    EXPECT_THROW(f.cb.canAccept(reply), std::logic_error);
}

} // namespace
} // namespace eqx
