/** @file Router pipeline: RC/VA/SA stages, atomic VCs, credits. */

#include <gtest/gtest.h>

#include <memory>

#include "noc/router.hh"

namespace eqx {
namespace {

/**
 * A single router wired by hand: one Geo input (from the "west"
 * neighbour), one Geo output (to the "east"), plus the local ejection
 * port. The test drives flits in via acceptFlit and steps the stages
 * in the same order the network does (SA, VA, RC per tick).
 */
class RouterHarness : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        topo = makeTopology(3, 3);
        router = std::make_unique<Router>(4 /*centre (1,1)*/, topo.get(),
                                          &params, &activity);
        inCredit = std::make_unique<Channel<Credit>>(1);
        outFlits = std::make_unique<Channel<Flit>>(1);
        ejFlits = std::make_unique<Channel<Flit>>(1);
        inPort = router->addInputPort(PortKind::Geo, Dir::West,
                                      inCredit.get());
        outPort = router->addOutputPort(PortKind::Geo, Dir::East,
                                        outFlits.get());
        ejPort = router->addOutputPort(PortKind::LocalEj, Dir::Local,
                                       ejFlits.get());
    }

    /** Run one internal tick worth of stages. */
    void
    tick()
    {
        ++now;
        router->switchAllocStage(now);
        router->vcAllocStage(now);
        router->routeComputeStage(now);
    }

    /** Send a whole packet into input VC @p vc. */
    PacketPtr
    sendPacket(NodeId dst, int vc, int flits = 1)
    {
        auto pkt = makePacket(flits > 1 ? PacketType::ReadReply
                                        : PacketType::ReadRequest,
                              3, dst, flits * params.flitBits);
        for (int i = 0; i < flits; ++i) {
            Flit f;
            f.pkt = pkt;
            f.index = i;
            f.isHead = i == 0;
            f.isTail = i == flits - 1;
            f.vc = vc;
            router->acceptFlit(inPort, std::move(f), now);
        }
        return pkt;
    }

    VcState state(int vc) const { return router->vcState(inPort, vc); }

    int
    drainOut(Channel<Flit> &ch)
    {
        Flit f;
        int n = 0;
        while (ch.receive(now + 2, f))
            ++n;
        return n;
    }

    NocParams params;
    NetworkActivity activity;
    std::unique_ptr<const Topology> topo;
    std::unique_ptr<Router> router;
    std::unique_ptr<Channel<Credit>> inCredit;
    std::unique_ptr<Channel<Flit>> outFlits;
    std::unique_ptr<Channel<Flit>> ejFlits;
    int inPort = -1, outPort = -1, ejPort = -1;
    Cycle now = 0;
};

TEST_F(RouterHarness, RcRoutesEjectionForLocalDest)
{
    sendPacket(4 /*this node*/, 0);
    tick(); // RC
    EXPECT_EQ(state(0), VcState::RouteComputed);
    auto cands = router->candidatePorts(inPort, 0);
    ASSERT_EQ(cands.size(), 1u);
    EXPECT_EQ(cands[0], ejPort);
}

TEST_F(RouterHarness, RcRoutesEastForEastDest)
{
    sendPacket(5 /*(2,1)*/, 0);
    tick();
    auto cands = router->candidatePorts(inPort, 0);
    ASSERT_FALSE(cands.empty());
    EXPECT_EQ(cands[0], outPort);
}

TEST_F(RouterHarness, FullPipelineTraversesInThreeTicks)
{
    sendPacket(5, 0);
    tick(); // RC
    tick(); // VA
    EXPECT_EQ(state(0), VcState::Active);
    tick(); // SA + ST: flit on the output channel
    EXPECT_EQ(drainOut(*outFlits), 1);
    EXPECT_EQ(state(0), VcState::Idle); // tail released it
    EXPECT_EQ(router->flitsForwarded(), 1u);
}

TEST_F(RouterHarness, CreditReturnedUpstreamOnTraversal)
{
    sendPacket(5, 0);
    tick();
    tick();
    tick();
    Credit c;
    ASSERT_TRUE(inCredit->receive(now + 2, c));
    EXPECT_EQ(c.vc, 0);
}

TEST_F(RouterHarness, AtomicVcSecondPacketWaitsForDownstreamDrain)
{
    // First multi-flit packet wins output VC 0; a second packet in the
    // other input VC must not be granted any output VC on that port
    // until the downstream buffer is empty again (credits return).
    sendPacket(5, 0, 3);
    sendPacket(5, 1, 3);
    tick(); // RC both
    tick(); // VA: both request; only one wins (distinct out VCs okay,
            // but out VC 1 is also free - so both may become Active).
    // Drive until the first packet fully leaves.
    int sent = 0;
    for (int i = 0; i < 20 && sent < 6; ++i) {
        tick();
        sent += drainOut(*outFlits);
    }
    EXPECT_EQ(sent, 6); // both packets eventually traverse

    // Now occupy out VC 0 downstream: no credits returned.
    sendPacket(5, 0, 3);
    tick();
    tick();
    // Both output VCs are released (tails sent) but hold only the
    // credits of a partly drained downstream buffer, and only a VC
    // with all its credits back may be granted: the third packet
    // waits in VA.
    for (int vc = 0; vc < 2; ++vc) {
        EXPECT_FALSE(router->outBusy(outPort, vc));
        EXPECT_EQ(router->outCredits(outPort, vc), params.vcDepthFlits - 3);
    }
    EXPECT_EQ(state(0), VcState::RouteComputed);
}

TEST_F(RouterHarness, NoCreditsNoTraversal)
{
    // Exhaust the credits of *both* output VCs (no credits are ever
    // returned in this harness): two 5-flit packets fill the adaptive
    // and escape VC budgets, then a third packet must stall in VA.
    sendPacket(5, 0, 5);
    for (int i = 0; i < 12; ++i)
        tick();
    sendPacket(5, 1, 5);
    for (int i = 0; i < 12; ++i)
        tick();
    EXPECT_EQ(drainOut(*outFlits), 10);

    sendPacket(5, 0, 5);
    for (int i = 0; i < 12; ++i)
        tick();
    EXPECT_EQ(drainOut(*outFlits), 0); // fully out of credits
    EXPECT_EQ(state(0), VcState::RouteComputed); // VA stalled

    // Return credits on VC 0: traffic resumes.
    for (int i = 0; i < 5; ++i)
        router->creditArrived(outPort, 0);
    for (int i = 0; i < 12; ++i)
        tick();
    EXPECT_EQ(drainOut(*outFlits), 5);
}

TEST_F(RouterHarness, EscapeVcSticksToEscapeAndXy)
{
    // params default to MinimalAdaptive; VC 1 is the escape VC. A
    // packet arriving *in* the escape VC may only request the escape
    // VC of the XY output port.
    sendPacket(5, 1); // east is also the XY direction here
    tick();
    tick();
    EXPECT_EQ(state(1), VcState::Active);
    EXPECT_EQ(router->grantedOutVc(inPort, 1), 1);
    EXPECT_EQ(router->grantedOutPort(inPort, 1), outPort);
}

TEST_F(RouterHarness, AdaptivePacketFallsIntoEscapeWhenBlocked)
{
    // Block the adaptive out VC (0) by marking it busy via a first
    // packet that cannot drain (no credits returned after 5 flits).
    sendPacket(5, 0, 5);
    for (int i = 0; i < 10; ++i)
        tick();
    drainOut(*outFlits);
    // Adaptive VC 0 downstream is now full and still busy; next packet
    // in adaptive input VC 0 must fall into the escape VC 1.
    sendPacket(5, 0, 1);
    tick();
    tick();
    EXPECT_EQ(state(0), VcState::Active);
    EXPECT_EQ(router->grantedOutVc(inPort, 0), 1);
}

TEST_F(RouterHarness, ResidenceStatTracksBufferTime)
{
    sendPacket(5, 0);
    tick();
    tick();
    tick();
    EXPECT_EQ(router->residenceStat().count(), 1u);
    EXPECT_NEAR(router->residenceStat().mean(), 3.0, 1.01);
}

TEST_F(RouterHarness, HasBufferedFlitsReflectsOccupancy)
{
    EXPECT_FALSE(router->hasBufferedFlits());
    sendPacket(5, 0);
    EXPECT_TRUE(router->hasBufferedFlits());
    for (int i = 0; i < 5; ++i)
        tick();
    drainOut(*outFlits);
    EXPECT_FALSE(router->hasBufferedFlits());
}

} // namespace
} // namespace eqx
