/** @file Exact segment-intersection predicates (RDL crossing rules). */

#include <gtest/gtest.h>

#include "common/geometry.hh"
#include "common/rng.hh"

namespace eqx {
namespace {

TEST(Geometry, OrientSigns)
{
    EXPECT_GT(orient({0, 0}, {1, 0}, {1, 1}), 0);
    EXPECT_LT(orient({0, 0}, {1, 0}, {1, -1}), 0);
    EXPECT_EQ(orient({0, 0}, {1, 1}, {2, 2}), 0);
}

TEST(Geometry, ProperCrossing)
{
    Segment a{{0, 0}, {2, 2}};
    Segment b{{0, 2}, {2, 0}};
    EXPECT_TRUE(segmentsIntersect(a, b));
    EXPECT_TRUE(segmentsCross(a, b));
}

TEST(Geometry, DisjointSegments)
{
    Segment a{{0, 0}, {1, 0}};
    Segment b{{0, 2}, {1, 2}};
    EXPECT_FALSE(segmentsIntersect(a, b));
    EXPECT_FALSE(segmentsCross(a, b));
}

TEST(Geometry, SharedEndpointIsNotACrossing)
{
    // Two wires fanning out of the same ubump do not need a new layer.
    Segment a{{0, 0}, {2, 0}};
    Segment b{{0, 0}, {0, 2}};
    EXPECT_TRUE(segmentsIntersect(a, b));
    EXPECT_FALSE(segmentsCross(a, b));
}

TEST(Geometry, TTouchMidSegmentIsACrossing)
{
    // One wire ending on the middle of another must be separated.
    Segment a{{0, 0}, {4, 0}};
    Segment b{{2, 0}, {2, 3}};
    EXPECT_TRUE(segmentsCross(a, b));
}

TEST(Geometry, CollinearOverlapIsACrossing)
{
    Segment a{{0, 0}, {4, 0}};
    Segment b{{2, 0}, {6, 0}};
    EXPECT_TRUE(segmentsCross(a, b));
}

TEST(Geometry, CollinearTouchingAtSharedEndpointOnly)
{
    Segment a{{0, 0}, {2, 0}};
    Segment b{{2, 0}, {4, 0}};
    EXPECT_TRUE(segmentsIntersect(a, b));
    EXPECT_FALSE(segmentsCross(a, b));
}

TEST(Geometry, CollinearContainmentThroughSharedEndpoint)
{
    // Shares endpoint (0,0) but b continues inside a: real overlap.
    Segment a{{0, 0}, {4, 0}};
    Segment b{{0, 0}, {2, 0}};
    EXPECT_TRUE(segmentsCross(a, b));
}

TEST(Geometry, CountCrossingsPairwise)
{
    // The paper's Figure 3 example shape: three crossing pairs need
    // at least two metal layers.
    std::vector<Segment> segs = {
        {{0, 1}, {4, 1}}, // horizontal
        {{1, 0}, {1, 3}}, // vertical crossing it
        {{3, 0}, {3, 3}}, // another vertical crossing it
        {{0, 2}, {4, 2}}, // horizontal crossing both verticals
    };
    // pairs: h1-v1, h1-v2, h2-v1, h2-v2 = 4 crossings
    EXPECT_EQ(countCrossings(segs), 4);
    EXPECT_EQ(rdlLayersNeeded(segs), 2);
}

TEST(Geometry, LayersForNonCrossingSetIsOne)
{
    std::vector<Segment> segs = {
        {{0, 0}, {2, 0}},
        {{0, 1}, {2, 1}},
        {{0, 2}, {2, 2}},
    };
    EXPECT_EQ(countCrossings(segs), 0);
    EXPECT_EQ(rdlLayersNeeded(segs), 1);
}

TEST(Geometry, LayersEmptySet)
{
    EXPECT_EQ(rdlLayersNeeded({}), 0);
}

TEST(Geometry, MutualCrossingsNeedThreeLayers)
{
    // Three segments pairwise crossing at distinct points: a triangle
    // of crossings forces three layers under proper colouring.
    std::vector<Segment> segs = {
        {{0, 0}, {6, 2}},
        {{0, 2}, {6, 0}},
        {{3, -2}, {3, 4}},
    };
    EXPECT_EQ(countCrossings(segs), 3);
    EXPECT_EQ(rdlLayersNeeded(segs), 3);
}

TEST(Geometry, SegmentLength)
{
    EXPECT_DOUBLE_EQ(segmentLength({{0, 0}, {3, 4}}), 5.0);
    EXPECT_DOUBLE_EQ(segmentLength({{1, 1}, {1, 1}}), 0.0);
}

TEST(Geometry, CrossingTableMatchesSegmentsCross)
{
    std::vector<Segment> segs = {
        {{0, 0}, {2, 2}}, {{0, 2}, {2, 0}}, {{0, 0}, {0, 3}},
        {{0, 0}, {2, 0}}, {{1, 0}, {3, 0}}, {{2, 2}, {4, 2}},
    };
    CrossingTable table(segs);
    ASSERT_EQ(table.size(), segs.size());
    for (std::size_t i = 0; i < segs.size(); ++i)
        for (std::size_t j = 0; j < segs.size(); ++j)
            EXPECT_EQ(table.crosses(i, j), segmentsCross(segs[i], segs[j]))
                << i << " vs " << j;
}

TEST(Geometry, LedgerEqualsRecountUnderRandomAddRemove)
{
    // Random slots of up to four wires (a repeated id included) over a
    // table wider than one 64-bit word per row.
    Rng rng(17);
    std::vector<Segment> segs;
    for (int i = 0; i < 150; ++i) {
        Coord a{static_cast<int>(rng.nextBounded(10)),
                static_cast<int>(rng.nextBounded(10))};
        Coord b{static_cast<int>(rng.nextBounded(10)),
                static_cast<int>(rng.nextBounded(10))};
        segs.push_back({a, b});
    }
    CrossingTable table(segs);
    CrossingLedger ledger(&table);
    constexpr int kSlots = 8;
    std::vector<std::vector<std::uint16_t>> present(kSlots);
    for (int step = 0; step < 2000; ++step) {
        int slot = static_cast<int>(rng.nextBounded(kSlots));
        auto &ids = present[static_cast<std::size_t>(slot)];
        if (!ids.empty()) {
            ledger.remove(slot);
            ids.clear();
        } else {
            std::size_t n = rng.nextBounded(5);
            for (std::size_t k = 0; k < n; ++k)
                ids.push_back(static_cast<std::uint16_t>(
                    rng.nextBounded(segs.size())));
            ledger.add(slot, ids);
        }
        std::vector<Segment> all;
        for (const auto &p : present)
            for (std::uint16_t id : p)
                all.push_back(segs[id]);
        ASSERT_EQ(ledger.crossings(), countCrossings(all)) << step;
        ASSERT_EQ(ledger.size(), all.size());
    }
}

} // namespace
} // namespace eqx
