/** @file End-to-end EquiNox design flow (paper Section 4 / Fig. 7). */

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>

#include "core/design_flow.hh"
#include "core/placement.hh"

namespace eqx {
namespace {

DesignParams
quickParams()
{
    DesignParams dp;
    dp.mcts.iterationsPerLevel = 150;
    dp.polishPasses = 2;
    return dp;
}

TEST(DesignFlow, ProducesPaperLikeDesignFor8x8)
{
    EquiNoxDesign d = buildEquiNoxDesign(quickParams());
    ASSERT_EQ(d.cbs.size(), 8u);
    EXPECT_TRUE(isDiagonalFree(d.cbs));
    EXPECT_TRUE(isPermutationPlacement(d.cbs));

    EirProblem prob(8, 8, d.cbs, 3, 4);
    EXPECT_TRUE(prob.valid(d.eirGroups));

    // Paper's headline attributes of the found design: a healthy EIR
    // population, no RDL crossings (one metal layer), and links within
    // the 1-cycle interposer reach.
    EXPECT_GE(d.numEirs(), 12);
    EXPECT_LE(d.rdl.crossings, 1);
    EXPECT_LE(d.rdl.layersNeeded, 2);
    EXPECT_FALSE(d.rdl.needsRepeaters);
    EXPECT_LE(d.rdl.maxHops, 3);
}

TEST(DesignFlow, MostEirsTwoHopsOut)
{
    EquiNoxDesign d = buildEquiNoxDesign(quickParams());
    int two = 0, total = 0;
    for (std::size_t i = 0; i < d.eirGroups.size(); ++i) {
        for (const auto &e : d.eirGroups[i]) {
            ++total;
            if (manhattan(d.cbs[i], e) == 2)
                ++two;
        }
    }
    ASSERT_GT(total, 0);
    EXPECT_GE(two * 2, total); // at least half strictly 2 hops
}

TEST(DesignFlow, DeterministicForSeed)
{
    DesignParams dp = quickParams();
    dp.seed = 9;
    EquiNoxDesign a = buildEquiNoxDesign(dp);
    EquiNoxDesign b = buildEquiNoxDesign(dp);
    EXPECT_EQ(a.cbs, b.cbs);
    EXPECT_EQ(a.eirGroups, b.eirGroups);
}

TEST(DesignFlow, FixedPlacementHonoured)
{
    DesignParams dp = quickParams();
    dp.fixedPlacement = makePlacement(PlacementKind::Diamond, 8, 8, 8);
    EquiNoxDesign d = buildEquiNoxDesign(dp);
    EXPECT_EQ(d.cbs, dp.fixedPlacement);
}

TEST(DesignFlow, NodeMappingRoundTrips)
{
    EquiNoxDesign d = buildEquiNoxDesign(quickParams());
    auto groups = d.eirGroupsByNode();
    EXPECT_EQ(groups.size(), 8u);
    std::set<NodeId> all_eirs;
    for (const auto &[cb, eirs] : groups) {
        EXPECT_GE(cb, 0);
        EXPECT_LT(cb, 64);
        for (NodeId e : eirs) {
            EXPECT_NE(e, cb);
            EXPECT_TRUE(all_eirs.insert(e).second); // no sharing
        }
    }
    EXPECT_EQ(static_cast<int>(all_eirs.size()), d.numEirs());
    EXPECT_EQ(d.cbNodes().size(), 8u);
}

TEST(DesignFlow, AsciiShowsGroups)
{
    EquiNoxDesign d = buildEquiNoxDesign(quickParams());
    std::string art = d.ascii();
    EXPECT_NE(art.find('A'), std::string::npos);
    EXPECT_NE(art.find('a'), std::string::npos);
}

TEST(DesignFlow, AlternativeSearchMethodsProduceValidDesigns)
{
    for (SearchMethod m :
         {SearchMethod::Greedy, SearchMethod::Random,
          SearchMethod::Anneal, SearchMethod::Genetic}) {
        DesignParams dp = quickParams();
        dp.method = m;
        EquiNoxDesign d = buildEquiNoxDesign(dp);
        EirProblem prob(8, 8, d.cbs, 3, 4);
        EXPECT_TRUE(prob.valid(d.eirGroups)) << searchMethodName(m);
    }
}

TEST(DesignFlow, ScalesTo12x12)
{
    DesignParams dp = quickParams();
    dp.width = dp.height = 12;
    dp.mcts.iterationsPerLevel = 60;
    dp.polishPasses = 1;
    EquiNoxDesign d = buildEquiNoxDesign(dp);
    EXPECT_EQ(d.cbs.size(), 8u); // still 8 HBM stacks
    EirProblem prob(12, 12, d.cbs, 3, 4);
    EXPECT_TRUE(prob.valid(d.eirGroups));
    EXPECT_GT(d.numEirs(), 8);
}

TEST(DesignFlow, KnightPathWhenMoreCbsThanN)
{
    DesignParams dp = quickParams();
    dp.numCbs = 10; // > N = 8 -> knight-move placement
    dp.mcts.iterationsPerLevel = 40;
    dp.polishPasses = 1;
    EquiNoxDesign d = buildEquiNoxDesign(dp);
    EXPECT_EQ(d.cbs.size(), 10u);
    EirProblem prob(8, 8, d.cbs, 3, 4);
    EXPECT_TRUE(prob.valid(d.eirGroups));
}

/**
 * The default-parameter designs, pinned: CBs, EIR groups, placement
 * penalty, evaluation count and the exact score. These are the designs
 * the end-to-end benchmark builds (8x8 mesh; 16x16 mesh and torus), so
 * any change to the design flow's arithmetic, Rng stream or
 * enumeration order shows up here first.
 */
struct PinnedDesign
{
    const char *name;
    int side;
    TopologyKind kind;
    std::vector<Coord> cbs;
    EirSelection groups;
    int penalty;
    std::uint64_t evaluations;
    double score;
};

class DesignPins : public ::testing::TestWithParam<PinnedDesign> {};

TEST_P(DesignPins, DefaultDesignIsPinned)
{
    const PinnedDesign &pin = GetParam();
    DesignParams dp;
    dp.width = dp.height = pin.side;
    dp.topo.kind = pin.kind;
    EquiNoxDesign d = buildEquiNoxDesign(dp);
    EXPECT_EQ(d.cbs, pin.cbs);
    EXPECT_EQ(d.eirGroups, pin.groups);
    EXPECT_EQ(d.placementPenalty, pin.penalty);
    EXPECT_EQ(d.evaluations, pin.evaluations);
    EXPECT_EQ(d.eval.score, pin.score)
        << std::hexfloat << d.eval.score << " vs " << pin.score;
}

INSTANTIATE_TEST_SUITE_P(
    Default, DesignPins,
    ::testing::Values(
        PinnedDesign{"Mesh8x8", 8, TopologyKind::Mesh,
                     {{2, 0}, {5, 1}, {1, 2}, {4, 3},
                      {7, 4}, {0, 5}, {6, 6}, {3, 7}},
                     {{{4, 0}},
                      {{7, 1}, {3, 1}, {5, 3}},
                      {{3, 2}, {1, 0}, {1, 4}},
                      {{2, 3}, {4, 5}},
                      {{7, 2}, {7, 6}},
                      {{2, 5}, {0, 3}, {0, 7}},
                      {{6, 4}, {4, 6}},
                      {{5, 7}, {3, 5}, {1, 7}}},
                     23, 6729, 0x1.77feea99543fep+0},
        PinnedDesign{"Torus8x8", 8, TopologyKind::Torus,
                     {{2, 0}, {5, 1}, {1, 2}, {4, 3},
                      {7, 4}, {0, 5}, {6, 6}, {3, 7}},
                     {{{4, 0}},
                      {{7, 1}},
                      {{3, 2}, {1, 0}, {1, 4}},
                      {{6, 3}, {4, 1}, {2, 3}, {4, 5}},
                      {{7, 2}, {5, 4}, {7, 6}},
                      {{2, 5}, {0, 3}, {0, 7}},
                      {{4, 6}},
                      {{5, 7}, {3, 5}, {1, 7}}},
                     23, 10024, 0x1.7078022acd578p+0},
        PinnedDesign{"Mesh16x16", 16, TopologyKind::Mesh,
                     {{0, 6}, {4, 7}, {7, 8}, {1, 9},
                      {14, 11}, {10, 12}, {6, 13}, {3, 14}},
                     {{{2, 6}, {0, 4}, {0, 8}},
                      {{4, 5}, {4, 9}},
                      {{9, 8}, {7, 6}, {5, 8}, {7, 10}},
                      {{3, 9}, {1, 7}, {1, 11}},
                      {{14, 9}, {12, 11}},
                      {{10, 10}, {8, 12}},
                      {{8, 13}, {6, 11}, {4, 13}},
                      {{5, 14}, {3, 12}}},
                     0, 26353, 0x1.76f24b0032a1ap+0},
        PinnedDesign{"Torus16x16", 16, TopologyKind::Torus,
                     {{0, 6}, {4, 7}, {7, 8}, {1, 9},
                      {14, 11}, {10, 12}, {6, 13}, {3, 14}},
                     {{{2, 6}, {0, 4}},
                      {{4, 5}, {4, 9}},
                      {{9, 8}, {7, 6}, {5, 8}, {7, 10}},
                      {{3, 9}, {1, 11}},
                      {{14, 9}, {14, 13}},
                      {{12, 12}, {10, 10}, {10, 14}},
                      {{8, 13}, {6, 11}, {4, 13}, {6, 15}},
                      {{5, 14}, {3, 12}, {1, 14}}},
                     0, 27725, 0x1.623a8918342cfp+0}),
    [](const auto &info) { return std::string(info.param.name); });

} // namespace
} // namespace eqx
