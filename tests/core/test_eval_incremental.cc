/**
 * @file
 * The incremental-evaluation contract: EvalAccumulator scores must be
 * bit-identical doubles to the from-scratch EirEvaluator::evaluate()
 * path, at every prefix, under push/pop backtracking, under setGroup
 * in-place replacement, and regardless of whether a contribution is
 * served from the memo or recomputed (DESIGN.md §15).
 *
 * Every comparison below is EXPECT_EQ on doubles on purpose: the
 * design guarantee is exact equality, not closeness.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "core/eval_accumulator.hh"
#include "core/nqueen.hh"
#include "core/search.hh"

namespace eqx {
namespace {

EirProblem
paperProblem(int n, int num_cbs, const TopoSpec &topo = {})
{
    Rng rng(7);
    auto placed = bestNQueenPlacement(n, num_cbs, rng);
    return EirProblem(n, n, placed.cbs, 3, 4, topo);
}

/** Draw a random full selection, prefix by prefix. */
EirSelection
drawSelection(const EirProblem &prob, Rng &rng)
{
    EirSelection sel;
    TileMask taken(prob.width(), prob.height());
    for (int cb = 0; cb < prob.numCbs(); ++cb) {
        auto g = randomGroup(prob, cb, taken, rng);
        for (const auto &t : g)
            taken.add(t);
        sel.push_back(std::move(g));
    }
    return sel;
}

void
expectSameBreakdown(const EvalBreakdown &a, const EvalBreakdown &b)
{
    EXPECT_EQ(a.score, b.score);
    EXPECT_EQ(a.maxLoad, b.maxLoad);
    EXPECT_EQ(a.avgHops, b.avgHops);
    EXPECT_EQ(a.crossings, b.crossings);
    EXPECT_EQ(a.totalLength, b.totalLength);
    EXPECT_EQ(a.repeaterFrac, b.repeaterFrac);
}

/**
 * Incremental == from-scratch at every prefix of random selections,
 * then under in-place group replacement and backtracking.
 */
void
checkScale(int n, int num_cbs, int rounds, const TopoSpec &topo = {})
{
    EirProblem prob = paperProblem(n, num_cbs, topo);
    EirEvaluator eval(&prob);
    EvalAccumulator acc(&eval);
    Rng rng(42);

    for (int round = 0; round < rounds; ++round) {
        EirSelection sel = drawSelection(prob, rng);
        acc.reset();
        for (int cb = 0; cb < prob.numCbs(); ++cb) {
            acc.push(cb, sel[static_cast<std::size_t>(cb)]);
            // From-scratch reference on the same prefix (undecided
            // CBs = empty groups, exactly like the accumulator).
            EirSelection prefix(sel.begin(), sel.begin() + cb + 1);
            prefix.resize(static_cast<std::size_t>(prob.numCbs()));
            expectSameBreakdown(acc.evaluate(), eval.evaluate(prefix));
        }
        for (int move = 0; move < prob.numCbs(); ++move) {
            int cb = static_cast<int>(rng.nextBounded(
                static_cast<std::uint64_t>(prob.numCbs())));
            acc.setGroup(cb, {});
            acc.setGroup(cb, randomGroup(prob, cb, acc.takenMask(), rng));
            expectSameBreakdown(acc.evaluate(),
                                eval.evaluate(acc.selection()));
        }
        while (acc.depth() > 0) {
            acc.pop();
            EirSelection prefix = acc.selection();
            prefix.resize(static_cast<std::size_t>(prob.numCbs()));
            expectSameBreakdown(acc.evaluate(), eval.evaluate(prefix));
        }
    }
}

TopoSpec
topoOf(TopologyKind kind, int concentration = 2)
{
    TopoSpec t;
    t.kind = kind;
    t.concentration = concentration;
    return t;
}

TEST(EvalIncremental, MatchesFromScratch6x6)
{
    checkScale(6, 4, 6);
}

TEST(EvalIncremental, MatchesFromScratchPaperScale8x8)
{
    checkScale(8, 8, 6);
}

TEST(EvalIncremental, MatchesFromScratch16x16)
{
    checkScale(16, 8, 3);
}

// The contribution kernel reads per-axis hop tables; on the torus the
// per-ring minimum wraps (even rings have a tie at half the ring, odd
// rings do not), and a concentrated grid measures router-grid hops.

TEST(EvalIncremental, MatchesFromScratchTorusOddRing9x9)
{
    checkScale(9, 8, 4, topoOf(TopologyKind::Torus));
}

TEST(EvalIncremental, MatchesFromScratchTorusEvenRing16x16)
{
    checkScale(16, 8, 3, topoOf(TopologyKind::Torus));
}

TEST(EvalIncremental, MatchesFromScratchConcentrated8x8)
{
    checkScale(8, 8, 4, topoOf(TopologyKind::CMesh, 2));
}

TEST(EvalIncremental, MatchesFromScratchConcentrated12x12)
{
    checkScale(12, 8, 3, topoOf(TopologyKind::CMesh, 3));
}

TEST(EvalIncremental, PushPopRestoresScoreBitExactly)
{
    EirProblem prob = paperProblem(8, 8);
    EirEvaluator eval(&prob);
    EvalAccumulator acc(&eval);
    Rng rng(3);

    EirSelection sel = drawSelection(prob, rng);
    for (int cb = 0; cb < 5; ++cb)
        acc.push(cb, sel[static_cast<std::size_t>(cb)]);
    double before = acc.score();
    EvalBreakdown before_b = acc.evaluate();

    // Descend three more levels, then backtrack.
    for (int cb = 5; cb < 8; ++cb)
        acc.push(cb, sel[static_cast<std::size_t>(cb)]);
    while (acc.depth() > 5)
        acc.pop();

    EXPECT_EQ(acc.score(), before);
    expectSameBreakdown(acc.evaluate(), before_b);
}

TEST(EvalIncremental, SetGroupRevertIsBitExact)
{
    EirProblem prob = paperProblem(8, 8);
    EirEvaluator eval(&prob);
    EvalAccumulator acc(&eval);
    Rng rng(11);

    EirSelection sel = drawSelection(prob, rng);
    for (int cb = 0; cb < prob.numCbs(); ++cb)
        acc.push(cb, sel[static_cast<std::size_t>(cb)]);
    double before = acc.score();

    // Replace CB 3's group with a fresh draw, then revert: the
    // simulated-annealing reject path.
    std::vector<Coord> old_group = acc.group(3);
    acc.setGroup(3, {});
    acc.setGroup(3, randomGroup(prob, 3, acc.takenMask(), rng));
    EXPECT_EQ(acc.evaluate().score, eval.evaluate(acc.selection()).score);
    acc.setGroup(3, old_group);
    EXPECT_EQ(acc.score(), before);
}

TEST(EvalIncremental, MemoHitEqualsMemoMiss)
{
    EirProblem prob = paperProblem(8, 8);
    EirEvaluator eval(&prob);
    Rng rng(5);
    EirSelection sel = drawSelection(prob, rng);

    // Cold pass populates the memo; warm pass must be served from it
    // and produce the identical score.
    EvalAccumulator cold(&eval);
    for (int cb = 0; cb < prob.numCbs(); ++cb)
        cold.push(cb, sel[static_cast<std::size_t>(cb)]);
    double cold_score = cold.score();
    std::uint64_t misses = eval.memoMisses();
    EXPECT_GT(misses, 0u);

    EvalAccumulator warm(&eval);
    for (int cb = 0; cb < prob.numCbs(); ++cb)
        warm.push(cb, sel[static_cast<std::size_t>(cb)]);
    EXPECT_EQ(warm.score(), cold_score);
    EXPECT_EQ(eval.memoMisses(), misses); // all hits, no recompute
    EXPECT_GT(eval.memoHits(), 0u);
}

TEST(EvalIncremental, EmptyAccumulatorMatchesEmptySelections)
{
    EirProblem prob = paperProblem(8, 8);
    EirEvaluator eval(&prob);
    EvalAccumulator acc(&eval);

    EvalBreakdown scratch_sized =
        eval.evaluate(EirSelection(static_cast<std::size_t>(prob.numCbs())));
    EvalBreakdown scratch_empty = eval.evaluate(EirSelection{});
    expectSameBreakdown(acc.evaluate(), scratch_sized);
    expectSameBreakdown(acc.evaluate(), scratch_empty);

    // And after a full load/unload cycle.
    Rng rng(9);
    EirSelection sel = drawSelection(prob, rng);
    for (int cb = 0; cb < prob.numCbs(); ++cb)
        acc.push(cb, sel[static_cast<std::size_t>(cb)]);
    while (acc.depth() > 0)
        acc.pop();
    expectSameBreakdown(acc.evaluate(), scratch_sized);
}

TEST(EvalIncremental, SearchMethodsAgreeWithFromScratchFinalEval)
{
    // The converted search methods re-evaluate their final selection
    // from scratch; accumulator scoring must have led them to a
    // selection whose from-scratch score matches what they tracked.
    EirProblem prob = paperProblem(8, 8);
    EirEvaluator eval(&prob);

    SearchResult g = greedySearch(prob, eval);
    EXPECT_EQ(g.eval.score, eval.evaluate(g.selection).score);

    SearchResult a = annealSearch(prob, eval, {});
    EXPECT_EQ(a.eval.score, eval.evaluate(a.selection).score);

    SearchResult m = mctsSearch(prob, eval, {});
    EXPECT_EQ(m.eval.score, eval.evaluate(m.selection).score);
}

} // namespace
} // namespace eqx
