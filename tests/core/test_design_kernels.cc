/**
 * @file
 * Differential tests for the design flow's table-driven kernels
 * (DESIGN.md §15.5). Each kernel is checked against a test-local copy
 * of the straightforward code it replaced: the hot-zone penalty
 * against a HotZoneMap-style tile sum, the N-Queen sampler and the
 * scored placement against the allocate-per-call solver with no early
 * stop, group enumeration against per-octant vectors plus
 * std::stable_sort, and randomGroup against its per-octant option
 * vectors. Every comparison is exact: the same integers, the same
 * groups in the same order, and the same Rng state afterwards.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <numeric>
#include <set>

#include "common/rng.hh"
#include "core/hotzone.hh"
#include "core/nqueen.hh"
#include "core/search.hh"

namespace eqx {
namespace {

// ---- oracles: the pre-table code, kept here only to test against ----

bool
inBoard(const Coord &c, int w, int h)
{
    return c.x >= 0 && c.x < w && c.y >= 0 && c.y < h;
}

/** Sum of tilePenalty over a HotZoneMap, as placementPenalty was. */
int
oraclePenalty(const std::vector<Coord> &cbs, int w, int h)
{
    std::vector<int> cover(static_cast<std::size_t>(w * h), 0);
    for (const auto &cb : cbs) {
        std::vector<Coord> zone;
        for (Dir d : {Dir::North, Dir::East, Dir::South, Dir::West}) {
            Coord s = dirStep(d);
            zone.push_back({cb.x + s.x, cb.y + s.y});
        }
        for (int dx : {-1, 1})
            for (int dy : {-1, 1})
                zone.push_back({cb.x + dx, cb.y + dy});
        for (const auto &t : zone)
            if (inBoard(t, w, h))
                ++cover[static_cast<std::size_t>(t.y * w + t.x)];
    }
    auto overlap = [&](const Coord &c) {
        return inBoard(c, w, h) &&
               cover[static_cast<std::size_t>(c.y * w + c.x)] >= 2;
    };
    int total = 0;
    for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
            int m = 0;
            for (Dir d : {Dir::North, Dir::East, Dir::South, Dir::West}) {
                Coord s = dirStep(d);
                if (overlap({x + s.x, y + s.y}))
                    ++m;
            }
            total += m * (m + 1) / 2;
        }
    }
    return total;
}

void
oracleBacktrack(int n, int row, std::vector<int> &cols,
                std::vector<bool> &used_col, std::vector<bool> &used_sum,
                std::vector<bool> &used_diff,
                const std::vector<int> &col_order,
                std::vector<std::vector<Coord>> &out, std::size_t max)
{
    if (out.size() >= max)
        return;
    if (row == n) {
        std::vector<Coord> sol;
        for (int r = 0; r < n; ++r)
            sol.push_back({cols[static_cast<std::size_t>(r)], r});
        out.push_back(std::move(sol));
        return;
    }
    for (int c : col_order) {
        auto col = static_cast<std::size_t>(c);
        auto sum = static_cast<std::size_t>(row + c);
        auto diff = static_cast<std::size_t>(row - c + n - 1);
        if (used_col[col] || used_sum[sum] || used_diff[diff])
            continue;
        used_col[col] = used_sum[sum] = used_diff[diff] = true;
        cols[static_cast<std::size_t>(row)] = c;
        oracleBacktrack(n, row + 1, cols, used_col, used_sum, used_diff,
                        col_order, out, max);
        used_col[col] = used_sum[sum] = used_diff[diff] = false;
        if (out.size() >= max)
            return;
    }
}

std::vector<std::vector<Coord>>
oracleEnumerate(int n, std::size_t max, const std::vector<int> &order)
{
    std::vector<std::vector<Coord>> out;
    std::vector<int> cols(static_cast<std::size_t>(n), -1);
    std::vector<bool> used_col(static_cast<std::size_t>(n), false);
    std::vector<bool> used_sum(static_cast<std::size_t>(2 * n - 1), false);
    std::vector<bool> used_diff(static_cast<std::size_t>(2 * n - 1),
                                false);
    oracleBacktrack(n, 0, cols, used_col, used_sum, used_diff, order, out,
                    max);
    return out;
}

std::vector<std::vector<Coord>>
oracleSample(int n, std::size_t count, Rng &rng)
{
    std::set<std::vector<int>> seen;
    std::vector<std::vector<Coord>> out;
    std::size_t attempts = 0;
    while (out.size() < count && attempts < count * 20 + 50) {
        ++attempts;
        std::vector<int> order(static_cast<std::size_t>(n));
        std::iota(order.begin(), order.end(), 0);
        rng.shuffle(order);
        auto sols = oracleEnumerate(n, 1, order);
        if (sols.empty())
            continue;
        std::vector<int> key;
        for (const auto &c : sols[0])
            key.push_back(c.x);
        if (seen.insert(key).second)
            out.push_back(std::move(sols[0]));
    }
    return out;
}

/** Trim and score every sample; no early stop. */
ScoredPlacement
oracleBestPlacement(int n, int num_cbs, Rng &rng, std::size_t samples)
{
    std::vector<int> order(static_cast<std::size_t>(n));
    std::iota(order.begin(), order.end(), 0);
    auto sols = n <= 8 ? oracleEnumerate(n, 100000, order)
                       : oracleSample(n, samples, rng);
    ScoredPlacement best;
    bool first = true;
    for (auto cbs : sols) {
        while (static_cast<int>(cbs.size()) > num_cbs) {
            int best_idx = -1;
            int best_p = 0;
            for (std::size_t i = 0; i < cbs.size(); ++i) {
                std::vector<Coord> trial;
                for (std::size_t j = 0; j < cbs.size(); ++j)
                    if (j != i)
                        trial.push_back(cbs[j]);
                int p = oraclePenalty(trial, n, n);
                if (best_idx < 0 || p < best_p) {
                    best_idx = static_cast<int>(i);
                    best_p = p;
                }
            }
            cbs.erase(cbs.begin() + best_idx);
        }
        int p = oraclePenalty(cbs, n, n);
        if (first || p < best.penalty) {
            best.cbs = cbs;
            best.penalty = p;
            first = false;
        }
    }
    return best;
}

/** Per-octant vectors, depth-first, then std::stable_sort by size. */
std::vector<std::vector<Coord>>
oracleGroups(const EirProblem &prob, int cb_idx, const TileMask &taken)
{
    const Coord &cb = prob.cbs()[static_cast<std::size_t>(cb_idx)];
    std::vector<std::vector<Coord>> by_octant(8);
    for (const auto &c : prob.candidates(cb_idx))
        if (!taken.test(c))
            by_octant[static_cast<std::size_t>(directionOctant(cb, c))]
                .push_back(c);
    const std::array<int, 8> octant_order{{0, 2, 4, 6, 1, 3, 5, 7}};
    std::vector<std::vector<Coord>> groups;
    constexpr std::size_t kMaxGroups = 8192;
    std::vector<Coord> cur;
    auto rec = [&](auto &&self, int oi) -> void {
        if (groups.size() >= kMaxGroups)
            return;
        if (oi == 8) {
            if (!cur.empty())
                groups.push_back(cur);
            return;
        }
        int oct = octant_order[static_cast<std::size_t>(oi)];
        if (static_cast<int>(cur.size()) < prob.maxPerGroup()) {
            for (const auto &c : by_octant[static_cast<std::size_t>(oct)]) {
                cur.push_back(c);
                self(self, oi + 1);
                cur.pop_back();
                if (groups.size() >= kMaxGroups)
                    return;
            }
        }
        self(self, oi + 1);
    };
    rec(rec, 0);
    std::stable_sort(groups.begin(), groups.end(),
                     [](const auto &a, const auto &b) {
                         return a.size() > b.size();
                     });
    groups.emplace_back();
    return groups;
}

/** randomGroup with per-octant option vectors. */
std::vector<Coord>
oracleRandomGroup(const EirProblem &prob, int cb_idx,
                  const TileMask &taken, Rng &rng, double take_prob)
{
    std::vector<Coord> group;
    std::vector<int> octs = {0, 1, 2, 3, 4, 5, 6, 7};
    rng.shuffle(octs);
    const Coord &cb = prob.cbs()[static_cast<std::size_t>(cb_idx)];
    for (int oct : octs) {
        if (static_cast<int>(group.size()) >= prob.maxPerGroup())
            break;
        if (!rng.chance(take_prob))
            continue;
        std::vector<Coord> opts;
        for (const auto &c : prob.candidates(cb_idx)) {
            bool in_group =
                std::find(group.begin(), group.end(), c) != group.end();
            if (directionOctant(cb, c) == oct && !taken.test(c) &&
                !in_group)
                opts.push_back(c);
        }
        if (opts.empty())
            continue;
        group.push_back(opts[rng.nextBounded(opts.size())]);
    }
    return group;
}

// ---- helpers ----

/** Distinct random tiles; the first few pinned to corners and edges. */
std::vector<Coord>
randomPlacement(int w, int h, int count, Rng &rng)
{
    std::vector<Coord> pinned = {{0, 0},         {w - 1, 0},
                                 {0, h - 1},     {w - 1, h - 1},
                                 {w / 2, 0},     {0, h / 2},
                                 {w - 1, h / 2}, {w / 2, h - 1}};
    std::set<Coord> used;
    std::vector<Coord> cbs;
    int edge = static_cast<int>(rng.nextBounded(4));
    for (int i = 0; i < edge && static_cast<int>(cbs.size()) < count; ++i) {
        Coord c = pinned[rng.nextBounded(pinned.size())];
        if (used.insert(c).second)
            cbs.push_back(c);
    }
    while (static_cast<int>(cbs.size()) < count) {
        Coord c{static_cast<int>(rng.nextBounded(
                    static_cast<std::uint64_t>(w))),
                static_cast<int>(rng.nextBounded(
                    static_cast<std::uint64_t>(h)))};
        if (used.insert(c).second)
            cbs.push_back(c);
    }
    return cbs;
}

/** Mark a random full selection's tiles, except CB @p skip's. */
TileMask
randomTaken(const EirProblem &prob, int skip, Rng &rng)
{
    TileMask taken(prob.width(), prob.height());
    for (int cb = 0; cb < prob.numCbs(); ++cb) {
        if (cb == skip)
            continue;
        for (const auto &t : randomGroup(prob, cb, taken, rng))
            taken.add(t);
    }
    return taken;
}

EirProblem
placedProblem(int n, TopoSpec topo, int max_hops = 3, int max_per_group = 4)
{
    Rng rng(7);
    auto placed = bestNQueenPlacement(n, std::min(n, 8), rng);
    return EirProblem(n, n, placed.cbs, max_hops, max_per_group, topo);
}

TopoSpec
torus()
{
    TopoSpec t;
    t.kind = TopologyKind::Torus;
    return t;
}

// ---- the tests ----

TEST(DesignKernels, PlacementPenaltyMatchesHotZoneSum)
{
    Rng rng(2024);
    for (int round = 0; round < 400; ++round) {
        int w = 2 + static_cast<int>(rng.nextBounded(31));
        int h = round % 4 == 0 ? 2 + static_cast<int>(rng.nextBounded(31))
                               : w;
        int count = 1 + static_cast<int>(rng.nextBounded(40));
        count = std::min(count, w * h);
        auto cbs = randomPlacement(w, h, count, rng);
        if (round % 5 == 0)
            cbs.push_back(cbs.front()); // a stacked CB counts twice
        ASSERT_EQ(placementPenalty(cbs, w, h), oraclePenalty(cbs, w, h))
            << w << "x" << h << " with " << count << " CBs";

        // The scorer's leave-one-out form, as greedy trimming uses it.
        PlacementScorer scorer(w, h);
        auto skip = static_cast<std::size_t>(rng.nextBounded(cbs.size()));
        std::vector<Coord> rest = cbs;
        rest.erase(rest.begin() + static_cast<std::ptrdiff_t>(skip));
        ASSERT_EQ(scorer.penalty(cbs, skip), oraclePenalty(rest, w, h));
        ASSERT_EQ(scorer.penalty(cbs), oraclePenalty(cbs, w, h));
    }
}

TEST(DesignKernels, SolveNQueensMatchesAllocatingSolver)
{
    for (int n = 1; n <= 9; ++n) {
        std::vector<int> order(static_cast<std::size_t>(n));
        std::iota(order.begin(), order.end(), 0);
        for (std::size_t cap : {std::size_t{0}, std::size_t{1},
                                std::size_t{7}, std::size_t{100000}})
            ASSERT_EQ(solveNQueens(n, cap), oracleEnumerate(n, cap, order))
                << "n=" << n << " cap=" << cap;
    }
}

TEST(DesignKernels, SampleNQueensDrawsLikeAllocatingSampler)
{
    for (int n : {3, 9, 12, 16}) {
        Rng a(static_cast<std::uint64_t>(n)), b(static_cast<std::uint64_t>(n));
        ASSERT_EQ(sampleNQueens(n, 40, a), oracleSample(n, 40, b))
            << "n=" << n;
        EXPECT_EQ(a.next(), b.next()) << "n=" << n;
    }
}

TEST(DesignKernels, BestPlacementMatchesFullScoringAndRngState)
{
    struct Case
    {
        int n;
        int cbs;
        std::uint64_t seed;
        std::size_t samples;
    };
    // 16x16 with 8 CBs reaches penalty 0 early (the early stop);
    // 9x9 with 9 and 7 CBs does not.
    for (const Case &c : {Case{8, 8, 1, 256}, Case{8, 5, 1, 256},
                          Case{9, 9, 3, 64}, Case{9, 7, 4, 64},
                          Case{12, 6, 5, 48}, Case{16, 8, 1, 256}}) {
        Rng a(c.seed), b(c.seed);
        ScoredPlacement got = bestNQueenPlacement(c.n, c.cbs, a, c.samples);
        ScoredPlacement want = oracleBestPlacement(c.n, c.cbs, b, c.samples);
        EXPECT_EQ(got.cbs, want.cbs) << c.n << "/" << c.cbs;
        EXPECT_EQ(got.penalty, want.penalty) << c.n << "/" << c.cbs;
        EXPECT_EQ(a.next(), b.next()) << c.n << "/" << c.cbs;
    }
}

TEST(DesignKernels, GroupEnumerationMatchesStableSortedVectors)
{
    for (const auto &[n, topo, hops, per] :
         {std::tuple{8, TopoSpec{}, 3, 4}, std::tuple{16, torus(), 3, 4},
          std::tuple{9, torus(), 4, 8}, std::tuple{12, TopoSpec{}, 5, 6}}) {
        EirProblem prob = placedProblem(n, topo, hops, per);
        Rng rng(static_cast<std::uint64_t>(n * 31 + hops));
        for (int cb = 0; cb < prob.numCbs(); ++cb) {
            for (int round = 0; round < 2; ++round) {
                TileMask taken = round == 0
                                     ? TileMask(n, n)
                                     : randomTaken(prob, cb, rng);
                ASSERT_EQ(prob.groupsFor(cb, taken),
                          oracleGroups(prob, cb, taken))
                    << n << "x" << n << " cb " << cb;
            }
        }
    }
}

TEST(DesignKernels, KeepAndShuffleEqualShuffleThenResize)
{
    for (const auto &[n, topo] : {std::pair{8, TopoSpec{}},
                                  std::pair{16, TopoSpec{}},
                                  std::pair{16, torus()}}) {
        EirProblem prob = placedProblem(n, topo);
        Rng rng(99);
        for (int cb = 0; cb < prob.numCbs(); ++cb) {
            TileMask taken = randomTaken(prob, cb, rng);
            for (std::size_t keep :
                 {std::size_t{0}, std::size_t{1}, std::size_t{64},
                  std::size_t{1024}, EirProblem::kAllGroups}) {
                auto want = prob.groupsFor(cb, taken);
                std::vector<std::vector<Coord>> prefix(
                    want.begin(),
                    want.begin() + static_cast<std::ptrdiff_t>(
                                       std::min(keep, want.size())));
                EXPECT_EQ(prob.groupsFor(cb, taken, keep), prefix);

                std::uint64_t seed = rng.next();
                Rng a(seed), b(seed);
                a.shuffle(want);
                if (want.size() > keep)
                    want.resize(keep);
                EXPECT_EQ(prob.groupsFor(cb, taken, keep, &b), want)
                    << n << "x" << n << " cb " << cb << " keep " << keep;
                EXPECT_EQ(a.next(), b.next());
            }
        }
    }
}

TEST(DesignKernels, RandomGroupDrawsLikeOptionVectors)
{
    for (const auto &[n, topo, per] :
         {std::tuple{8, TopoSpec{}, 4}, std::tuple{16, torus(), 4},
          std::tuple{9, torus(), 8}}) {
        EirProblem prob = placedProblem(n, topo, 3, per);
        Rng setup(5);
        for (int cb = 0; cb < prob.numCbs(); ++cb) {
            TileMask taken = randomTaken(prob, cb, setup);
            for (double p : {0.85, 0.3, 1.0}) {
                Rng a(static_cast<std::uint64_t>(cb * 7 + 1)),
                    b(static_cast<std::uint64_t>(cb * 7 + 1));
                for (int draw = 0; draw < 20; ++draw)
                    ASSERT_EQ(randomGroup(prob, cb, taken, a, p),
                              oracleRandomGroup(prob, cb, taken, b, p));
                EXPECT_EQ(a.next(), b.next());
            }
        }
    }
}

} // namespace
} // namespace eqx
