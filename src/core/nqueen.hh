/**
 * @file
 * N-Queen based CB placement (paper Section 4.2): enumerate or sample
 * N-Queen solutions, score them with the hot-zone penalty policy, trim
 * them when fewer CBs than N are needed, and extend with knight-move
 * placement when more CBs than N are needed (Section 6.8).
 */

#ifndef EQX_CORE_NQUEEN_HH
#define EQX_CORE_NQUEEN_HH

#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"

namespace eqx {

/**
 * Enumerate N-Queen solutions on an n x n board in deterministic
 * (lexicographic column) order, up to max_solutions. Each solution is
 * a vector of Coord{col, row} for rows 0..n-1. For n = 8 the full set
 * has 92 solutions.
 */
std::vector<std::vector<Coord>> solveNQueens(int n,
                                             std::size_t max_solutions);

/**
 * Sample distinct N-Queen solutions for large boards by randomized
 * backtracking (column order shuffled per row). Deterministic for a
 * given seed; used for 12x12 / 16x16 where full enumeration is huge.
 */
std::vector<std::vector<Coord>> sampleNQueens(int n, std::size_t count,
                                              Rng &rng);

/** Result of the scored placement search. */
struct ScoredPlacement
{
    std::vector<Coord> cbs;
    int penalty = 0;
};

/**
 * The paper's placement flow: generate N-Queen solutions (all of them
 * when n <= 8, otherwise sample_count samples), trim each to num_cbs
 * queens by greedy penalty-minimizing deletion, score with the
 * hot-zone policy, and return the least-penalized placement.
 */
ScoredPlacement bestNQueenPlacement(int n, int num_cbs, Rng &rng,
                                    std::size_t sample_count = 256);

/**
 * Knight-move placement for num_cbs > n (paper Section 6.8): CBs are
 * laid out along repeated knight moves, which minimizes co-row /
 * co-column / co-diagonal occurrences.
 */
std::vector<Coord> knightPlacement(int n, int num_cbs);

} // namespace eqx

#endif // EQX_CORE_NQUEEN_HH
