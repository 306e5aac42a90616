#include "core/nqueen.hh"

#include <algorithm>
#include <numeric>
#include <set>

#include "common/logging.hh"
#include "core/hotzone.hh"

namespace eqx {

namespace {

/**
 * Backtracking N-Queen solver whose board buffers outlive one search,
 * so repeated searches (sampleNQueens) allocate nothing. The column
 * order tried at each row is the caller's (identity = lexicographic).
 */
class QueenSolver
{
  public:
    explicit QueenSolver(int n)
        : n_(n), cols_(static_cast<std::size_t>(n), -1),
          usedCol_(static_cast<std::size_t>(n), 0),
          usedSum_(static_cast<std::size_t>(2 * n - 1), 0),
          usedDiff_(static_cast<std::size_t>(2 * n - 1), 0)
    {
    }

    /**
     * Visit solutions in @p col_order preference order; the search
     * stops when @p visit returns false. Every mark is undone on the
     * way out, while cols() keeps the last solution visited.
     */
    template <typename Visit>
    void
    solve(const std::vector<int> &col_order, Visit &&visit)
    {
        stop_ = false;
        place(0, col_order, visit);
    }

    /** Column of the queen in each row, for the last solution. */
    const std::vector<int> &cols() const { return cols_; }

    std::vector<Coord>
    coords() const
    {
        std::vector<Coord> sol;
        sol.reserve(static_cast<std::size_t>(n_));
        for (int r = 0; r < n_; ++r)
            sol.push_back({cols_[static_cast<std::size_t>(r)], r});
        return sol;
    }

  private:
    template <typename Visit>
    void
    place(int row, const std::vector<int> &col_order, Visit &visit)
    {
        if (row == n_) {
            stop_ = !visit();
            return;
        }
        for (int c : col_order) {
            auto col = static_cast<std::size_t>(c);
            auto sum = static_cast<std::size_t>(row + c);
            auto diff = static_cast<std::size_t>(row - c + n_ - 1);
            if (usedCol_[col] || usedSum_[sum] || usedDiff_[diff])
                continue;
            usedCol_[col] = usedSum_[sum] = usedDiff_[diff] = 1;
            cols_[static_cast<std::size_t>(row)] = c;
            place(row + 1, col_order, visit);
            usedCol_[col] = usedSum_[sum] = usedDiff_[diff] = 0;
            if (stop_)
                return;
        }
    }

    int n_;
    bool stop_ = false;
    std::vector<int> cols_;
    std::vector<std::uint8_t> usedCol_;
    std::vector<std::uint8_t> usedSum_;
    std::vector<std::uint8_t> usedDiff_;
};

} // namespace

std::vector<std::vector<Coord>>
solveNQueens(int n, std::size_t max_solutions)
{
    eqx_assert(n >= 1, "board size must be positive");
    std::vector<std::vector<Coord>> out;
    if (max_solutions == 0)
        return out;
    std::vector<int> order(static_cast<std::size_t>(n));
    std::iota(order.begin(), order.end(), 0);
    QueenSolver solver(n);
    solver.solve(order, [&] {
        out.push_back(solver.coords());
        return out.size() < max_solutions;
    });
    return out;
}

std::vector<std::vector<Coord>>
sampleNQueens(int n, std::size_t count, Rng &rng)
{
    std::set<std::vector<int>> seen;
    std::vector<std::vector<Coord>> out;
    QueenSolver solver(n);
    std::vector<int> order(static_cast<std::size_t>(n));
    // Each attempt shuffles the column preference order and takes the
    // first solution found; retry on duplicates.
    std::size_t attempts = 0;
    while (out.size() < count && attempts < count * 20 + 50) {
        ++attempts;
        std::iota(order.begin(), order.end(), 0);
        rng.shuffle(order);
        bool found = false;
        solver.solve(order, [&found] {
            found = true;
            return false;
        });
        if (found && seen.insert(solver.cols()).second)
            out.push_back(solver.coords());
    }
    return out;
}

namespace {

/**
 * Greedy trim, in place: remove queens one at a time, each time
 * deleting the one whose removal yields the lowest hot-zone penalty
 * (the first such queen on ties).
 */
void
greedyTrim(std::vector<Coord> &cbs, int num_cbs, PlacementScorer &scorer)
{
    while (static_cast<int>(cbs.size()) > num_cbs) {
        std::size_t best_idx = 0;
        int best_penalty = 0;
        for (std::size_t i = 0; i < cbs.size(); ++i) {
            int p = scorer.penalty(cbs, i);
            if (i == 0 || p < best_penalty) {
                best_idx = i;
                best_penalty = p;
            }
        }
        cbs.erase(cbs.begin() + static_cast<std::ptrdiff_t>(best_idx));
    }
}

} // namespace

ScoredPlacement
bestNQueenPlacement(int n, int num_cbs, Rng &rng, std::size_t sample_count)
{
    eqx_assert(num_cbs <= n, "use knightPlacement when num_cbs > n");
    // Every sample is drawn before any is scored, so the caller's Rng
    // ends in the same state however early the scoring loop stops.
    std::vector<std::vector<Coord>> sols;
    if (n <= 8)
        sols = solveNQueens(n, 100000); // 8x8: all 92
    else
        sols = sampleNQueens(n, sample_count, rng);
    eqx_assert(!sols.empty(), "no N-Queen solutions found");

    PlacementScorer scorer(n, n);
    ScoredPlacement best;
    std::vector<Coord> cbs;
    bool first = true;
    for (const auto &sol : sols) {
        // 0 is the penalty's floor and ties keep the first placement,
        // so nothing after a 0 can replace it.
        if (!first && best.penalty == 0)
            break;
        cbs.assign(sol.begin(), sol.end());
        greedyTrim(cbs, num_cbs, scorer);
        int p = scorer.penalty(cbs);
        if (first || p < best.penalty) {
            best.cbs = cbs;
            best.penalty = p;
            first = false;
        }
    }
    return best;
}

std::vector<Coord>
knightPlacement(int n, int num_cbs)
{
    eqx_assert(num_cbs <= n * n, "more CBs than tiles");
    // Walk the board in knight moves (+1 col, +2 rows), wrapping; when
    // a full tour column is exhausted shift the start to an unused
    // tile. This yields the paper's knight-move shape with minimal
    // row/column/diagonal sharing.
    std::vector<Coord> cbs;
    std::set<Coord> used;
    Coord cur{0, 0};
    while (static_cast<int>(cbs.size()) < num_cbs) {
        if (!used.count(cur)) {
            cbs.push_back(cur);
            used.insert(cur);
        }
        Coord next{(cur.x + 1) % n, (cur.y + 2) % n};
        if (used.count(next)) {
            // Find the first unused tile scanning row-major.
            bool found = false;
            for (int y = 0; y < n && !found; ++y) {
                for (int x = 0; x < n && !found; ++x) {
                    Coord c{x, y};
                    if (!used.count(c)) {
                        next = c;
                        found = true;
                    }
                }
            }
            if (!found)
                break;
        }
        cur = next;
    }
    return cbs;
}

} // namespace eqx
