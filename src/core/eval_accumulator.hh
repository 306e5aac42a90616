/**
 * @file
 * Incremental evaluation of EIR selections (DESIGN.md §15). A search
 * rollout changes exactly one CB group at a time, yet the from-scratch
 * evaluator rescans the full W x H grid for every decided CB on every
 * call. The accumulator keeps the running totals — per-tile injection
 * loads, hop partial sums, the pairwise crossing count and the link
 * length/reach facts — and updates them in O(changed CB) per push,
 * pop or replace, serving the per-(CB, group) deltas from the
 * evaluator's contribution memo.
 *
 * Exactness contract: every accumulated double is a multiple of 0.5
 * far below 2^52, so IEEE addition and subtraction are exact and the
 * totals after any push/pop/setGroup sequence equal the from-scratch
 * sums bit for bit. The final reduction (hot-zone factors, divisions,
 * the weighted score) runs through the same EirEvaluator::finish the
 * from-scratch path uses, over tiles in the same Coord order, so
 * EvalBreakdowns — scores included — are bit-identical doubles.
 */

#ifndef EQX_CORE_EVAL_ACCUMULATOR_HH
#define EQX_CORE_EVAL_ACCUMULATOR_HH

#include <utility>
#include <vector>

#include "common/geometry.hh"
#include "common/tile_mask.hh"
#include "core/evaluation.hh"

namespace eqx {

/**
 * Running evaluation state over a prefix of decided CBs.
 *
 * Decided CBs always form the prefix 0..depth()-1, mirroring the
 * partial-selection semantics of EirEvaluator::evaluate: push() adds
 * a group for the next undecided CB, pop() retracts the most recent
 * one (tree-search descend/backtrack), and setGroup() replaces a
 * decided CB's group in place (annealing / polish moves).
 *
 * Undecided CBs carry their empty-group (all-local) contribution, the
 * same reading the from-scratch path gives a selection padded with
 * empty groups: push() swaps a CB's empty contribution for its group
 * contribution, pop() swaps it back. evaluate() at any depth therefore
 * matches evaluate(prefix padded with empty groups) bit for bit, and
 * an untouched accumulator reports the all-local design.
 */
class EvalAccumulator
{
  public:
    explicit EvalAccumulator(const EirEvaluator *eval);

    /** Decide the next CB (cb_idx must equal depth()). */
    void push(int cb_idx, const std::vector<Coord> &group);

    /** Undo the most recent push (or the most recent commit level). */
    void pop();

    /** Replace decided CB @p cb_idx's group in place. */
    void setGroup(int cb_idx, const std::vector<Coord> &group);

    /** Retract every decision. */
    void reset();

    /** Number of decided CBs (always a prefix of the CB order). */
    std::size_t depth() const { return depth_; }

    /** Decided CB @p cb_idx's current group. */
    const std::vector<Coord> &
    group(int cb_idx) const
    {
        return groups_[static_cast<std::size_t>(cb_idx)];
    }

    /** The decided prefix as a selection (copies the groups). */
    EirSelection
    selection() const
    {
        return EirSelection(groups_.begin(),
                            groups_.begin() +
                                static_cast<std::ptrdiff_t>(depth_));
    }

    /**
     * Tiles taken by the decided groups (not the CBs themselves) —
     * the incremental replacement for flattening a partial selection
     * with takenOf() on every rollout step.
     */
    const TileMask &takenMask() const { return taken_; }

    /**
     * The breakdown of the current prefix; bit-identical to
     * evaluate(selection()) on the underlying evaluator. O(loaded
     * tiles + links), independent of W x H.
     */
    EvalBreakdown evaluate() const;

    /** Score only. */
    double score() const { return evaluate().score; }

  private:
    void apply(int cb_idx, const EvalContribution &c);
    void unapply(int cb_idx, const EvalContribution &c);

    const EirEvaluator *eval_;
    int w_;
    int h_;

    // One group per CB; the first depth_ are the decided prefix. The
    // rest keep their capacity, so push/pop/setGroup copy a group
    // into storage that is already there instead of allocating.
    EirSelection groups_;
    std::size_t depth_ = 0;

    // Per-tile injection loads, grid-indexed, plus the row-major
    // sorted index list of loaded tiles. Row-major order is exactly
    // Coord's (y, x) ordering, so iterating active_ visits tiles in
    // the same order the from-scratch std::map does.
    std::vector<double> load_;
    std::vector<int> loadCount_;
    std::vector<int> active_;

    double hopSum_ = 0.0;
    double hopWeight_ = 0.0;
    CrossingLedger ledger_;
    double lengthHops_ = 0.0;
    std::size_t numLinks_ = 0;
    int overReach_ = 0;
    TileMask taken_;

    mutable std::vector<std::pair<Coord, double>> loadScratch_;
};

} // namespace eqx

#endif // EQX_CORE_EVAL_ACCUMULATOR_HH
