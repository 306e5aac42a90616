/**
 * @file
 * Monte Carlo Tree Search for EIR selection (paper Section 4.3 and
 * Figure 6): iterative selection / expansion / simulation /
 * backpropagation with UCB, one tree level per CB group.
 *
 * The search threads one EvalAccumulator down the tree — groups are
 * pushed on descend/expansion/rollout and popped on backtrack — so a
 * full rollout costs O(changed CBs) evaluator work instead of an
 * O(decided x W x H) from-scratch rebuild, and the accumulator's
 * taken-mask replaces the former O(depth^2) takenOf() flattening.
 * Scores are bit-identical to the from-scratch evaluator, so the
 * selected designs are unchanged (see DESIGN.md §15).
 */

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <vector>

#include "common/logging.hh"
#include "core/eval_accumulator.hh"
#include "core/search.hh"

namespace eqx {

namespace {

struct Node
{
    std::vector<Coord> group;      ///< the group this node adds
    int depth = 0;                 ///< CBs decided including this node
    double totalReward = 0.0;
    int visits = 0;
    Node *parent = nullptr;
    std::vector<std::unique_ptr<Node>> children;
    std::vector<std::vector<Coord>> untried;
    bool untriedInit = false;
};

/** Reward in (0, 1]: lower evaluation scores map to higher rewards. */
double
rewardOf(double score)
{
    return 1.0 / (1.0 + score);
}

} // namespace

std::vector<Coord>
randomGroup(const EirProblem &prob, int cb_idx, const TileMask &taken,
            Rng &rng, double take_prob)
{
    std::vector<Coord> group;
    group.reserve(static_cast<std::size_t>(prob.maxPerGroup()));
    std::array<int, 8> octs{{0, 1, 2, 3, 4, 5, 6, 7}};
    rng.shuffle(octs);

    // A draw picks the k-th free candidate of the octant, in candidate
    // order. Each octant is visited once and a candidate lies in one
    // octant, so no tile of the group so far can be among them.
    const auto &cands = prob.candidates(cb_idx);
    for (int oct : octs) {
        if (static_cast<int>(group.size()) >= prob.maxPerGroup())
            break;
        if (!rng.chance(take_prob))
            continue;
        const auto &in_oct = prob.octantCandidates(cb_idx, oct);
        std::uint64_t free = 0;
        for (std::uint16_t ci : in_oct)
            free += !taken.test(cands[ci]);
        if (free == 0)
            continue;
        std::uint64_t k = rng.nextBounded(free);
        for (std::uint16_t ci : in_oct) {
            if (taken.test(cands[ci]))
                continue;
            if (k-- == 0) {
                group.push_back(cands[ci]);
                break;
            }
        }
    }
    return group;
}

std::vector<Coord>
randomGroup(const EirProblem &prob, int cb_idx,
            const std::vector<Coord> &taken, Rng &rng, double take_prob)
{
    TileMask mask(prob.width(), prob.height());
    for (const auto &t : taken)
        mask.add(t);
    return randomGroup(prob, cb_idx, mask, rng, take_prob);
}

SearchResult
mctsSearch(const EirProblem &prob, const EirEvaluator &eval,
           const MctsParams &params)
{
    Rng rng(params.seed);
    SearchResult result;
    result.method = "mcts";

    // The accumulator holds the committed groups (the evolving root)
    // plus, transiently, the tree path and rollout of the current
    // iteration.
    EvalAccumulator acc(&eval);

    for (int level = 0; level < prob.numCbs(); ++level) {
        Node root;
        root.depth = level;

        auto initUntried = [&](Node &node) {
            node.untried = prob.groupsFor(
                node.depth, acc.takenMask(),
                static_cast<std::size_t>(params.maxChildrenPerNode), &rng);
            node.untriedInit = true;
        };

        for (int it = 0; it < params.iterationsPerLevel; ++it) {
            // (1) Selection: descend while fully expanded.
            Node *node = &root;
            for (;;) {
                if (node->depth >= prob.numCbs())
                    break; // terminal
                if (!node->untriedInit)
                    initUntried(*node);
                if (!node->untried.empty() || node->children.empty())
                    break;
                // UCB over children.
                Node *best = nullptr;
                double best_ucb = -1;
                for (auto &ch : node->children) {
                    double v = ch->totalReward / ch->visits;
                    double u = v + params.ucbC *
                                       std::sqrt(std::log(static_cast<
                                                          double>(
                                                     node->visits)) /
                                                 ch->visits);
                    if (u > best_ucb) {
                        best_ucb = u;
                        best = ch.get();
                    }
                }
                node = best;
                acc.push(node->depth - 1, node->group);
            }

            // (2) Expansion.
            if (node->depth < prob.numCbs() && !node->untried.empty()) {
                auto group = std::move(node->untried.back());
                node->untried.pop_back();
                auto child = std::make_unique<Node>();
                child->group = std::move(group);
                child->depth = node->depth + 1;
                child->parent = node;
                node->children.push_back(std::move(child));
                node = node->children.back().get();
                acc.push(node->depth - 1, node->group);
            }

            // (3) Simulation: random rollout for the remaining CBs.
            for (int cb = static_cast<int>(acc.depth());
                 cb < prob.numCbs(); ++cb)
                acc.push(cb,
                         randomGroup(prob, cb, acc.takenMask(), rng));
            double score = acc.score();
            ++result.evaluations;
            double reward = rewardOf(score);

            // (4) Backpropagation, then backtrack the accumulator to
            // the committed root state.
            for (Node *n = node; n != nullptr; n = n->parent) {
                n->totalReward += reward;
                ++n->visits;
            }
            while (acc.depth() > static_cast<std::size_t>(level))
                acc.pop();
        }

        // Commit the level-(level+1) child with the highest accumulated
        // score, as in the paper.
        Node *best = nullptr;
        for (auto &ch : root.children) {
            if (!best || ch->totalReward > best->totalReward)
                best = ch.get();
        }
        if (best) {
            acc.push(level, best->group);
        } else {
            acc.push(level, {}); // no legal group at all
        }
    }

    result.selection = acc.selection();
    result.eval = eval.evaluate(result.selection);
    eqx_assert(prob.valid(result.selection),
               "MCTS produced an invalid selection");
    return result;
}

} // namespace eqx
