#include "core/evaluation.hh"

#include <algorithm>
#include <array>
#include <map>

#include "common/logging.hh"
#include "core/hotzone.hh"

namespace eqx {

EirEvaluator::EirEvaluator(const EirProblem *problem, EvalWeights weights)
    : prob_(problem), weights_(weights)
{
    eqx_assert(prob_, "evaluator needs a problem");
    w_ = prob_->width();
    h_ = prob_->height();

    // Selection-independent state, hoisted out of evaluate(): the CB
    // occupancy bitmap and the per-tile hot-zone contention factor
    // (paper Section 3.2.4 — an injection point inside other CBs' hot
    // zones absorbs their surrounding traffic too). Both depend only
    // on the immutable problem, so every evaluation shares them.
    cbMask_.assign(static_cast<std::size_t>(w_ * h_), 0);
    for (const auto &cb : prob_->cbs())
        cbMask_[static_cast<std::size_t>(cb.y * w_ + cb.x)] = 1;
    HotZoneMap hot(prob_->cbs(), w_, h_);
    loadFactor_.assign(static_cast<std::size_t>(w_ * h_), 1.0);
    for (int y = 0; y < h_; ++y) {
        for (int x = 0; x < w_; ++x) {
            Coord p{x, y};
            std::size_t i = static_cast<std::size_t>(y * w_ + x);
            double factor = 1.0;
            if (!cbMask_[i])
                factor += 0.3 * hot.coverage(p);
            loadFactor_[i] = factor;
        }
    }

    // Per-axis hop tables. Every reply fabric's distance is the sum of
    // an x-axis and a y-axis term (Manhattan on the mesh, per-ring
    // minima on the torus, router-grid Manhattan on a concentrated
    // grid); the assert keeps a future topology honest.
    axisX_.resize(static_cast<std::size_t>(w_ * w_));
    axisY_.resize(static_cast<std::size_t>(h_ * h_));
    for (int a = 0; a < w_; ++a)
        for (int b = 0; b < w_; ++b)
            axisX_[static_cast<std::size_t>(a * w_ + b)] =
                prob_->distance({a, 0}, {b, 0});
    for (int a = 0; a < h_; ++a)
        for (int b = 0; b < h_; ++b)
            axisY_[static_cast<std::size_t>(a * h_ + b)] =
                prob_->distance({0, a}, {0, b});
    for (int ay = 0; ay < h_; ++ay)
        for (int ax = 0; ax < w_; ++ax)
            for (int by = 0; by < h_; ++by)
                for (int bx = 0; bx < w_; ++bx)
                    eqx_assert(
                        prob_->distance({ax, ay}, {bx, by}) ==
                            axisX_[static_cast<std::size_t>(ax * w_ + bx)] +
                                axisY_[static_cast<std::size_t>(ay * h_ +
                                                                by)],
                        "reply-fabric distance is not a per-axis sum");

    // References from the EIR-less baseline.
    double dist_sum = 0;
    int pairs = 0;
    for (const auto &cb : prob_->cbs()) {
        for (int y = 0; y < h_; ++y) {
            for (int x = 0; x < w_; ++x) {
                Coord p{x, y};
                if (isCb(p))
                    continue;
                dist_sum += prob_->distance(cb, p);
                ++pairs;
            }
        }
    }
    hopRef_ = pairs ? dist_sum / pairs : 1.0;
    loadRef_ = prob_->numCbs()
                   ? static_cast<double>(pairs) / prob_->numCbs()
                   : 1.0;

    // Number every candidate link and tabulate which pairs cross.
    constexpr std::uint16_t kNoLink = 0xffff;
    std::vector<Segment> cand_links;
    linkId_.assign(static_cast<std::size_t>(prob_->numCbs() * w_ * h_),
                   kNoLink);
    for (int cb = 0; cb < prob_->numCbs(); ++cb) {
        const Coord &c = prob_->cbs()[static_cast<std::size_t>(cb)];
        for (const Coord &e : prob_->candidates(cb)) {
            eqx_assert(cand_links.size() < kNoLink,
                       "too many candidate links");
            linkId_[static_cast<std::size_t>((cb * h_ + e.y) * w_ + e.x)] =
                static_cast<std::uint16_t>(cand_links.size());
            cand_links.push_back(Segment{c, e});
        }
    }
    crossTable_ = CrossingTable(cand_links);

    // Every accumulator push and pop swaps a CB's all-local (empty
    // group) contribution in or out; serve those from a per-CB array.
    local_.resize(static_cast<std::size_t>(prob_->numCbs()));
    for (int cb = 0; cb < prob_->numCbs(); ++cb)
        computeContribution(cb, {}, local_[static_cast<std::size_t>(cb)]);
}

EvalBreakdown
EirEvaluator::finish(const std::vector<std::pair<Coord, double>> &loads,
                     double hop_sum, double hop_weight, int crossings,
                     double total_length, std::size_t num_links,
                     int over_reach) const
{
    EvalBreakdown out;
    // Contention-aware load: the load metric blends the maximum (the
    // paper's hotspot criterion) with the mean load per injection
    // point, which captures the aggregate injection bandwidth every
    // additional EIR contributes. `loads` must list tiles in Coord
    // order with only actually-loaded tiles present — the entry count
    // is the mean's denominator.
    double load_sum = 0;
    for (const auto &[tile, l] : loads) {
        double factor = loadFactor(tile);
        out.maxLoad = std::max(out.maxLoad, l * factor);
        load_sum += l * factor;
    }
    double mean_load =
        loads.empty() ? 0.0
                      : load_sum / static_cast<double>(loads.size());
    out.avgHops = hop_weight > 0 ? hop_sum / hop_weight : 0.0;
    out.crossings = crossings;
    out.totalLength = total_length;

    // Normalizers: crossings per link; link length against a full
    // deployment of reach-length links (so the cost scales with how
    // much wiring is actually deployed); repeater need as the fraction
    // of links beyond the 1-cycle interposer reach of 2 hops.
    double n_links =
        std::max<double>(1.0, static_cast<double>(num_links));
    out.repeaterFrac = num_links ? over_reach / n_links : 0.0;
    double len_ref = static_cast<double>(kReachHops) * prob_->numCbs() *
                     prob_->maxPerGroup();
    double load_term =
        0.5 * (out.maxLoad / loadRef_) + 0.5 * (mean_load / loadRef_);
    out.score = weights_.load * load_term +
                weights_.hops * (out.avgHops / hopRef_) +
                weights_.crossings * (out.crossings / n_links) +
                weights_.length * (out.totalLength / len_ref) +
                weights_.repeaters * out.repeaterFrac;
    return out;
}

EvalBreakdown
EirEvaluator::evaluate(const EirSelection &sel) const
{
    // Injection-point loads, per tile. Only CBs whose group has been
    // decided participate, so partial selections judged during search
    // are not drowned by the still-undecided CBs.
    std::map<Coord, double> load;
    double hop_sum = 0;
    double hop_weight = 0;
    int decided = std::min<int>(prob_->numCbs(),
                                static_cast<int>(sel.size()));
    if (decided == 0)
        decided = prob_->numCbs(); // empty selection = all-local design

    for (int i = 0; i < decided; ++i) {
        const Coord &cb = prob_->cbs()[static_cast<std::size_t>(i)];
        const std::vector<Coord> *group =
            i < static_cast<int>(sel.size())
                ? &sel[static_cast<std::size_t>(i)]
                : nullptr;

        for (int y = 0; y < h_; ++y) {
            for (int x = 0; x < w_; ++x) {
                Coord p{x, y};
                if (isCb(p))
                    continue;
                int base = prob_->distance(cb, p);

                // Shortest-path EIRs per the Buffer Selection policy.
                Coord elig[2];
                int n_elig = 0;
                if (group) {
                    for (const auto &e : *group) {
                        if (prob_->distance(cb, e) + prob_->distance(e, p) == base &&
                            n_elig < 2)
                            elig[n_elig++] = e;
                    }
                }
                bool on_axis = cb.x == p.x || cb.y == p.y;
                if (n_elig == 0) {
                    load[cb] += 1.0;
                    hop_sum += base;
                } else if (on_axis || n_elig == 1) {
                    load[elig[0]] += 1.0;
                    hop_sum += 1 + prob_->distance(elig[0], p);
                } else {
                    load[elig[0]] += 0.5;
                    load[elig[1]] += 0.5;
                    hop_sum += 0.5 * (1 + prob_->distance(elig[0], p)) +
                               0.5 * (1 + prob_->distance(elig[1], p));
                }
                hop_weight += 1.0;
            }
        }
    }

    std::vector<std::pair<Coord, double>> loads;
    loads.reserve(load.size());
    for (const auto &[tile, l] : load)
        loads.emplace_back(tile, l);

    LinkPlan plan = prob_->linkPlan(sel);
    int over_reach = 0;
    for (const auto &link : plan.links())
        if (link.hops() > kReachHops)
            ++over_reach;

    return finish(loads, hop_sum, hop_weight, plan.crossings(),
                  plan.totalLengthHops(), plan.size(), over_reach);
}

void
EirEvaluator::computeContribution(int cb_idx,
                                  const std::vector<Coord> &group,
                                  EvalContribution &out) const
{
    out.loads.clear();
    out.hopSum = 0.0;
    out.hopWeight = 0.0;
    out.linkIds.clear();
    out.lengthHops = 0.0;
    out.overReach = 0;

    const Coord &cb = prob_->cbs()[static_cast<std::size_t>(cb_idx)];
    constexpr std::size_t kMaxGroup = 8;
    eqx_assert(group.size() <= kMaxGroup, "group larger than 8 tiles");
    const std::size_t n_group = group.size();

    // One load slot per group tile plus one for the CB itself (the
    // last); only slots that actually receive flow survive into
    // out.loads, so the combined per-tile map has exactly the entries
    // the from-scratch std::map would (the entry count feeds the
    // mean-load divisor).
    std::array<EvalContribution::TileLoad, kMaxGroup + 1> slots{};
    EvalContribution::TileLoad &local = slots[n_group];
    local.tile = cb;

    // Table rows: distance(u, p) == ux[p.x] + uy[p.y].
    auto rowX = [this](int x) {
        return axisX_.data() + static_cast<std::size_t>(x * w_);
    };
    auto rowY = [this](int y) {
        return axisY_.data() + static_cast<std::size_t>(y * h_);
    };
    const int *cbx = rowX(cb.x);
    const int *cby = rowY(cb.y);
    std::array<const int *, kMaxGroup> gx{};
    std::array<const int *, kMaxGroup> gy{};
    std::array<int, kMaxGroup> cb_to_g{};
    for (std::size_t g = 0; g < n_group; ++g) {
        slots[g].tile = group[g];
        gx[g] = rowX(group[g].x);
        gy[g] = rowY(group[g].y);
        cb_to_g[g] = cbx[group[g].x] + cby[group[g].y];
    }

    // The same tile loop as evaluate(), restricted to this CB, with
    // the same integer comparisons and the same additions in the same
    // order. All increments are multiples of 0.5 well below 2^52, so
    // the partial sums are exact and combine order-independently.
    for (int y = 0; y < h_; ++y) {
        for (int x = 0; x < w_; ++x) {
            if (cbMask_[static_cast<std::size_t>(y * w_ + x)])
                continue;
            int base = cbx[x] + cby[y];

            std::size_t elig[2];
            int g_to_p[2];
            int n_elig = 0;
            for (std::size_t g = 0; g < n_group && n_elig < 2; ++g) {
                int d = gx[g][x] + gy[g][y];
                if (cb_to_g[g] + d == base) {
                    elig[n_elig] = g;
                    g_to_p[n_elig++] = d;
                }
            }
            bool on_axis = cb.x == x || cb.y == y;
            if (n_elig == 0) {
                local.load += 1.0;
                ++local.count;
                out.hopSum += base;
            } else if (on_axis || n_elig == 1) {
                auto &s0 = slots[elig[0]];
                s0.load += 1.0;
                ++s0.count;
                out.hopSum += 1 + g_to_p[0];
            } else {
                auto &s0 = slots[elig[0]];
                auto &s1 = slots[elig[1]];
                s0.load += 0.5;
                ++s0.count;
                s1.load += 0.5;
                ++s1.count;
                out.hopSum +=
                    0.5 * (1 + g_to_p[0]) + 0.5 * (1 + g_to_p[1]);
            }
            out.hopWeight += 1.0;
        }
    }

    for (std::size_t g = 0; g <= n_group; ++g)
        if (slots[g].count > 0)
            out.loads.push_back(slots[g]);

    out.linkIds.reserve(group.size());
    for (const auto &e : group) {
        std::uint16_t id = linkId_[static_cast<std::size_t>(
            (cb_idx * h_ + e.y) * w_ + e.x)];
        eqx_assert(id != 0xffff, "EIR tile is not a candidate of its CB");
        out.linkIds.push_back(id);
        int hops = manhattan(cb, e);
        out.lengthHops += hops;
        if (hops > kReachHops)
            ++out.overReach;
    }
}

const EvalContribution &
EirEvaluator::contribution(int cb_idx,
                           const std::vector<Coord> &group) const
{
    eqx_assert(cb_idx >= 0 && cb_idx < prob_->numCbs(),
               "contribution for an unknown CB");
    if (group.empty())
        return local_[static_cast<std::size_t>(cb_idx)];
    auto it = memo_.find(MemoProbe{cb_idx, &group});
    if (it != memo_.end()) {
        ++memoHits_;
        return it->second;
    }
    ++memoMisses_;
    if (memo_.size() >= kMemoCap) {
        // Past the cap: still correct, just uncached.
        computeContribution(cb_idx, group, scratch_);
        return scratch_;
    }
    auto [ins, ok] =
        memo_.emplace(MemoKey{cb_idx, group}, EvalContribution{});
    (void)ok;
    computeContribution(cb_idx, group, ins->second);
    return ins->second;
}

} // namespace eqx
