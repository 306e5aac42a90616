#include "common/geometry.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace eqx {

std::int64_t
orient(const Coord &a, const Coord &b, const Coord &c)
{
    std::int64_t abx = b.x - a.x;
    std::int64_t aby = b.y - a.y;
    std::int64_t acx = c.x - a.x;
    std::int64_t acy = c.y - a.y;
    return abx * acy - aby * acx;
}

bool
onSegment(const Coord &a, const Coord &b, const Coord &c)
{
    return std::min(a.x, b.x) <= c.x && c.x <= std::max(a.x, b.x) &&
           std::min(a.y, b.y) <= c.y && c.y <= std::max(a.y, b.y);
}

bool
segmentsIntersect(const Segment &s, const Segment &t)
{
    std::int64_t d1 = orient(s.a, s.b, t.a);
    std::int64_t d2 = orient(s.a, s.b, t.b);
    std::int64_t d3 = orient(t.a, t.b, s.a);
    std::int64_t d4 = orient(t.a, t.b, s.b);

    if (((d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0)) &&
        ((d3 > 0 && d4 < 0) || (d3 < 0 && d4 > 0)))
        return true;

    if (d1 == 0 && onSegment(s.a, s.b, t.a))
        return true;
    if (d2 == 0 && onSegment(s.a, s.b, t.b))
        return true;
    if (d3 == 0 && onSegment(t.a, t.b, s.a))
        return true;
    if (d4 == 0 && onSegment(t.a, t.b, s.b))
        return true;
    return false;
}

namespace {

bool
sharedEndpointOnly(const Segment &s, const Segment &t)
{
    // Count distinct shared endpoints.
    bool aa = s.a == t.a, ab = s.a == t.b, ba = s.b == t.a, bb = s.b == t.b;
    if (!(aa || ab || ba || bb))
        return false;
    // They share an endpoint; the intersection is *only* that endpoint
    // if neither of the other endpoints lies on the opposite segment.
    Coord shared = aa || ab ? s.a : s.b;
    Coord sOther = aa || ab ? s.b : s.a;
    Coord tOther = aa || ba ? t.b : t.a;
    if (orient(s.a, s.b, tOther) == 0 && onSegment(s.a, s.b, tOther) &&
        tOther != shared)
        return false;
    if (orient(t.a, t.b, sOther) == 0 && onSegment(t.a, t.b, sOther) &&
        sOther != shared)
        return false;
    return true;
}

} // namespace

bool
segmentsCross(const Segment &s, const Segment &t)
{
    if (!segmentsIntersect(s, t))
        return false;
    return !sharedEndpointOnly(s, t);
}

int
countCrossings(const std::vector<Segment> &segs)
{
    int crossings = 0;
    for (std::size_t i = 0; i < segs.size(); ++i)
        for (std::size_t j = i + 1; j < segs.size(); ++j)
            if (segmentsCross(segs[i], segs[j]))
                ++crossings;
    return crossings;
}

int
rdlLayersNeeded(const std::vector<Segment> &segs)
{
    if (segs.empty())
        return 0;
    std::size_t n = segs.size();
    std::vector<int> layer(n, -1);
    int layers = 1;
    for (std::size_t i = 0; i < n; ++i) {
        // Greedy: lowest layer with no crossing against already-placed
        // wires in that layer.
        for (int l = 0;; ++l) {
            bool ok = true;
            for (std::size_t j = 0; j < i && ok; ++j) {
                if (layer[j] == l && segmentsCross(segs[i], segs[j]))
                    ok = false;
            }
            if (ok) {
                layer[i] = l;
                layers = std::max(layers, l + 1);
                break;
            }
        }
    }
    return layers;
}

double
segmentLength(const Segment &s)
{
    double dx = s.b.x - s.a.x;
    double dy = s.b.y - s.a.y;
    return std::sqrt(dx * dx + dy * dy);
}

CrossingTable::CrossingTable(const std::vector<Segment> &segs)
    : n_(segs.size()), words_((segs.size() + 63) / 64),
      bits_(n_ * words_, 0)
{
    for (std::size_t i = 0; i < n_; ++i) {
        for (std::size_t j = i; j < n_; ++j) {
            if (!segmentsCross(segs[i], segs[j]))
                continue;
            bits_[i * words_ + j / 64] |= std::uint64_t{1} << (j % 64);
            bits_[j * words_ + i / 64] |= std::uint64_t{1} << (i % 64);
        }
    }
}

CrossingLedger::CrossingLedger(const CrossingTable *table) : table_(table)
{
    eqx_assert(table_, "ledger needs a crossing table");
}

int
CrossingLedger::crossingsOf(int slot,
                            const std::vector<std::uint16_t> &ids) const
{
    int n = 0;
    for (std::size_t o = 0; o < slots_.size(); ++o) {
        if (static_cast<int>(o) == slot)
            continue;
        for (std::uint16_t other : slots_[o])
            for (std::uint16_t id : ids)
                n += table_->crosses(id, other);
    }
    for (std::size_t i = 0; i < ids.size(); ++i)
        for (std::size_t j = i + 1; j < ids.size(); ++j)
            n += table_->crosses(ids[i], ids[j]);
    return n;
}

void
CrossingLedger::add(int slot, const std::vector<std::uint16_t> &ids)
{
    eqx_assert(slot >= 0, "ledger slot must be non-negative");
    if (static_cast<std::size_t>(slot) >= slots_.size())
        slots_.resize(static_cast<std::size_t>(slot) + 1);
    auto &dst = slots_[static_cast<std::size_t>(slot)];
    eqx_assert(dst.empty(), "ledger slot already occupied");
    for (std::uint16_t id : ids)
        eqx_assert(id < table_->size(), "segment outside the table");
    count_ += crossingsOf(slot, ids);
    total_ += ids.size();
    dst.assign(ids.begin(), ids.end());
}

void
CrossingLedger::remove(int slot)
{
    eqx_assert(slot >= 0 &&
                   static_cast<std::size_t>(slot) < slots_.size(),
               "removing an unknown ledger slot");
    auto &ids = slots_[static_cast<std::size_t>(slot)];
    count_ -= crossingsOf(slot, ids);
    total_ -= ids.size();
    ids.clear();
    eqx_assert(count_ >= 0, "ledger crossing count went negative");
}

} // namespace eqx
