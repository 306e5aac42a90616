#include "core/hotzone.hh"

#include <algorithm>

#include "common/logging.hh"

namespace eqx {

namespace {

bool
inBounds(const Coord &c, int w, int h)
{
    return c.x >= 0 && c.x < w && c.y >= 0 && c.y < h;
}

} // namespace

std::vector<Coord>
dazTiles(const Coord &cb, int width, int height)
{
    std::vector<Coord> out;
    for (Dir d : {Dir::North, Dir::East, Dir::South, Dir::West}) {
        Coord s = dirStep(d);
        Coord c{cb.x + s.x, cb.y + s.y};
        if (inBounds(c, width, height))
            out.push_back(c);
    }
    return out;
}

std::vector<Coord>
cazTiles(const Coord &cb, int width, int height)
{
    std::vector<Coord> out;
    for (int dx : {-1, 1}) {
        for (int dy : {-1, 1}) {
            Coord c{cb.x + dx, cb.y + dy};
            if (inBounds(c, width, height))
                out.push_back(c);
        }
    }
    return out;
}

std::vector<Coord>
hotZoneTiles(const Coord &cb, int width, int height)
{
    auto out = dazTiles(cb, width, height);
    auto caz = cazTiles(cb, width, height);
    out.insert(out.end(), caz.begin(), caz.end());
    return out;
}

HotZoneMap::HotZoneMap(const std::vector<Coord> &cbs, int width, int height)
    : w_(width), h_(height),
      cover_(static_cast<std::size_t>(width * height), 0)
{
    for (const auto &cb : cbs) {
        eqx_assert(inBounds(cb, w_, h_), "CB out of bounds");
        for (const auto &t : hotZoneTiles(cb, w_, h_))
            ++cover_[static_cast<std::size_t>(t.y * w_ + t.x)];
    }
}

int
HotZoneMap::coverage(const Coord &c) const
{
    if (!inBounds(c, w_, h_))
        return 0;
    return cover_[static_cast<std::size_t>(c.y * w_ + c.x)];
}

int
tilePenalty(const HotZoneMap &map, const Coord &c)
{
    int m = 0;
    for (Dir d : {Dir::North, Dir::East, Dir::South, Dir::West}) {
        Coord s = dirStep(d);
        Coord n{c.x + s.x, c.y + s.y};
        if (map.isOverlap(n))
            ++m;
    }
    return m * (m + 1) / 2;
}

PlacementScorer::PlacementScorer(int width, int height)
    : w_(width), h_(height), stride_(width + 2),
      cover_(static_cast<std::size_t>((width + 2) * (height + 2)), 0)
{
}

int
PlacementScorer::penalty(const std::vector<Coord> &cbs, std::size_t skip)
{
    std::fill(cover_.begin(), cover_.end(), std::uint8_t{0});
    for (std::size_t i = 0; i < cbs.size(); ++i) {
        if (i == skip)
            continue;
        const Coord &cb = cbs[i];
        eqx_assert(inBounds(cb, w_, h_), "CB out of bounds");
        // The 8 DAZ/CAZ tiles, clipped to the board. Only whether a
        // tile's coverage reaches 2 matters, so the count stops there.
        for (int dy = -1; dy <= 1; ++dy) {
            for (int dx = -1; dx <= 1; ++dx) {
                Coord t{cb.x + dx, cb.y + dy};
                if ((dx == 0 && dy == 0) || !inBounds(t, w_, h_))
                    continue;
                std::uint8_t &v = cover_[static_cast<std::size_t>(
                    (t.y + 1) * stride_ + t.x + 1)];
                v = static_cast<std::uint8_t>(v + (v < 2));
            }
        }
    }
    int total = 0;
    for (int y = 0; y < h_; ++y) {
        const std::uint8_t *c =
            cover_.data() + static_cast<std::size_t>((y + 1) * stride_ + 1);
        for (int x = 0; x < w_; ++x, ++c) {
            int m = (c[-stride_] >= 2) + (c[1] >= 2) + (c[stride_] >= 2) +
                    (c[-1] >= 2);
            total += m * (m + 1) / 2;
        }
    }
    return total;
}

int
placementPenalty(const std::vector<Coord> &cbs, int width, int height)
{
    return PlacementScorer(width, height).penalty(cbs);
}

} // namespace eqx
