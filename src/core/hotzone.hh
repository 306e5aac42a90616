/**
 * @file
 * Hot zones and the N-Queen scoring policy (paper Section 4.2).
 * Each CB's hot zone is the 8 surrounding tiles: the 4 directly
 * connected Direct Access Zones (DAZ) and the 4 Corner Access Zones
 * (CAZ). Tiles covered by the hot zones of two or more CBs are
 * "hot-zone overlaps"; a placement's penalty sums, per tile, the
 * compounded cost 1+2+..+m over its m overlapping direct neighbours.
 */

#ifndef EQX_CORE_HOTZONE_HH
#define EQX_CORE_HOTZONE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace eqx {

/** The (up to) 4 DAZ tiles of a CB, clipped to the mesh. */
std::vector<Coord> dazTiles(const Coord &cb, int width, int height);

/** The (up to) 4 CAZ tiles of a CB, clipped to the mesh. */
std::vector<Coord> cazTiles(const Coord &cb, int width, int height);

/** DAZ union CAZ. */
std::vector<Coord> hotZoneTiles(const Coord &cb, int width, int height);

/** Per-tile map of how many distinct CBs cover the tile in a hot zone. */
class HotZoneMap
{
  public:
    HotZoneMap(const std::vector<Coord> &cbs, int width, int height);

    /** Number of CB hot zones covering this tile. */
    int coverage(const Coord &c) const;

    /** A tile covered by >= 2 distinct CB hot zones. */
    bool isOverlap(const Coord &c) const { return coverage(c) >= 2; }

    /** True if the tile is in any CB's hot zone. */
    bool inAnyHotZone(const Coord &c) const { return coverage(c) >= 1; }

    int width() const { return w_; }
    int height() const { return h_; }

  private:
    int w_;
    int h_;
    std::vector<int> cover_;
};

/**
 * Penalty of one tile: with m of its direct neighbours being hot-zone
 * overlaps, the score is sum(1..m) = m(m+1)/2 to reflect compounded
 * delay (paper's example: two overlap neighbours -> 1+2 = 3).
 */
int tilePenalty(const HotZoneMap &map, const Coord &c);

/**
 * Scores placements on one board with one reused, zero-bordered
 * coverage grid (DESIGN.md §15.5). penalty() equals summing
 * tilePenalty() over a HotZoneMap of the same CBs: it counts the same
 * clipped hot-zone tiles and scores each tile from the overlap flags
 * of its four direct neighbours, where the border cells always read 0
 * like HotZoneMap's out-of-bounds coverage.
 */
class PlacementScorer
{
  public:
    static constexpr std::size_t kNoSkip = static_cast<std::size_t>(-1);

    PlacementScorer(int width, int height);

    /** Penalty of @p cbs, leaving out the CB at index @p skip. */
    int penalty(const std::vector<Coord> &cbs,
                std::size_t skip = kNoSkip);

  private:
    int w_;
    int h_;
    int stride_; ///< padded row length, w_ + 2
    std::vector<std::uint8_t> cover_;
};

/** Total penalty of a placement: the sum of all tile penalties. */
int placementPenalty(const std::vector<Coord> &cbs, int width, int height);

} // namespace eqx

#endif // EQX_CORE_HOTZONE_HH
