/**
 * @file
 * 2D geometry on the tile grid: exact integer segment-intersection
 * predicates used to count RDL wire crossings in the interposer.
 */

#ifndef EQX_COMMON_GEOMETRY_HH
#define EQX_COMMON_GEOMETRY_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace eqx {

/** A straight wire segment between two tile centres. */
struct Segment
{
    Coord a;
    Coord b;
};

/** Signed orientation of (a, b, c): >0 counter-clockwise, 0 collinear. */
std::int64_t orient(const Coord &a, const Coord &b, const Coord &c);

/** True if c lies on the closed segment [a, b] (assumes collinear). */
bool onSegment(const Coord &a, const Coord &b, const Coord &c);

/**
 * True if the two closed segments intersect at any point, including
 * endpoints and collinear overlap.
 */
bool segmentsIntersect(const Segment &s, const Segment &t);

/**
 * True if the segments *cross* in the RDL sense: they share at least
 * one point that is not a shared endpoint. Two wires fanning out from
 * the same ubump do not need an extra metal layer; wires that touch or
 * overlap anywhere else do.
 */
bool segmentsCross(const Segment &s, const Segment &t);

/** Number of crossing pairs among a set of segments (RDL cross-points). */
int countCrossings(const std::vector<Segment> &segs);

/**
 * Minimum number of RDL metal layers needed so no two wires in the
 * same layer cross: a greedy colouring of the crossing graph.
 * Returns at least 1 for a non-empty set.
 */
int rdlLayersNeeded(const std::vector<Segment> &segs);

/** Euclidean length of a segment in tile pitches. */
double segmentLength(const Segment &s);

/**
 * segmentsCross over every ordered pair (i == j included) of a fixed
 * segment list, as a bit matrix built once: crosses(i, j) is then one
 * load and a mask.
 */
class CrossingTable
{
  public:
    CrossingTable() = default;
    explicit CrossingTable(const std::vector<Segment> &segs);

    std::size_t size() const { return n_; }

    /** segmentsCross(segs[i], segs[j]). */
    bool
    crosses(std::size_t i, std::size_t j) const
    {
        return (bits_[i * words_ + j / 64] >> (j % 64)) & 1U;
    }

  private:
    std::size_t n_ = 0;
    std::size_t words_ = 0; ///< 64-bit words per row
    std::vector<std::uint64_t> bits_;
};

/**
 * Incrementally maintained pairwise crossing count over slot-grouped
 * segments, named by their index in a CrossingTable. Adding a slot's
 * segments costs O(new x existing) table lookups instead of
 * recounting all pairs; removing a slot subtracts exactly what its
 * addition contributed, so the running count always equals
 * countCrossings() over the union of the present segments (the table
 * holds the same segmentsCross predicate, integer arithmetic, no
 * drift).
 */
class CrossingLedger
{
  public:
    explicit CrossingLedger(const CrossingTable *table);

    /**
     * Install the segments @p ids as slot @p slot (which must
     * currently be empty) and add their crossings with every present
     * segment — including the pairs internal to @p ids — to the
     * running count. The slot keeps its vector's capacity across
     * remove()/add(), so a ledger in steady state does not allocate.
     */
    void add(int slot, const std::vector<std::uint16_t> &ids);

    /** Remove slot @p slot's segments and their crossings. */
    void remove(int slot);

    /** Current pairwise crossing count over all present segments. */
    int crossings() const { return count_; }

    /** Total number of present segments. */
    std::size_t size() const { return total_; }

  private:
    /** Crossings of @p ids with every other slot's and among themselves. */
    int crossingsOf(int slot, const std::vector<std::uint16_t> &ids) const;

    const CrossingTable *table_;
    std::vector<std::vector<std::uint16_t>> slots_;
    std::size_t total_ = 0;
    int count_ = 0;
};

} // namespace eqx

#endif // EQX_COMMON_GEOMETRY_HH
