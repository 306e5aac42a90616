/**
 * @file
 * Pluggable network topology layer (DESIGN.md §17). A Topology owns
 * every piece of fabric geometry the simulator used to hard-code as
 * 2D-mesh `Dir` arithmetic:
 *
 *  - the endpoint (tile) space: `coord`/`node` mapping, `numNodes()`;
 *  - the router space: `routerOf`/`tileSlot`/`routerCoord` — for the
 *    unconcentrated topologies the two spaces coincide, for CMesh a
 *    c x c block of tiles shares one router;
 *  - link wiring: `neighbor(router, dir)` drives Network channel
 *    construction, returning -1 where the mesh has an edge and the
 *    wrapped router id where the torus closes the ring;
 *  - routed hop distance: `distance(a, b)` between endpoint tiles,
 *    the single source of hop geometry for both the router/NI layer
 *    and the src/core EIR evaluator (so search scores stay consistent
 *    with what the NoC simulates);
 *  - route compute: `dimOrderDir` (the escape discipline) and
 *    `minimalRouterDirs` (the adaptive candidate set), plus
 *    `wrapClass` — the per-hop dateline VC class that keeps the torus
 *    escape sub-network acyclic (see DESIGN.md §17 for the proof).
 *
 * Hot queries are non-virtual and data-driven (a switch on the kind
 * enum over base-class fields) so the router's route-compute stage
 * pays no virtual dispatch; only construction-time wiring
 * (`neighbor`) and identity (`name`) are virtual.
 */

#ifndef EQX_NOC_TOPOLOGY_HH
#define EQX_NOC_TOPOLOGY_HH

#include <algorithm>
#include <memory>
#include <string>

#include "common/logging.hh"
#include "common/types.hh"
#include "noc/routing.hh"

namespace eqx {

enum class TopologyKind : std::uint8_t { Mesh = 0, Torus = 1, CMesh = 2 };

/** Canonical lowercase kind name ("mesh", "torus", "cmesh"). */
const char *topologyKindName(TopologyKind k);

/** The per-network topology knobs a scheme or config can set. */
struct TopoSpec
{
    TopologyKind kind = TopologyKind::Mesh;
    /** CMesh concentration: a c x c tile block shares one router. */
    int concentration = 2;

    bool
    operator==(const TopoSpec &o) const
    {
        return kind == o.kind && concentration == o.concentration;
    }
    bool operator!=(const TopoSpec &o) const { return !(*this == o); }
};

class Topology
{
  public:
    virtual ~Topology() = default;

    virtual const char *name() const = 0;

    /**
     * The router reached by following @p d out of @p router, or -1
     * where the topology has no such link. Construction-time only:
     * Network's channel builder walks routers in ascending id and
     * directions in its fixed order, so for the mesh this reproduces
     * the pre-topology port wiring exactly.
     */
    virtual int neighbor(int router, Dir d) const = 0;

    TopologyKind kind() const { return kind_; }
    int width() const { return w_; }
    int height() const { return h_; }
    int concentration() const { return conc_; }

    /** Endpoint (tile) count — PEs/CBs/NIs live in this space. */
    int numNodes() const { return w_ * h_; }
    int routerCols() const { return rw_; }
    int routerRows() const { return rh_; }
    int numRouters() const { return rw_ * rh_; }

    bool wraps() const { return kind_ == TopologyKind::Torus; }
    bool concentrated() const { return conc_ > 1; }

    // ---- endpoint (tile) space ----

    Coord
    coord(NodeId n) const
    {
        return {static_cast<int>(n) % w_, static_cast<int>(n) / w_};
    }
    NodeId
    node(const Coord &c) const
    {
        return static_cast<NodeId>(c.y * w_ + c.x);
    }
    bool
    inBounds(const Coord &c) const
    {
        return c.x >= 0 && c.x < w_ && c.y >= 0 && c.y < h_;
    }

    // ---- router space ----

    /** The router serving endpoint @p tile. */
    NodeId
    routerOf(NodeId tile) const
    {
        if (conc_ == 1)
            return tile;
        Coord c = coord(tile);
        return static_cast<NodeId>((c.y / conc_) * rw_ + c.x / conc_);
    }

    /**
     * The rank of @p tile among its router's tiles in ascending
     * tile-id order — exactly the order Network attaches the tiles'
     * ejection ports, so a concentrated router can eject by indexing
     * its ejection-port list with the destination's slot.
     */
    int
    tileSlot(NodeId tile) const
    {
        if (conc_ == 1)
            return 0;
        Coord c = coord(tile);
        return (c.y % conc_) * conc_ + c.x % conc_;
    }

    Coord
    routerCoord(NodeId router) const
    {
        return {static_cast<int>(router) % rw_,
                static_cast<int>(router) / rw_};
    }

    /** Router-space coordinate of endpoint @p tile's router. */
    Coord
    routerCoordOf(NodeId tile) const
    {
        if (conc_ == 1)
            return coord(tile);
        Coord c = coord(tile);
        return {c.x / conc_, c.y / conc_};
    }

    // ---- routed hop geometry ----

    /**
     * Routed hop distance between two *router-space* coordinates:
     * Manhattan on grid topologies, wrapped per-ring minimum on the
     * torus.
     */
    int
    routerDistance(const Coord &a, const Coord &b) const
    {
        if (kind_ == TopologyKind::Torus) {
            int dx = a.x > b.x ? a.x - b.x : b.x - a.x;
            int dy = a.y > b.y ? a.y - b.y : b.y - a.y;
            return std::min(dx, rw_ - dx) + std::min(dy, rh_ - dy);
        }
        return manhattan(a, b);
    }

    /**
     * Routed hop distance between the routers serving endpoint tiles
     * at @p a and @p b: Manhattan on the mesh, wrapped per-ring
     * minimum on the torus, router-grid Manhattan on CMesh. This is
     * the hop metric the EIR evaluator and the NI buffer selection
     * share with the router's minimal route compute.
     */
    int
    distance(const Coord &a, const Coord &b) const
    {
        if (conc_ == 1)
            return routerDistance(a, b);
        return routerDistance({a.x / conc_, a.y / conc_},
                              {b.x / conc_, b.y / conc_});
    }

    /**
     * The dimension-order (escape) direction from router @p cur
     * toward router @p dest: x first, then y, taking the wrap link
     * when it is strictly shorter (even-ring ties break toward
     * East/South, matching the positive direction the mesh prefers).
     */
    Dir
    dimOrderDir(const Coord &cur, const Coord &dest) const
    {
        if (!wraps())
            return xyDirection(cur, dest);
        if (dest.x != cur.x) {
            int fwd = dest.x - cur.x;
            if (fwd < 0)
                fwd += rw_;
            return fwd <= rw_ - fwd ? Dir::East : Dir::West;
        }
        if (dest.y != cur.y) {
            int fwd = dest.y - cur.y;
            if (fwd < 0)
                fwd += rh_;
            return fwd <= rh_ - fwd ? Dir::South : Dir::North;
        }
        return Dir::Local;
    }

    /**
     * All minimal directions from router @p cur toward router
     * @p dest: at most one per dimension, x candidate first. On the
     * torus a wrap direction appears iff it is not longer than the
     * inward path (ties break to East/South, exactly as
     * dimOrderDir).
     */
    RouteCandidates
    minimalRouterDirs(const Coord &cur, const Coord &dest) const
    {
        if (!wraps())
            return minimalDirections(cur, dest);
        RouteCandidates out;
        if (dest.x != cur.x) {
            int fwd = dest.x - cur.x;
            if (fwd < 0)
                fwd += rw_;
            out.push_back(fwd <= rw_ - fwd ? Dir::East : Dir::West);
        }
        if (dest.y != cur.y) {
            int fwd = dest.y - cur.y;
            if (fwd < 0)
                fwd += rh_;
            out.push_back(fwd <= rh_ - fwd ? Dir::South : Dir::North);
        }
        return out;
    }

    /**
     * The dateline VC class of a packet at router @p cur heading for
     * router @p dest along @p d: 0 while the minimal path in @p d's
     * dimension still has the wrap link ahead of it, 1 once it does
     * not (or never did). Per ring the order
     * (router 0, class 0) < ... < (w-1, class 0) < (0, class 1) <
     * ... < (w-1, class 1) strictly increases along every escape
     * hop — class-1 packets never use the wrap link — so the escape
     * sub-network is acyclic (DESIGN.md §17). Non-wrapping
     * topologies are always class 1.
     */
    int
    wrapClass(const Coord &cur, const Coord &dest, Dir d) const
    {
        if (!wraps())
            return 1;
        switch (d) {
          case Dir::East:
            return dest.x < cur.x ? 0 : 1;
          case Dir::West:
            return dest.x > cur.x ? 0 : 1;
          case Dir::South:
            return dest.y < cur.y ? 0 : 1;
          case Dir::North:
            return dest.y > cur.y ? 0 : 1;
          default:
            return 1;
        }
    }

  protected:
    Topology(TopologyKind kind, int width, int height, int conc)
        : kind_(kind), w_(width), h_(height), conc_(conc),
          rw_(width / conc), rh_(height / conc)
    {
        eqx_assert(conc_ >= 1, "concentration must be positive");
        eqx_assert(w_ % conc_ == 0 && h_ % conc_ == 0,
                   "width and height must be multiples of the "
                   "concentration factor");
    }

    const TopologyKind kind_;
    const int w_;    ///< endpoint columns
    const int h_;    ///< endpoint rows
    const int conc_; ///< tiles per router side (1 unless CMesh)
    const int rw_;   ///< router columns
    const int rh_;   ///< router rows
};

/** The extracted default: the paper's 2D mesh, byte-identical. */
class Mesh2D final : public Topology
{
  public:
    Mesh2D(int width, int height)
        : Topology(TopologyKind::Mesh, width, height, 1)
    {
    }
    const char *name() const override { return "mesh"; }
    int neighbor(int router, Dir d) const override;
};

/** 2D torus: the mesh with per-ring wrap links. */
class Torus2D final : public Topology
{
  public:
    Torus2D(int width, int height)
        : Topology(TopologyKind::Torus, width, height, 1)
    {
    }
    const char *name() const override { return "torus"; }
    int neighbor(int router, Dir d) const override;
};

/** Concentrated mesh: one router per c x c block of endpoint tiles. */
class CMesh final : public Topology
{
  public:
    CMesh(int width, int height, int concentration)
        : Topology(TopologyKind::CMesh, width, height, concentration)
    {
        eqx_assert(concentration > 1,
                   "CMesh needs a concentration factor > 1");
    }
    const char *name() const override { return "cmesh"; }
    int neighbor(int router, Dir d) const override;
};

/** Build the topology @p spec describes over a w x h endpoint grid. */
std::unique_ptr<const Topology>
makeTopology(int width, int height, const TopoSpec &spec = {});

} // namespace eqx

#endif // EQX_NOC_TOPOLOGY_HH
