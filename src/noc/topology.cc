#include "noc/topology.hh"

namespace eqx {

namespace {

/** Mesh-grid neighbor on an rw x rh router grid; -1 off the edge. */
int
gridNeighbor(int router, Dir d, int rw, int rh)
{
    Coord c{router % rw, router / rw};
    Coord step = dirStep(d);
    Coord n{c.x + step.x, c.y + step.y};
    if (n.x < 0 || n.x >= rw || n.y < 0 || n.y >= rh)
        return -1;
    return n.y * rw + n.x;
}

} // namespace

const char *
topologyKindName(TopologyKind k)
{
    switch (k) {
      case TopologyKind::Mesh:  return "mesh";
      case TopologyKind::Torus: return "torus";
      case TopologyKind::CMesh: return "cmesh";
    }
    return "?";
}

int
Mesh2D::neighbor(int router, Dir d) const
{
    return gridNeighbor(router, d, rw_, rh_);
}

int
Torus2D::neighbor(int router, Dir d) const
{
    Coord c{router % rw_, router / rw_};
    Coord step = dirStep(d);
    int x = (c.x + step.x + rw_) % rw_;
    int y = (c.y + step.y + rh_) % rh_;
    int n = y * rw_ + x;
    // A 2-wide ring would alias both directions onto one neighbor
    // (and a 1-wide ring onto itself); the Network constructor
    // rejects those sizes, but keep construction honest here too.
    eqx_assert(n != router, "degenerate torus ring (side < 2)");
    return n;
}

int
CMesh::neighbor(int router, Dir d) const
{
    return gridNeighbor(router, d, rw_, rh_);
}

std::unique_ptr<const Topology>
makeTopology(int width, int height, const TopoSpec &spec)
{
    switch (spec.kind) {
      case TopologyKind::Mesh:
        return std::make_unique<Mesh2D>(width, height);
      case TopologyKind::Torus:
        return std::make_unique<Torus2D>(width, height);
      case TopologyKind::CMesh:
        return std::make_unique<CMesh>(width, height,
                                       spec.concentration);
    }
    eqx_fatal("unknown topology kind ", static_cast<int>(spec.kind));
    return nullptr;
}

} // namespace eqx
