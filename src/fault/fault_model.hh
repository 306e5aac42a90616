/**
 * @file
 * Fault taxonomy, configuration and deterministic schedule generation
 * for the NoC fault-injection subsystem (DESIGN.md §11).
 *
 * The fault domain is the set of *injection wires*: the NI-to-router
 * links that physically are ubump/RDL structures on the interposer
 * (EIR links) or on-die NI feeds (local injection ports). These are
 * exactly the structures with manufacturing / wear-out concerns the
 * paper's equivalence property provides redundancy for. Mesh links
 * between routers are left out of scope on purpose: a mesh-link fault
 * tests the routing function, not the injection redundancy EquiNox
 * claims.
 *
 * Everything here is strictly opt-in: a default FaultConfig is
 * disabled and the simulator behaves bit-identically to a build
 * without this subsystem.
 */

#ifndef EQX_FAULT_FAULT_MODEL_HH
#define EQX_FAULT_FAULT_MODEL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "noc/packet.hh"

namespace eqx {

/** The modelled fault classes (DESIGN.md §11.1). */
enum class FaultKind : std::uint8_t
{
    /** Transient link stall: arrivals on the wire are withheld for a
     *  bounded number of ticks (particle strike on a repeater, a
     *  marginal ubump recovering). No flits are lost. */
    TransientStall = 0,
    /** Transient flit corruption: the next worm(s) crossing the wire
     *  arrive with a bad checksum and are dropped whole. */
    TransientCorrupt = 1,
    /** Permanent link kill: every subsequent worm on the wire is lost.
     *  Models an RDL trace / ubump open on an interposer link, or a
     *  broken on-die NI feed. */
    PermanentLinkKill = 2,
    /** Permanent router injection-port kill: every injection wire
     *  terminating at the same router dies (an EIR router losing its
     *  RemoteInj front end). */
    PermanentRouterInjKill = 3,
};

constexpr std::uint32_t
faultBit(FaultKind k)
{
    return std::uint32_t{1} << static_cast<int>(k);
}

constexpr std::uint32_t kTransientFaultKinds =
    faultBit(FaultKind::TransientStall) |
    faultBit(FaultKind::TransientCorrupt);
constexpr std::uint32_t kPermanentFaultKinds =
    faultBit(FaultKind::PermanentLinkKill) |
    faultBit(FaultKind::PermanentRouterInjKill);
constexpr std::uint32_t kAllFaultKinds =
    kTransientFaultKinds | kPermanentFaultKinds;

/**
 * Parse a comma-separated kind list ("stall,corrupt", "link_kill",
 * "router_kill", or the groups "transient" / "permanent" / "all") into
 * a kind bitmask. Returns false on an unknown token.
 */
bool parseFaultKinds(const std::string &spec, std::uint32_t &kinds_out);

/** One scheduled fault event. */
struct FaultEvent
{
    /** Resolve `wire` to the network's first interposer injection wire
     *  (tests / CI target "some EIR link" without knowing indices).
     *  Networks without interposer wires drop the event. */
    static constexpr int kAnyInterposerWire = -2;

    Cycle tick = 0;          ///< internal network tick the fault arms
    FaultKind kind = FaultKind::TransientStall;
    /** Plane wire index; -1 resolves by (ni, buf), kAnyInterposerWire
     *  picks the first interposer wire. */
    int wire = -1;
    NodeId ni = kInvalidNode;///< owning NI (when wire == -1)
    int buf = -1;            ///< NI injection-buffer index (wire == -1)
    Cycle duration = 16;     ///< TransientStall: stall length in ticks
    int worms = 1;           ///< TransientCorrupt: worms to corrupt
    /** Restrict the event to the named network ("" = every armed
     *  network; a System arms all its networks with one config). */
    std::string net;
};

/** All knobs of the fault subsystem; default-constructed = disabled. */
struct FaultConfig
{
    /** Expected randomly generated fault events per 1000 internal
     *  ticks per network (0 = only explicit `events`). */
    double ratePerKTick = 0;
    /** Kind mask for generated events (explicit events ignore it). */
    std::uint32_t kinds = kTransientFaultKinds;
    /** Generated event times are drawn uniformly over [1, horizon]. */
    Cycle horizonTicks = 100'000;
    /** Schedule stream seed; 0 derives from the system seed so sweeps
     *  stay decorrelated per (seed, network) without extra plumbing. */
    std::uint64_t seed = 0;
    /** Restrict *generated* permanent kills to interposer wires (the
     *  structures with the real wear-out concern). Networks without
     *  any interposer wire fall back to all injection wires, so the
     *  baseline scheme still takes kills in comparison campaigns. */
    bool killOnlyInterposer = true;

    Cycle stallTicks = 16;   ///< duration of generated stall events

    // ---- End-to-end recovery protocol (DESIGN.md §11.3) ----
    /** Initial retransmission timeout in internal ticks. The timer
     *  starts at NI enqueue, so it must cover worst-case queueing
     *  delay under load — too small only costs spurious (deduped)
     *  retransmissions, never correctness. */
    Cycle retxTimeout = 512;
    /** Exponential-backoff cap on the timeout. */
    Cycle retxTimeoutCap = 4096;
    /** Retransmission attempts before declaring a packet lost;
     *  0 = unlimited (guaranteed eventual delivery under transient
     *  faults; permanent faults are recovered via port masking). */
    int retxMax = 0;
    /** Modelled latency of the out-of-band ack path, in ticks. */
    Cycle ackLatency = 8;
    /** Ticks from a permanent kill to the NI masking the port. */
    Cycle detectLatency = 8;

    /** Run the seq/ack/retransmission machinery even with no faults
     *  scheduled (protocol-overhead measurement, determinism tests). */
    bool forceProtocol = false;

    /** Explicit schedule, applied before any generated events. */
    std::vector<FaultEvent> events;

    bool
    enabled() const
    {
        return ratePerKTick > 0 || !events.empty() || forceProtocol;
    }
};

/** Static description of one registered injection wire. */
struct FaultWireDesc
{
    NodeId ni = kInvalidNode; ///< NI owning the injection buffer
    int buf = 0;              ///< buffer index within that NI
    NodeId router = kInvalidNode; ///< router the wire terminates at
    bool interposer = false;  ///< EIR link (ubump/RDL structure)
    int spanHops = 0;         ///< mesh distance the RDL wire spans
};

/**
 * Generate the random part of a fault schedule over @p wires,
 * deterministically from @p seed: event count, times, kinds and wire
 * targets each come from a domain-separated fork of one seeded stream,
 * so two networks armed with different seeds are fully decorrelated
 * while the same (config, wires, seed) triple always reproduces the
 * same schedule — independent of thread count or call order. Wire
 * selection is weighted by physical fault exposure (interposer wires
 * weigh in proportionally to their ubump count and RDL span, see
 * UbumpModel::faultExposureWeight). The result is sorted by tick.
 */
std::vector<FaultEvent>
generateFaultSchedule(const FaultConfig &cfg,
                      const std::vector<FaultWireDesc> &wires,
                      std::uint64_t seed);

/** Aggregate fault/recovery counters for one network. */
struct FaultStats
{
    std::uint64_t seqPackets = 0;     ///< packets entered the protocol
    std::uint64_t delivered = 0;      ///< unique packets delivered
    std::uint64_t duplicates = 0;     ///< dup deliveries discarded
    std::uint64_t retransmissions = 0;///< timeout-triggered re-sends
    std::uint64_t lost = 0;           ///< gave up after retxMax
    std::uint64_t acks = 0;           ///< end-to-end acks delivered
    std::uint64_t wormsDropped = 0;   ///< whole packets dropped on wires
    std::uint64_t flitsDropped = 0;
    std::uint64_t creditsReconciled = 0; ///< credits restored for drops
    std::uint64_t stallEvents = 0;
    std::uint64_t corruptEvents = 0;
    std::uint64_t killEvents = 0;     ///< wires permanently killed
    std::uint64_t maskEvents = 0;     ///< NI buffers masked

    void reset() { *this = FaultStats{}; }
};

/**
 * Per-flit checksum used on fault-enabled wires. Stamped by the NI
 * serializer, verified by the network on arrival; a faulty wire
 * perturbs the stored value so the mismatch is detected exactly where
 * real hardware would detect it.
 */
inline std::uint16_t
flitFcs(const Flit &f)
{
    std::uint64_t h = f.pkt ? f.pkt->id : 0;
    h ^= static_cast<std::uint64_t>(static_cast<unsigned>(f.index)) << 40;
    h ^= static_cast<std::uint64_t>(static_cast<unsigned>(f.vc)) << 32;
    h ^= (f.isHead ? 0x10000u : 0u) | (f.isTail ? 0x20000u : 0u);
    h *= 0x9e3779b97f4a7c15ULL;
    return static_cast<std::uint16_t>(h >> 48);
}

} // namespace eqx

#endif // EQX_FAULT_FAULT_MODEL_HH
