/**
 * @file
 * Traffic subsystem knobs carried inside SystemConfig. Plain data so
 * sim/scheme.hh can include it without linking eqx_traffic; every
 * field is hashed by serializeTrafficConfig (config_serial.cc) so
 * sweep-cache cells from different traffic models can never collide.
 */

#ifndef EQX_TRAFFIC_TRAFFIC_CONFIG_HH
#define EQX_TRAFFIC_TRAFFIC_CONFIG_HH

#include <cstdint>
#include <string>

namespace eqx {

/** Configuration of the traffic model driving the endpoints. */
struct TrafficConfig
{
    /** Registered model name ("" = "synthetic", the legacy default). */
    std::string model;

    /**
     * Trace hook: "" (off), "capture:<path>" (record the op stream the
     * PEs consume), or "replay:<path>" (drive the PEs from a captured
     * file instead of the synthetic generator). Composes with the
     * closed-loop models only.
     */
    std::string trace;

    // ---- open-loop storm knobs (storm-* models) ----

    /** Peak offered load: packet arrivals per 1000 core cycles per
     *  injector tile. The profile shapes rate(t) below this ceiling.
     *  Finite, in (0, kStormMaxRatePerK] (traffic/storm.hh). */
    double stormRatePerK = 64.0;

    /** Cycles of arrival generation (>= 1); the run then drains and
     *  ends. */
    std::uint64_t stormHorizon = 50'000;

    /** Per-tile backlog cap (packets); arrivals beyond it are dropped
     *  — the open-loop loss signal under saturation. */
    int stormQueueCap = 64;

    /** Trough fraction of the peak rate (diurnal floor / flash base). */
    double stormTrough = 0.25;

    /** Fraction of storm requests that are writes. */
    double stormWriteFrac = 0.2;

    /** Hotspot model: how many CBs are hot and what fraction of the
     *  arrivals concentrate on them. */
    int stormHotCbs = 1;
    double stormHotFrac = 0.9;

    // ---- coherence-style multi-flow knobs (coherence model) ----

    /** Reserve this many top VCs as a third VC class for the
     *  Invalidate/InvAck multicast flows (classVcs networks only;
     *  needs vcsPerPort >= coherenceVcs + 2). 0 = share the
     *  direction's class. */
    int coherenceVcs = 0;

    /** Sharer-set granularity: cache lines per tracked region. */
    int cohRegionLines = 4;

    /** True when every knob still holds its default (the legacy
     *  synthetic path, byte-identical to pre-traffic builds). */
    bool
    isDefault() const
    {
        return (model.empty() || model == "synthetic") && trace.empty() &&
               coherenceVcs == 0;
    }
};

} // namespace eqx

#endif // EQX_TRAFFIC_TRAFFIC_CONFIG_HH
