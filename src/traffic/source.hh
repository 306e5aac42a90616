/**
 * @file
 * Closed-loop traffic source: the per-PE op stream a ProcessingElement
 * consumes through its issue/L1/MSHR pipeline. Header-only so eqx_gpu
 * can hold sources without linking eqx_traffic; the concrete models
 * (synthetic, trace replay/capture) live in the traffic library.
 */

#ifndef EQX_TRAFFIC_SOURCE_HH
#define EQX_TRAFFIC_SOURCE_HH

#include <cstdint>
#include <utility>

#include "workloads/trace_gen.hh"

namespace eqx {

/** One PE's instruction stream (closed-loop models). */
class TrafficSource
{
  public:
    virtual ~TrafficSource() = default;

    /** Produce the next instruction; false when the stream is done. */
    virtual bool next(TraceOp &op) = 0;

    /** Instructions left to issue. */
    virtual std::uint64_t remaining() const = 0;
};

/** The legacy default: a PeTraceGen behind the source interface. */
class SyntheticSource final : public TrafficSource
{
  public:
    explicit SyntheticSource(PeTraceGen gen) : gen_(std::move(gen)) {}

    bool next(TraceOp &op) override { return gen_.next(op); }
    std::uint64_t remaining() const override { return gen_.remaining(); }

  private:
    PeTraceGen gen_;
};

} // namespace eqx

#endif // EQX_TRAFFIC_SOURCE_HH
