/**
 * @file
 * Per-PE synthetic instruction/memory stream driven by a
 * WorkloadProfile. Deterministic for a given (profile, pe, seed)
 * triple, so every scheme sees the identical access stream.
 */

#ifndef EQX_WORKLOADS_TRACE_GEN_HH
#define EQX_WORKLOADS_TRACE_GEN_HH

#include <cstdint>

#include "common/rng.hh"
#include "common/types.hh"
#include "workloads/profiles.hh"

namespace eqx {

/** One generated instruction. */
struct TraceOp
{
    bool isMem = false;
    bool isWrite = false;
    Addr addr = 0; ///< line-aligned byte address (mem ops only)
};

/**
 * The generator walks a private per-PE region and a shared region.
 * Sequential bursts continue with probability seqProb; otherwise the
 * next access jumps uniformly inside the selected region.
 */
class PeTraceGen
{
  public:
    static constexpr int kLineBytes = 64;

    PeTraceGen(const WorkloadProfile &profile, int pe_index,
               std::uint64_t seed);

    /** Produce the next instruction; false when the stream is done. */
    bool next(TraceOp &op);

    std::uint64_t remaining() const { return remaining_; }

  private:
    Addr privateBase() const;
    Addr lineToAddr(Addr region_base, std::uint64_t line) const;

    WorkloadProfile profile_;
    int pe_;
    Rng rng_;
    std::uint64_t remaining_;
    std::uint64_t seqLine_ = 0;  ///< cursor for sequential walks
    bool inShared_ = false;
};

} // namespace eqx

#endif // EQX_WORKLOADS_TRACE_GEN_HH
