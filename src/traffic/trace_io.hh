/**
 * @file
 * Trace capture/replay wire format and sources (DESIGN.md §16). A
 * trace file is flat-JSON lines — rendered by the JsonObject builder
 * and parsed by the strict parseFlatJson, the same canonical format
 * as the sweep records — so capture -> replay -> capture reproduces
 * the original bytes exactly:
 *
 *   {"_eqx_trace":1,"pes":N,"workload":"bfs"}        header
 *   {"pe":0,"gap":3,"w":0,"addr":262144}             one mem op
 *   ...                                              (grouped by PE)
 *   {"pe":0,"tail":5,"mem":123,"insts":1000}         per-PE footer
 *   ...
 *   {"_eqx_trace_end":N}                             end marker
 *
 * `gap` counts the non-mem instructions issued before the op; `tail`
 * the non-mem instructions after the last op. Ops are grouped by PE
 * (PE 0's ops, then PE 1's, ...) so capture bytes are a pure function
 * of the op streams — identical across schemes, tick modes and
 * interleavings. The end marker plus per-PE footers (with op/inst
 * counts) make truncation detectable at any cut point.
 */

#ifndef EQX_TRAFFIC_TRACE_IO_HH
#define EQX_TRAFFIC_TRACE_IO_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "traffic/source.hh"

namespace eqx {

/** One captured memory op: its pre-gap and the access itself. */
struct TraceMemOp
{
    std::uint64_t gap = 0; ///< non-mem instructions before this op
    bool isWrite = false;
    Addr addr = 0;
};

/** One PE's captured stream. */
struct PeTrace
{
    std::vector<TraceMemOp> ops;
    std::uint64_t tail = 0;  ///< trailing non-mem instructions
    std::uint64_t insts = 0; ///< total instructions (gaps + ops + tail)
};

/** A parsed trace file. */
struct TraceData
{
    std::string workload;
    std::vector<PeTrace> pes;
};

/**
 * Parsed trace= spec: comma-separated "capture:<path>" / "replay:<path>"
 * directives (at most one of each; both allowed, which is how the
 * round-trip test re-captures a replayed stream). Fatal on anything
 * else.
 */
struct TraceSpec
{
    std::string capturePath;
    std::string replayPath;
};

TraceSpec parseTraceSpec(const std::string &spec);

/**
 * Load a trace file. Returns false with a clear @p err (naming the
 * offending line) on IO errors, malformed JSON, header/footer
 * mismatches, or truncation. Counting checks make any cut file fail:
 * every PE needs a footer whose op/inst counts match its op lines,
 * and the end marker must close the file.
 */
bool readTraceFile(const std::string &path, TraceData &out,
                   std::string &err);

/** Accumulates the op streams the PEs consume; written at run end. */
class TraceCapture
{
  public:
    TraceCapture(int num_pes, std::string workload);

    /** Record one consumed instruction of @p pe. */
    void record(int pe, const TraceOp &op);

    /** Render and write the file; false with @p err on IO failure. */
    bool writeFile(const std::string &path, std::string &err) const;

  private:
    std::string workload_;
    std::vector<PeTrace> pes_;
    std::vector<std::uint64_t> pendingGap_;
};

/** Pass-through source that records every consumed op. */
class CaptureSource final : public TrafficSource
{
  public:
    CaptureSource(std::unique_ptr<TrafficSource> inner,
                  TraceCapture *capture, int pe)
        : inner_(std::move(inner)), capture_(capture), pe_(pe)
    {
    }

    bool
    next(TraceOp &op) override
    {
        if (!inner_->next(op))
            return false;
        capture_->record(pe_, op);
        return true;
    }

    std::uint64_t remaining() const override { return inner_->remaining(); }

  private:
    std::unique_ptr<TrafficSource> inner_;
    TraceCapture *capture_;
    int pe_;
};

/** Replays one PE's captured stream, instruction for instruction. */
class ReplaySource final : public TrafficSource
{
  public:
    explicit ReplaySource(const PeTrace *t)
        : t_(t), remaining_(t->insts),
          gapLeft_(t->ops.empty() ? 0 : t->ops.front().gap)
    {
    }

    bool next(TraceOp &op) override;
    std::uint64_t remaining() const override { return remaining_; }

  private:
    const PeTrace *t_;
    std::uint64_t remaining_;
    std::uint64_t gapLeft_;
    std::size_t idx_ = 0;
};

} // namespace eqx

#endif // EQX_TRAFFIC_TRACE_IO_HH
