#include "memory/hbm.hh"

#include <algorithm>
#include <array>
#include <bit>

#include "common/logging.hh"

namespace eqx {

namespace {

// One name per enumerator, in enum order.
constexpr std::array kStatNames = {
    "reads",
    "writes",
    "row_hits",
    "row_conflicts",
    "row_empty",
    "completions",
};

} // namespace

HbmStack::HbmStack(const HbmParams &params, Callback on_complete)
    : params_(params), onComplete_(std::move(on_complete))
{
    eqx_assert(params_.channels >= 1 && params_.channels <= kMaxChannels,
               "HBM channels must be in [1, ", kMaxChannels, "], got ",
               params_.channels);
    eqx_assert(params_.banksPerChannel >= 1,
               "HBM banksPerChannel must be >= 1, got ",
               params_.banksPerChannel);
    eqx_assert(params_.queueDepth >= 1, "HBM queueDepth must be >= 1, got ",
               params_.queueDepth);
    eqx_assert(params_.lineBytes >= 1, "HBM lineBytes must be >= 1, got ",
               params_.lineBytes);
    channels_.resize(static_cast<std::size_t>(params_.channels));
    for (auto &ch : channels_) {
        ch.queue.reserve(static_cast<std::size_t>(params_.queueDepth));
        ch.banks.resize(static_cast<std::size_t>(params_.banksPerChannel));
    }
}

int
HbmStack::channelOf(Addr addr) const
{
    return static_cast<int>((addr / static_cast<Addr>(params_.lineBytes)) %
                            static_cast<Addr>(params_.channels));
}

int
HbmStack::bankOf(Addr addr) const
{
    Addr line = addr / static_cast<Addr>(params_.lineBytes);
    return static_cast<int>((line / static_cast<Addr>(params_.channels)) %
                            static_cast<Addr>(params_.banksPerChannel));
}

std::int64_t
HbmStack::rowOf(Addr addr) const
{
    Addr line = addr / static_cast<Addr>(params_.lineBytes);
    // 64 lines (4 KiB rows at 64 B lines) per row.
    return static_cast<std::int64_t>(
        line / static_cast<Addr>(params_.channels) /
        static_cast<Addr>(params_.banksPerChannel) / 64);
}

bool
HbmStack::canEnqueue(Addr addr) const
{
    const auto &ch = channels_[static_cast<std::size_t>(channelOf(addr))];
    return static_cast<int>(ch.queue.size()) < params_.queueDepth;
}

void
HbmStack::enqueue(const MemRequest &req, Cycle)
{
    int c = channelOf(req.addr);
    auto &ch = channels_[static_cast<std::size_t>(c)];
    eqx_assert(static_cast<int>(ch.queue.size()) < params_.queueDepth,
               "HBM channel queue overflow");
    int bank = bankOf(req.addr);
    // max(busFreeAt, min(a, b)) == min(max(busFreeAt, a),
    // max(busFreeAt, b)): folding the new bank in keeps issueAt exact.
    Cycle ready = std::max(
        ch.busFreeAt, ch.banks[static_cast<std::size_t>(bank)].readyAt);
    if (ch.queue.empty()) {
        ch.issueAt = ready;
        backlog_ |= std::uint64_t{1} << c;
    } else {
        ch.issueAt = std::min(ch.issueAt, ready);
    }
    ch.queue.push_back(Queued{req, bank, rowOf(req.addr)});
    ++outstanding_;
    counters_.inc(req.write ? HbmStat::Writes : HbmStat::Reads);
}

void
HbmStack::issueChannel(int c, Cycle now)
{
    Channel &ch = channels_[static_cast<std::size_t>(c)];
    const DramTiming &t = params_.timing;

    // FR-FCFS: first ready row-hit; otherwise the oldest ready request.
    std::size_t pick = ch.queue.size();
    for (std::size_t i = 0; i < ch.queue.size(); ++i) {
        const Queued &q = ch.queue[i];
        const Bank &b = ch.banks[static_cast<std::size_t>(q.bank)];
        if (b.readyAt > now)
            continue;
        if (b.openRow == q.row) {
            pick = i;
            break;
        }
        if (pick == ch.queue.size())
            pick = i;
    }
    eqx_assert(pick < ch.queue.size(),
               "HBM channel due at ", ch.issueAt, " has no ready bank at ",
               now);

    Queued q = ch.queue[pick];
    ch.queue.erase(ch.queue.begin() + static_cast<std::ptrdiff_t>(pick));

    Bank &bank = ch.banks[static_cast<std::size_t>(q.bank)];
    int access_lat;
    if (bank.openRow == q.row) {
        access_lat = t.tCL + t.tBL;
        counters_.inc(HbmStat::RowHits);
    } else if (bank.openRow >= 0) {
        access_lat = t.tRP + t.tRCD + t.tCL + t.tBL;
        counters_.inc(HbmStat::RowConflicts);
    } else {
        access_lat = t.tRCD + t.tCL + t.tBL;
        counters_.inc(HbmStat::RowEmpty);
    }
    bank.openRow = q.row;

    Cycle finish = now + static_cast<Cycle>(access_lat) +
                   static_cast<Cycle>(q.req.write ? t.tWR : 0);
    bank.readyAt = finish;
    ch.busFreeAt = now + static_cast<Cycle>(t.tBL);
    inflight_.push(Inflight{finish, q.req});

    if (ch.queue.empty()) {
        ch.issueAt = kNeverCycle;
        backlog_ &= ~(std::uint64_t{1} << c);
        return;
    }
    Cycle ready = kNeverCycle;
    for (const Queued &r : ch.queue)
        ready = std::min(
            ready, ch.banks[static_cast<std::size_t>(r.bank)].readyAt);
    ch.issueAt = std::max(ch.busFreeAt, ready);
}

Cycle
HbmStack::nextDueCycle(Cycle now) const
{
    Cycle due = kNeverCycle;
    if (!inflight_.empty())
        due = std::max(inflight_.top().finishAt, now + 1);
    for (std::uint64_t pending = backlog_; pending != 0;
         pending &= pending - 1) {
        const Channel &ch = channels_[static_cast<std::size_t>(
            std::countr_zero(pending))];
        due = std::min(due, std::max(ch.issueAt, now + 1));
    }
    return due;
}

void
HbmStack::tick(Cycle now)
{
    while (!inflight_.empty() && inflight_.top().finishAt <= now) {
        MemRequest req = inflight_.top().req;
        inflight_.pop();
        --outstanding_;
        counters_.inc(HbmStat::Completions);
        onComplete_(req, now);
    }
    // Ascending channel order, as a scan over every channel would
    // issue: it fixes the push order into inflight_, and with it the
    // order in which completions sharing a finishAt fire.
    for (std::uint64_t pending = backlog_; pending != 0;
         pending &= pending - 1) {
        int c = std::countr_zero(pending);
        if (channels_[static_cast<std::size_t>(c)].issueAt <= now)
            issueChannel(c, now);
    }
}

StatGroup
HbmStack::stats() const
{
    return counters_.snapshot(kStatNames);
}

} // namespace eqx
