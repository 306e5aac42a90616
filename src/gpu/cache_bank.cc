#include "gpu/cache_bank.hh"

#include <algorithm>
#include <array>

#include "common/logging.hh"

namespace eqx {

namespace {

// One name per enumerator, in enum order.
constexpr std::array kStatNames = {
    "read_requests",
    "write_requests",
    "l2_read_hits",
    "l2_write_hits",
    "l2_read_misses",
    "l2_write_misses",
    "l2_miss_merges",
    "fills",
    "writebacks_done",
    "replies_injected",
    "stall_reply_queue",
    "stall_mshr_targets",
    "stall_mshr_full",
    "stall_hbm_queue",
    "invalidations_sent",
    "invalidations_injected",
    "inv_acks_received",
};

} // namespace

CacheBank::CacheBank(NodeId node, const CbParams &params,
                     PacketInjector *reply_injector,
                     const PacketSizes *sizes)
    : node_(node), params_(params), replyInjector_(reply_injector),
      sizes_(sizes), l2_(params.l2),
      hbm_(params.hbm,
           [this](const MemRequest &r, Cycle now) { onMemComplete(r, now); })
{
    eqx_assert(replyInjector_ && sizes_, "cache bank needs its context");
    eqx_assert(params_.requestsPerCycle >= 1,
               "CB requestsPerCycle must be >= 1, got ",
               params_.requestsPerCycle);
    eqx_assert(params_.l2HitLatency >= 0,
               "CB l2HitLatency must be >= 0, got ", params_.l2HitLatency);
}

bool
CacheBank::canAccept(const PacketPtr &pkt)
{
    eqx_assert(isRequest(pkt->type), "CB only sinks request packets");
    if (pkt->type == PacketType::InvAck)
        return true; // disposed on accept, never queued
    return static_cast<int>(inputQueue_.size()) <
           params_.inputQueuePackets;
}

void
CacheBank::updateSharers(const PacketPtr &req)
{
    Addr line = req->addr / static_cast<Addr>(params_.l2.lineBytes);
    Addr region = line / static_cast<Addr>(coh_.regionLines);
    auto &set = sharers_[region];
    if (req->type == PacketType::ReadRequest) {
        set.insert(req->src);
        return;
    }
    // Write: multicast Invalidate to every other sharer, then collapse
    // ownership to the writer. The protocol is relaxed (the write does
    // not wait for acks) — it reproduces MESI's traffic, not its
    // consistency guarantees.
    for (NodeId sharer : set) {
        if (sharer == req->src)
            continue;
        invQueue_.push_back(makePacket(PacketType::Invalidate, node_,
                                       sharer, sizes_->invalidateBits,
                                       req->addr, req->tag));
        counters_.inc(CbStat::InvalidationsSent);
    }
    set.clear();
    set.insert(req->src);
}

void
CacheBank::accept(const PacketPtr &pkt, Cycle)
{
    wakeAt_ = 0; // the only external wake: tick this cycle
    if (pkt->type == PacketType::InvAck) {
        counters_.inc(CbStat::InvAcksReceived);
        return;
    }
    if (cohEnabled_)
        updateSharers(pkt);
    inputQueue_.push_back(pkt);
    counters_.inc(pkt->type == PacketType::ReadRequest
                      ? CbStat::ReadRequests
                      : CbStat::WriteRequests);
}

PacketPtr
CacheBank::makeReply(const PacketPtr &req) const
{
    bool is_read = req->type == PacketType::ReadRequest;
    return makePacket(is_read ? PacketType::ReadReply
                              : PacketType::WriteReply,
                      node_, req->src,
                      is_read ? sizes_->readReplyBits
                              : sizes_->writeReplyBits,
                      req->addr, req->tag);
}

bool
CacheBank::processRequest(const PacketPtr &req, Cycle now)
{
    Addr line = req->addr / static_cast<Addr>(params_.l2.lineBytes);
    bool is_write = req->type == PacketType::WriteRequest;

    if (l2_.probe(line)) {
        // Hit path gated by the reply queue: model the backpressure of
        // a stalled reply injection point.
        if (static_cast<int>(replyQueue_.size()) +
                static_cast<int>(hitPipeline_.size()) >=
            params_.replyQueuePackets) {
            counters_.inc(CbStat::StallReplyQueue);
            return false;
        }
        if (is_write)
            l2_.markDirty(line);
        hitPipeline_.push_back(
            {now + static_cast<Cycle>(params_.l2HitLatency),
             makeReply(req)});
        counters_.inc(is_write ? CbStat::L2WriteHits : CbStat::L2ReadHits);
        return true;
    }

    // Miss path: merge onto an in-flight fetch or start a new one.
    auto it = missTable_.find(line);
    if (it != missTable_.end()) {
        if (static_cast<int>(it->second.size()) >=
            params_.targetsPerMshr) {
            counters_.inc(CbStat::StallMshrTargets);
            return false;
        }
        it->second.push_back(req);
        counters_.inc(CbStat::L2MissMerges);
        return true;
    }
    if (static_cast<int>(missTable_.size()) >= params_.mshrs) {
        counters_.inc(CbStat::StallMshrFull);
        return false;
    }
    if (!hbm_.canEnqueue(req->addr)) {
        counters_.inc(CbStat::StallHbmQueue);
        return false;
    }
    hbm_.enqueue(MemRequest{req->addr, /*write=*/false, line}, now);
    missTable_[line].push_back(req);
    counters_.inc(is_write ? CbStat::L2WriteMisses
                           : CbStat::L2ReadMisses);
    return true;
}

void
CacheBank::onMemComplete(const MemRequest &mreq, Cycle)
{
    if (mreq.write) {
        counters_.inc(CbStat::WritebacksDone);
        return;
    }
    Addr line = mreq.tag;
    if (!l2_.contains(line)) {
        auto victim = l2_.insert(line, /*dirty=*/false);
        if (victim.valid && victim.dirty)
            writebackQueue_.push_back(victim.line);
    }
    auto it = missTable_.find(line);
    eqx_assert(it != missTable_.end(), "fill for unknown miss line");
    for (const auto &req : it->second) {
        if (req->type == PacketType::WriteRequest)
            l2_.markDirty(line);
        // Fills bypass the reply-queue cap: their population is bounded
        // by mshrs x targetsPerMshr, so the queue stays finite.
        replyQueue_.push_back(makeReply(req));
    }
    missTable_.erase(it);
    counters_.inc(CbStat::Fills);
}

void
CacheBank::tick(Cycle now)
{
    if (now < wakeAt_)
        return; // provably idle until then (nextDueCycle)
    hbm_.tick(now);

    // Retry dirty-victim writebacks.
    while (!writebackQueue_.empty()) {
        Addr line = writebackQueue_.front();
        Addr addr = line * static_cast<Addr>(params_.l2.lineBytes);
        if (!hbm_.canEnqueue(addr))
            break;
        hbm_.enqueue(MemRequest{addr, /*write=*/true, 0}, now);
        writebackQueue_.pop_front();
    }

    // L2 pipeline -> reply queue.
    while (!hitPipeline_.empty() && hitPipeline_.front().dueAt <= now) {
        replyQueue_.push_back(hitPipeline_.front().reply);
        hitPipeline_.pop_front();
    }

    // Reply queue -> reply network. Scan past a blocked head so that a
    // single full NI (e.g. one DA2Mesh subnet) does not stall replies
    // bound for the others; replies to distinct PEs are unordered.
    constexpr int kDrainScan = 8;
    int scanned = 0;
    for (auto it = replyQueue_.begin();
         it != replyQueue_.end() && scanned < kDrainScan; ++scanned) {
        if (replyInjector_->tryInject(*it)) {
            it = replyQueue_.erase(it);
            counters_.inc(CbStat::RepliesInjected);
        } else {
            ++it;
        }
    }

    // Invalidate fan-out -> reply network, behind the replies (the
    // same blocked-head scan; invalidations to distinct PEs are
    // unordered).
    scanned = 0;
    for (auto it = invQueue_.begin();
         it != invQueue_.end() && scanned < kDrainScan; ++scanned) {
        if (replyInjector_->tryInject(*it)) {
            it = invQueue_.erase(it);
            counters_.inc(CbStat::InvalidationsInjected);
        } else {
            ++it;
        }
    }

    // Service requests.
    for (int i = 0; i < params_.requestsPerCycle; ++i) {
        if (inputQueue_.empty())
            break;
        if (!processRequest(inputQueue_.front(), now))
            break; // structural stall: head blocks the queue
        inputQueue_.pop_front();
    }

    wakeAt_ = nextDueCycle(now);
}

bool
CacheBank::drained() const
{
    return inputQueue_.empty() && hitPipeline_.empty() &&
           replyQueue_.empty() && writebackQueue_.empty() &&
           missTable_.empty() && invQueue_.empty() &&
           hbm_.outstanding() == 0;
}

Cycle
CacheBank::nextDueCycle(Cycle now) const
{
    // Queued packets retry every cycle (their stalls clear on events
    // inside other components: NoC credits, MSHR frees, HBM queue
    // space), so any backlog pins the bank to the next cycle.
    if (!inputQueue_.empty() || !replyQueue_.empty() ||
        !writebackQueue_.empty() || !invQueue_.empty())
        return now + 1;
    Cycle due = hbm_.nextDueCycle(now);
    if (!hitPipeline_.empty())
        due = std::min(due, std::max(hitPipeline_.front().dueAt, now + 1));
    // missTable_ entries always have their fetch inside hbm_, so the
    // stack's due cycle covers them.
    return due;
}

StatGroup
CacheBank::stats() const
{
    return counters_.snapshot(kStatNames);
}

} // namespace eqx
