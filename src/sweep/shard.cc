#include "sweep/shard.hh"

#include <charconv>
#include <map>

#include "runner/jsonl.hh"
#include "runner/stream_seed.hh"
#include "sim/experiment.hh"
#include "sweep/journal.hh"

namespace eqx {

bool
parseShardSpec(const std::string &spec, int &index, int &count)
{
    auto slash = spec.find('/');
    if (slash == std::string::npos || slash == 0 ||
        slash + 1 >= spec.size())
        return false;
    for (std::size_t i = 0; i < spec.size(); ++i)
        if (i != slash && (spec[i] < '0' || spec[i] > '9'))
            return false;
    // Parse straight into int: an out-of-range side is rejected, not
    // narrowed.
    const char *p = spec.data();
    int i = 0;
    int n = 0;
    if (std::from_chars(p, p + slash, i).ec != std::errc() ||
        std::from_chars(p + slash + 1, p + spec.size(), n).ec != std::errc())
        return false;
    if (n < 1 || i >= n)
        return false;
    index = i;
    count = n;
    return true;
}

int
cellShard(std::uint64_t seed, const std::string &scheme,
          const std::string &benchmark, int shard_count)
{
    if (shard_count <= 1)
        return 0;
    std::uint64_t h = deriveStreamSeed(seed, "shard", scheme, benchmark);
    return static_cast<int>(h % static_cast<std::uint64_t>(shard_count));
}

MergeResult
mergeJournals(const std::vector<std::string> &inputs,
              const std::string &out_path, bool allow_gaps)
{
    MergeResult res;
    // index -> record, deduplicated by digest.
    std::map<std::size_t, CellRecord> byIndex;
    std::map<std::pair<std::uint64_t, std::uint64_t>, std::size_t>
        byDigest;

    for (const auto &in : inputs) {
        JournalLoad load = loadJournal(in);
        if (!load.existed) {
            res.error = "cannot read journal '" + in + "'";
            return res;
        }
        ++res.inputs;
        for (auto &rec : load.records) {
            auto dkey = std::make_pair(rec.digest.hi, rec.digest.lo);
            auto dit = byDigest.find(dkey);
            if (dit != byDigest.end()) {
                // Same cell journaled twice (overlapping shard runs,
                // or the same journal listed twice): same simulation,
                // but flag a digest that claims two matrix slots.
                if (dit->second != rec.cell.index) {
                    res.error = "digest " + rec.digest.hex() +
                                " maps to indices " +
                                std::to_string(dit->second) + " and " +
                                std::to_string(rec.cell.index);
                    return res;
                }
                continue;
            }
            auto iit = byIndex.find(rec.cell.index);
            if (iit != byIndex.end()) {
                // Two different simulations in the same slot: the
                // inputs come from different matrices.
                res.error = "index " + std::to_string(rec.cell.index) +
                            " claimed by digests " +
                            iit->second.digest.hex() + " and " +
                            rec.digest.hex();
                return res;
            }
            byDigest.emplace(dkey, rec.cell.index);
            byIndex.emplace(rec.cell.index, std::move(rec));
        }
    }

    if (!allow_gaps && !byIndex.empty()) {
        // A complete shard set covers exactly 0..n-1.
        std::size_t expect = 0;
        for (const auto &[idx, rec] : byIndex) {
            if (idx != expect) {
                res.error = "missing cell index " + std::to_string(expect) +
                            " (incomplete shard set?)";
                return res;
            }
            ++expect;
        }
    }

    JsonlWriter out(out_path);
    for (const auto &[idx, rec] : byIndex)
        out.write(cellJsonRecord(rec.cell));
    res.cells = byIndex.size();
    return res;
}

} // namespace eqx
