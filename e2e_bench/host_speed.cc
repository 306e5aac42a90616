#include "bench.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <random>
#include <unordered_map>
#include <vector>

namespace eqx::e2e {

namespace {

// Median times of the two reference kernels on the host the benchmark
// was tuned on (4-vCPU Xeon VM, GCC -O3).
constexpr double kSortNominalNs = 2.5e7;
constexpr double kHashNominalNs = 1.4e7;

template <class F>
double
timeNs(F f)
{
    auto t0 = std::chrono::steady_clock::now();
    f();
    return std::chrono::duration<double, std::nano>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

volatile std::uint64_t g_sink = 0;

} // namespace

double
hostSlowdown()
{
    // Two fixed kernels built from the standard library only, so no
    // simulator change can move them: a branchy in-cache sort and a
    // hash-map probe/update mix, weighted equally.
    double sort_ns = timeNs([] {
        std::mt19937 gen(12345);
        std::vector<std::uint32_t> v(1 << 16);
        std::uint64_t sum = 0;
        for (int r = 0; r < 4; ++r) {
            for (auto &e : v)
                e = gen();
            std::sort(v.begin(), v.end());
            sum += v[static_cast<std::size_t>(r)];
        }
        g_sink = sum;
    });
    double hash_ns = timeNs([] {
        std::unordered_map<std::uint64_t, std::uint64_t> m;
        std::uint64_t x = 1, sum = 0;
        for (std::uint64_t i = 0; i < 2'000'000; ++i) {
            x = x * 6364136223846793005ULL + 1442695040888963407ULL;
            std::uint64_t k = (x >> 33) & 16383;
            if (i & 1) {
                m[k] += i;
            } else if (auto it = m.find(k); it != m.end()) {
                sum += it->second;
            }
        }
        g_sink = sum + m.size();
    });
    return std::sqrt(sort_ns / kSortNominalNs * hash_ns / kHashNominalNs);
}

} // namespace eqx::e2e
