/**
 * @file
 * Implementation of vector storage and distance kernels.
 */

#include "index/vectors.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <queue>

#include "base/logging.h"

namespace musuite {

uint64_t
FeatureStore::add(std::span<const float> vector)
{
    MUSUITE_CHECK(vector.size() == dim)
        << "vector dimension " << vector.size() << " != store " << dim;
    data.insert(data.end(), vector.begin(), vector.end());
    return count++;
}

namespace {

// Four SSE-width float lanes. GCC and Clang lower arithmetic on this
// type to SSE2 on baseline x86-64 (NEON on AArch64) with no -march and
// no -ffast-math. Without -ffast-math the compiler may not reassociate
// a float sum, so a plain reduction loop stays one scalar dependency
// chain; here the summation order is spelled out (16 lanes, then a
// fixed fold), which is what lets it run four vectors wide.
typedef float Lanes __attribute__((vector_size(16)));

/** Floats per unrolled step: four independent 4-lane accumulators. */
constexpr size_t kStep = 16;

/** Unaligned load; memcpy keeps it defined (and sanitizer-clean) at
 *  any float offset, and compiles to one movups. */
inline Lanes
load(const float *p)
{
    Lanes v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

/** Fold the four accumulators, then the four lanes, into one float. */
inline float
reduce(Lanes a0, Lanes a1, Lanes a2, Lanes a3)
{
    const Lanes sum = (a0 + a1) + (a2 + a3);
    return (sum[0] + sum[1]) + (sum[2] + sum[3]);
}

} // namespace

float
squaredL2(std::span<const float> a, std::span<const float> b)
{
    const size_t n = a.size();
    const float *pa = a.data();
    const float *pb = b.data();
    Lanes acc0{}, acc1{}, acc2{}, acc3{};
    size_t i = 0;
    for (; i + kStep <= n; i += kStep) {
        const Lanes d0 = load(pa + i) - load(pb + i);
        const Lanes d1 = load(pa + i + 4) - load(pb + i + 4);
        const Lanes d2 = load(pa + i + 8) - load(pb + i + 8);
        const Lanes d3 = load(pa + i + 12) - load(pb + i + 12);
        acc0 += d0 * d0;
        acc1 += d1 * d1;
        acc2 += d2 * d2;
        acc3 += d3 * d3;
    }
    float sum = reduce(acc0, acc1, acc2, acc3);
    for (; i < n; ++i) {
        const float d = pa[i] - pb[i];
        sum += d * d;
    }
    return sum;
}

float
dotProduct(std::span<const float> a, std::span<const float> b)
{
    const size_t n = a.size();
    const float *pa = a.data();
    const float *pb = b.data();
    Lanes acc0{}, acc1{}, acc2{}, acc3{};
    size_t i = 0;
    for (; i + kStep <= n; i += kStep) {
        acc0 += load(pa + i) * load(pb + i);
        acc1 += load(pa + i + 4) * load(pb + i + 4);
        acc2 += load(pa + i + 8) * load(pb + i + 8);
        acc3 += load(pa + i + 12) * load(pb + i + 12);
    }
    float sum = reduce(acc0, acc1, acc2, acc3);
    for (; i < n; ++i)
        sum += pa[i] * pb[i];
    return sum;
}

float
cosineSimilarity(std::span<const float> a, std::span<const float> b)
{
    const float dot = dotProduct(a, b);
    const float na = dotProduct(a, a);
    const float nb = dotProduct(b, b);
    if (na == 0.0f || nb == 0.0f)
        return 0.0f;
    return dot / (std::sqrt(na) * std::sqrt(nb));
}

std::vector<Neighbor>
mergeTopK(const std::vector<std::vector<Neighbor>> &sorted_lists, size_t k)
{
    // K-way merge over already-sorted leaf responses.
    struct Cursor
    {
        const std::vector<Neighbor> *list;
        size_t pos;
    };
    auto cmp = [](const Cursor &a, const Cursor &b) {
        return (*b.list)[b.pos] < (*a.list)[a.pos]; // Min-heap.
    };
    std::priority_queue<Cursor, std::vector<Cursor>, decltype(cmp)>
        heap(cmp);
    for (const auto &list : sorted_lists) {
        if (!list.empty())
            heap.push(Cursor{&list, 0});
    }

    std::vector<Neighbor> merged;
    merged.reserve(k);
    while (!heap.empty() && merged.size() < k) {
        Cursor cursor = heap.top();
        heap.pop();
        merged.push_back((*cursor.list)[cursor.pos]);
        if (++cursor.pos < cursor.list->size())
            heap.push(cursor);
    }
    return merged;
}

} // namespace musuite
