/**
 * @file
 * Implementation of the E2LSH index.
 */

#include "index/lsh.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "base/logging.h"

namespace musuite {

namespace {

/** Mix one 64-bit word into a running bucket key. */
inline uint64_t
mixKey(uint64_t key, uint64_t word)
{
    key ^= word + 0x9E3779B97F4A7C15ull + (key << 6) + (key >> 2);
    key *= 0xBF58476D1CE4E5B9ull;
    return key ^ (key >> 29);
}

} // namespace

LshIndex::LshIndex(size_t dimension, LshParams params_in)
    : dim(dimension), params(params_in)
{
    MUSUITE_CHECK(params.numTables >= 1) << "need >= 1 table";
    MUSUITE_CHECK(params.hashesPerTable >= 1) << "need >= 1 hash";
    MUSUITE_CHECK(params.bucketWidth > 0) << "bucket width must be > 0";

    Rng rng(params.seed);
    const size_t total_hashes =
        size_t(params.numTables) * size_t(params.hashesPerTable);
    projections.resize(total_hashes * dim);
    for (float &coefficient : projections)
        coefficient = float(rng.nextGaussian());
    offsets.resize(total_hashes);
    for (float &offset : offsets)
        offset = float(rng.nextDouble()) * params.bucketWidth;
    tables.resize(size_t(params.numTables));
}

void
LshIndex::projectRaw(size_t table, std::span<const float> vector,
                     std::vector<float> &raw) const
{
    const size_t k = size_t(params.hashesPerTable);
    raw.resize(k);
    for (size_t j = 0; j < k; ++j) {
        const size_t hash_index = table * k + j;
        const float *row = projections.data() + hash_index * dim;
        raw[j] = dotProduct({row, dim}, vector) + offsets[hash_index];
    }
}

uint64_t
LshIndex::combine(const std::vector<int32_t> &quantized)
{
    uint64_t key = 0x243F6A8885A308D3ull;
    for (int32_t q : quantized)
        key = mixKey(key, uint64_t(uint32_t(q)));
    return key;
}

void
LshIndex::Table::grow()
{
    std::vector<Slot> old = std::move(slots);
    slots.assign(std::max<size_t>(16, old.size() * 2), Slot{});
    for (const Slot &slot : old) {
        if (slot.head != kNone)
            slots[probe(slot.key)] = slot;
    }
}

size_t
LshIndex::Table::probe(uint64_t key) const
{
    // Keys are already mixed (combine), so their low bits index well.
    const size_t mask = slots.size() - 1;
    size_t at = size_t(key) & mask;
    while (slots[at].head != kNone && slots[at].key != key)
        at = (at + 1) & mask;
    return at;
}

void
LshIndex::Table::add(uint64_t key, uint32_t index)
{
    if (2 * (buckets + 1) > slots.size())
        grow();
    next.push_back(kNone);
    Slot &slot = slots[probe(key)];
    if (slot.head == kNone) {
        slot = {key, index, index};
        ++buckets;
    } else {
        next[slot.tail] = index;
        slot.tail = index;
    }
}

uint32_t
LshIndex::Table::find(uint64_t key) const
{
    return slots.empty() ? kNone : slots[probe(key)].head;
}

void
LshIndex::insert(std::span<const float> vector, LshEntry entry)
{
    MUSUITE_CHECK(vector.size() == dim) << "dimension mismatch";
    MUSUITE_CHECK(points.size() < kNone) << "LSH index is full";
    const uint32_t index = uint32_t(points.size());
    points.push_back(entry);
    std::vector<float> raw;
    std::vector<int32_t> quantized(size_t(params.hashesPerTable));
    for (size_t t = 0; t < tables.size(); ++t) {
        projectRaw(t, vector, raw);
        for (size_t j = 0; j < raw.size(); ++j)
            quantized[j] =
                int32_t(std::floor(raw[j] / params.bucketWidth));
        tables[t].add(combine(quantized), index);
    }
}

std::unordered_map<uint32_t, std::vector<uint32_t>>
LshIndex::query(std::span<const float> vector) const
{
    MUSUITE_CHECK(vector.size() == dim) << "dimension mismatch";

    std::unordered_set<uint64_t> seen;
    std::unordered_map<uint32_t, std::vector<uint32_t>> by_leaf;
    auto admit = [&](const Table &table, uint32_t index) {
        for (; index != kNone; index = table.next[index]) {
            const LshEntry &entry = points[index];
            const uint64_t token =
                (uint64_t(entry.leaf) << 32) | entry.pointId;
            if (seen.insert(token).second)
                by_leaf[entry.leaf].push_back(entry.pointId);
        }
    };

    std::vector<float> raw;
    std::vector<int32_t> quantized(size_t(params.hashesPerTable));
    for (size_t t = 0; t < tables.size(); ++t) {
        const Table &table = tables[t];
        projectRaw(t, vector, raw);
        for (size_t j = 0; j < raw.size(); ++j)
            quantized[j] =
                int32_t(std::floor(raw[j] / params.bucketWidth));

        admit(table, table.find(combine(quantized)));

        if (params.multiProbes > 0) {
            // Probe the buckets adjacent along the coordinates whose
            // projection landed closest to a quantization boundary
            // (the core multi-probe LSH heuristic).
            struct Probe
            {
                size_t coordinate;
                int32_t delta;
                float boundaryGap;
            };
            std::vector<Probe> probes;
            probes.reserve(raw.size() * 2);
            for (size_t j = 0; j < raw.size(); ++j) {
                const float cell =
                    raw[j] / params.bucketWidth - float(quantized[j]);
                probes.push_back({j, -1, cell});
                probes.push_back({j, +1, 1.0f - cell});
            }
            std::sort(probes.begin(), probes.end(),
                      [](const Probe &a, const Probe &b) {
                          return a.boundaryGap < b.boundaryGap;
                      });
            const size_t limit =
                std::min(probes.size(), size_t(params.multiProbes));
            for (size_t p = 0; p < limit; ++p) {
                quantized[probes[p].coordinate] += probes[p].delta;
                const uint32_t head = table.find(combine(quantized));
                quantized[probes[p].coordinate] -= probes[p].delta;
                admit(table, head);
            }
        }
    }
    return by_leaf;
}

double
LshIndex::meanBucketSize() const
{
    size_t buckets = 0;
    for (const Table &table : tables)
        buckets += table.buckets;
    return buckets ? double(points.size() * tables.size()) /
                         double(buckets)
                   : 0.0;
}

std::vector<Neighbor>
BruteForceScanner::topK(std::span<const float> query, size_t k) const
{
    std::vector<Neighbor> all;
    all.reserve(store.size());
    for (size_t i = 0; i < store.size(); ++i)
        all.push_back({i, squaredL2(query, store.view(i))});
    const size_t keep = std::min(k, all.size());
    std::partial_sort(all.begin(), all.begin() + keep, all.end());
    all.resize(keep);
    return all;
}

std::vector<Neighbor>
BruteForceScanner::topKOf(std::span<const float> query,
                          std::span<const uint32_t> candidates,
                          size_t k) const
{
    std::vector<Neighbor> scored;
    scored.reserve(candidates.size());
    for (uint32_t id : candidates) {
        if (id < store.size())
            scored.push_back({id, squaredL2(query, store.view(id))});
    }
    const size_t keep = std::min(k, scored.size());
    std::partial_sort(scored.begin(), scored.begin() + keep, scored.end());
    scored.resize(keep);
    return scored;
}

} // namespace musuite
