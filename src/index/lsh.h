/**
 * @file
 * p-stable (E2) locality-sensitive hashing for approximate k-NN.
 *
 * The HDSearch mid-tier's index (paper §III-A): L hash tables, each
 * keyed by the concatenation of k quantized random projections
 * h(v) = floor((a·v + b) / w) with Gaussian a — the classic E2LSH
 * scheme (Datar et al.), the same family FLANN implements. Following
 * the paper, the tables do not store feature vectors: buckets hold
 * {leaf, point-id} tuples that indirectly reference vectors sharded
 * across leaf microservers. Optional multi-probe lookup visits
 * neighbouring buckets to trade latency for recall without more
 * tables.
 */

#ifndef MUSUITE_INDEX_LSH_H
#define MUSUITE_INDEX_LSH_H

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "base/rng.h"
#include "index/vectors.h"

namespace musuite {

/** A bucket entry: which leaf shard holds the point and its local id. */
struct LshEntry
{
    uint32_t leaf = 0;
    uint32_t pointId = 0;

    bool
    operator==(const LshEntry &other) const
    {
        return leaf == other.leaf && pointId == other.pointId;
    }
};

struct LshParams
{
    int numTables = 8;      //!< L: independent hash tables.
    int hashesPerTable = 12;//!< k: projections concatenated per key.
    float bucketWidth = 4.0f; //!< w: quantization width.
    int multiProbes = 0;    //!< Extra neighbouring buckets per table.
    uint64_t seed = 42;
};

class LshIndex
{
  public:
    LshIndex(size_t dimension, LshParams params);

    /** Insert one point's hash entry (vectors stay on the leaves). */
    void insert(std::span<const float> vector, LshEntry entry);

    /**
     * Gather candidate entries whose buckets the query falls in
     * (union over tables, deduplicated), grouped by leaf.
     *
     * @return candidates[leaf] = point ids for that leaf shard.
     */
    std::unordered_map<uint32_t, std::vector<uint32_t>>
    query(std::span<const float> vector) const;

    /** Total entries inserted. */
    size_t size() const { return points.size(); }

    /** Mean bucket occupancy of non-empty buckets (diagnostics). */
    double meanBucketSize() const;

  private:
    /** No link: an empty slot's head, the end of a bucket's chain. */
    static constexpr uint32_t kNone = UINT32_MAX;

    /**
     * One of the L hash tables, flat: an open-addressed array of
     * bucket slots whose chains run through `next`, which is indexed
     * like LshIndex::points. A bucket is the chain head..tail in
     * insertion order, so nothing is allocated per bucket and an
     * insert appends in O(1).
     */
    struct Table
    {
        struct Slot
        {
            uint64_t key = 0;
            uint32_t head = kNone; //!< kNone marks an empty slot.
            uint32_t tail = kNone;
        };

        /** Append point `index` to bucket `key`, creating the bucket. */
        void add(uint64_t key, uint32_t index);
        /** First point of bucket `key`'s chain, or kNone. */
        uint32_t find(uint64_t key) const;
        /** Slot holding `key`, or the empty slot where it would go. */
        size_t probe(uint64_t key) const;
        /** Double the slots (16 at first) and reinsert every bucket. */
        void grow();

        std::vector<Slot> slots; //!< Power-of-two size, at most half full.
        std::vector<uint32_t> next; //!< next[i]: point after i, or kNone.
        size_t buckets = 0;      //!< Occupied slots.
    };

    /** Raw (unquantized) projections of a vector for one table. */
    void projectRaw(size_t table, std::span<const float> vector,
                    std::vector<float> &raw) const;
    /** Bucket key from quantized projections. */
    static uint64_t combine(const std::vector<int32_t> &quantized);

    size_t dim;
    LshParams params;
    /** Projection vectors: [table][hash] rows of dim floats. */
    std::vector<float> projections;
    /** Offsets b in [0, w). */
    std::vector<float> offsets;
    /** Every inserted entry, in insertion order; chains index it. */
    std::vector<LshEntry> points;
    std::vector<Table> tables;
};

/**
 * Exact k-NN by linear scan, used by leaves for candidate refinement
 * and by tests as LSH ground truth.
 */
class BruteForceScanner
{
  public:
    explicit BruteForceScanner(const FeatureStore &store)
        : store(store)
    {}

    /** Exact top-k over the whole store. */
    std::vector<Neighbor> topK(std::span<const float> query,
                               size_t k) const;

    /** Exact top-k over a candidate subset (HDSearch leaf path). */
    std::vector<Neighbor> topKOf(std::span<const float> query,
                                 std::span<const uint32_t> candidates,
                                 size_t k) const;

  private:
    const FeatureStore &store;
};

} // namespace musuite

#endif // MUSUITE_INDEX_LSH_H
