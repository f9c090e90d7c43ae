/**
 * @file
 * Dense feature-vector storage and distance kernels.
 *
 * HDSearch represents every image as an n-dimensional feature vector
 * (2048-d Inception embeddings in the paper). FeatureStore keeps
 * vectors contiguous for cache- and SIMD-friendly scans. The distance
 * kernels are the paper's "accelerated with SIMD" leaf distance
 * computation: a plain float reduction loop does not vectorize without
 * -ffast-math (the compiler may not reorder the sum), so they are
 * written with GCC/Clang vector extensions, four 4-lane accumulators
 * and a scalar tail, and run as SSE2 on baseline x86-64.
 */

#ifndef MUSUITE_INDEX_VECTORS_H
#define MUSUITE_INDEX_VECTORS_H

#include <cstdint>
#include <span>
#include <vector>

namespace musuite {

/** Contiguous row-major store of fixed-dimension float vectors. */
class FeatureStore
{
  public:
    explicit FeatureStore(size_t dimension) : dim(dimension) {}

    /** Append one vector; must match the store dimension. */
    uint64_t add(std::span<const float> vector);

    /** Borrow vector i. */
    std::span<const float>
    view(uint64_t index) const
    {
        return {data.data() + index * dim, dim};
    }

    size_t size() const { return count; }
    size_t dimension() const { return dim; }

    /** Raw contiguous storage (bulk loads). */
    const std::vector<float> &raw() const { return data; }
    void reserve(size_t vectors) { data.reserve(vectors * dim); }

  private:
    size_t dim;
    size_t count = 0;
    std::vector<float> data;
};

/** Squared Euclidean distance (monotone with L2; cheaper). */
float squaredL2(std::span<const float> a, std::span<const float> b);

/** Cosine similarity in [-1, 1]; 0 for zero vectors. */
float cosineSimilarity(std::span<const float> a, std::span<const float> b);

/** Dot product. */
float dotProduct(std::span<const float> a, std::span<const float> b);

/** One scored candidate in a nearest-neighbour result. */
struct Neighbor
{
    uint64_t id = 0;
    float distance = 0.0f; //!< Squared L2; smaller is nearer.

    bool
    operator<(const Neighbor &other) const
    {
        return distance < other.distance ||
               (distance == other.distance && id < other.id);
    }
};

/**
 * Merge several distance-sorted neighbour lists into the global top-k
 * (the HDSearch mid-tier response-path merge).
 */
std::vector<Neighbor> mergeTopK(
    const std::vector<std::vector<Neighbor>> &sorted_lists, size_t k);

} // namespace musuite

#endif // MUSUITE_INDEX_VECTORS_H
