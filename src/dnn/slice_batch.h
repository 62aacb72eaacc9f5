/**
 * @file
 * Structure-of-arrays batching of independent estimator surface
 * points.
 *
 * The estimator's prefetch enumerates hundreds of slice simulations
 * whose keys differ only in their sparsity bins: layers sharing a
 * micro-kernel shape produce one point per (wBin, aBin) corner. The
 * old fan-out submitted one pool task per point, so the shape header
 * (mr/nr/kSteps/pattern/precision/saveOn/vpus) was re-carried — and a
 * full Key re-built — for every task. `batchSlices` groups the points
 * by shape instead: the header is stored once per batch, the per-point
 * bins and back-references live in parallel arrays (structure of
 * arrays), and the pool runs one task per batch. Grouping is purely a scheduling
 * change — every point still simulates with its own seeded Engine —
 * so results are bit-identical to the per-point fan-out.
 */

#ifndef SAVE_DNN_SLICE_BATCH_H
#define SAVE_DNN_SLICE_BATCH_H

#include <compare>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace save {

/** One surface point: micro-kernel shape plus binned sparsities.
 *  This is the estimator's cache key (TrainingEstimator::Key). */
struct SliceKey
{
    int mr, nr, kSteps;
    uint8_t pattern, precision, saveOn, vpus, wBin, aBin;
    auto operator<=>(const SliceKey &) const = default;
};

/** SoA batch of surface points sharing one micro-kernel shape. */
struct SliceBatch
{
    /** Shape header, identical across every point in the batch. */
    int mr = 0, nr = 0, kSteps = 0;
    uint8_t pattern = 0, precision = 0, saveOn = 0, vpus = 0;

    /** Per-point parallel arrays. `srcIdx` maps a point back to its
     *  slot in the caller's key list (and whatever the caller keeps
     *  parallel to it, e.g. the single-flight promises). */
    std::vector<uint8_t> wBins;
    std::vector<uint8_t> aBins;
    std::vector<uint32_t> srcIdx;

    std::size_t size() const { return wBins.size(); }

    /** Reassemble the full key of point i from header + bins. */
    SliceKey keyAt(std::size_t i) const;
};

/**
 * Group keys into SoA batches by shape, preserving the first-request
 * order of the groups and of the members within each group. A group
 * that grows past maxPoints is split into successive batches so one
 * populous shape cannot serialize the whole fan-out onto a single
 * pool task.
 */
std::vector<SliceBatch> batchSlices(const std::vector<SliceKey> &keys,
                                    std::size_t maxPoints = 16);

} // namespace save

#endif // SAVE_DNN_SLICE_BATCH_H
