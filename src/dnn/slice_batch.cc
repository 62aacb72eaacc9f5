#include "dnn/slice_batch.h"

#include <map>
#include <tuple>

namespace save {

SliceKey
SliceBatch::keyAt(std::size_t i) const
{
    return SliceKey{mr,     nr,   kSteps,   pattern, precision,
                    saveOn, vpus, wBins[i], aBins[i]};
}

std::vector<SliceBatch>
batchSlices(const std::vector<SliceKey> &keys, std::size_t maxPoints)
{
    using Shape =
        std::tuple<int, int, int, uint8_t, uint8_t, uint8_t, uint8_t>;
    std::vector<SliceBatch> batches;
    // Shape -> index of that shape's currently-open batch.
    std::map<Shape, std::size_t> open;

    for (std::size_t i = 0; i < keys.size(); ++i) {
        const SliceKey &k = keys[i];
        Shape shape{k.mr,       k.nr,     k.kSteps, k.pattern,
                    k.precision, k.saveOn, k.vpus};
        auto it = open.find(shape);
        if (it == open.end() ||
            batches[it->second].size() >= maxPoints) {
            SliceBatch b;
            b.mr = k.mr;
            b.nr = k.nr;
            b.kSteps = k.kSteps;
            b.pattern = k.pattern;
            b.precision = k.precision;
            b.saveOn = k.saveOn;
            b.vpus = k.vpus;
            batches.push_back(std::move(b));
            open[shape] = batches.size() - 1;
            it = open.find(shape);
        }
        SliceBatch &b = batches[it->second];
        b.wBins.push_back(k.wBin);
        b.aBins.push_back(k.aBin);
        b.srcIdx.push_back(static_cast<uint32_t>(i));
    }
    return batches;
}

} // namespace save
