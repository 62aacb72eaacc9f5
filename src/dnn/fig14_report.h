/**
 * @file
 * The Fig. 14 sweep — entry tables and report rendering — shared
 * between `bench_fig14` (prints to stdout), SimSession::runFig14, and
 * the two renderers of served points: `save-ctl fig14` and the shard
 * coordinator, which both render from the daemon's per-point acks.
 *
 * The acceptance bar for the serving path is byte-identity: a served
 * default-config Fig. 14 sweep must match `bench_fig14` run in-process
 * to the byte. That only holds if both sides share ONE renderer, so
 * the network tables, the evaluation order, and every printf format
 * live here and nowhere else. Run-dependent counters (thread counts,
 * cache hits) never enter the report — they are the caller's business
 * and belong on stderr.
 */

#ifndef SAVE_DNN_FIG14_REPORT_H
#define SAVE_DNN_FIG14_REPORT_H

#include <functional>
#include <string>
#include <vector>

#include "dnn/estimator.h"
#include "dnn/networks.h"

namespace save {

/** One network x precision evaluation of the Fig. 14 sweep. */
struct Fig14Entry
{
    NetworkModel net;
    Precision prec;
    const char *label;
};

/** The CNN table: VGG16/ResNet-50 dense + pruned, FP32 and MP. */
const std::vector<Fig14Entry> &fig14CnnEntries();

/** The GNMT table: pruned, FP32 and MP. */
const std::vector<Fig14Entry> &fig14GnmtEntries();

/**
 * One sweep point in the canonical evaluation order (CNN inference,
 * GNMT inference, CNN training, GNMT training — the order
 * fig14Report walks). `key` is the stable id ("infer/VGG16 FP32
 * dense"): journal key, progress label, and the serve protocol's
 * point name. Index into this vector IS the wire point index, so the
 * coordinator and every backend must agree on one build of it.
 */
struct Fig14Point
{
    Fig14Entry entry;
    bool training;
    std::string key;
};

const std::vector<Fig14Point> &fig14Points();

/** The estimator evaluation behind one sweep point (what a
 *  sweep-wide TrainingEstimator::prefetch is given). */
inline NetEvaluation
fig14Evaluation(const Fig14Point &p)
{
    return {&p.entry.net, p.entry.prec, !p.training};
}

/**
 * Evaluate one entry. `key` is the stable sweep-point id
 * ("infer/VGG16 FP32 dense", "train/GNMT MP pruned"): journal key in
 * the bench.
 */
using Fig14Eval = std::function<NetResult(
    const std::string &key, const Fig14Entry &e, bool training)>;

/**
 * Render the full Fig. 14 report. The returned text is exactly what
 * `bench_fig14` writes to stdout: four sections in evaluation order
 * (CNN inference, GNMT inference, CNN training, GNMT training) plus
 * the paper-reference line. An exception from `eval` propagates.
 */
std::string fig14Report(const Fig14Eval &eval);

/**
 * Render the report from one result per fig14Points() entry, indexed
 * by point. Throws SimError when `results` does not hold exactly one
 * result per point or the renderer's walk leaves the enumeration.
 */
std::string fig14Report(const std::vector<NetResult> &results);

} // namespace save

#endif // SAVE_DNN_FIG14_REPORT_H
