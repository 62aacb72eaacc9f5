/**
 * @file
 * Fig. 14 reproduction: whole-network inference and end-to-end
 * training time, normalized to the baseline (2 VPUs @1.7GHz, no
 * SAVE), for:
 *   (a) CNN inference   (b) GNMT inference
 *   (c) CNN training    (d) GNMT training
 * across {SAVE 2 VPUs, SAVE 1 VPU @2.1GHz, static, dynamic} in FP32
 * and mixed precision, with the paper's phase breakdown (first layer
 * split out; forward / backward-input / backward-weights).
 *
 * The entry tables and every output format live in
 * dnn/fig14_report.h, shared with the save-serve daemon: a served
 * sweep and this bench must produce byte-identical reports.
 *
 * Flags: --grid=1 reproduces the paper's full 10% sparsity sampling
 * (slower); the default --grid=3 samples every 30% and interpolates.
 * With --journal=PATH (or SAVE_JOURNAL) every completed network
 * evaluation is checkpointed, so an interrupted run resumes without
 * resimulating finished points. A point poisoned by a permanently
 * failed slice is a failed point: past --max-failures the run exits 1
 * (the failed slices are listed on stderr).
 */

#include "bench_util.h"
#include "dnn/fig14_report.h"

using namespace save;

static int
run(int argc, char **argv)
{
    Flags flags(argc, argv);
    const EstimatorOptions eopt = estimatorOptions(flags);
    const SweepOptions sw = sweepOptions(flags);
    SweepLedger ledger(sw.journalPath, fig14SweepHash(fig14Knobs(flags)));
    TrainingEstimator est(MachineConfig{}, SaveConfig{}, eopt);
    // Run-dependent counters go to stderr: stdout must be bit-identical
    // across cold/warm cache states and isolation modes (CI diffs it).
    std::fprintf(stderr, "simulation fan-out: %d thread(s)\n",
                 est.threads());

    // One walk over every point the journal does not resume.
    const std::vector<Fig14Point> &pts = fig14Points();
    std::vector<NetResult> results(pts.size());
    std::vector<size_t> todo;
    std::vector<NetEvaluation> evals;
    for (size_t i = 0; i < pts.size(); ++i)
        if (!ledger.resume(pts[i].key, results[i])) {
            todo.push_back(i);
            evals.push_back(fig14Evaluation(pts[i]));
        }
    est.evaluateEach(evals, [&](size_t j, const NetResult &r) {
        results[todo[j]] = r;
        ledger.record(pts[todo[j]].key, r);
    });
    std::fputs(fig14Report(results).c_str(), stdout);

    std::fprintf(stderr,
                 "slice simulations: %lu, persistent hits: %lu\n",
                 static_cast<unsigned long>(est.simulations()),
                 static_cast<unsigned long>(est.persistentHits()));
    maybePrintCacheStats(flags, est.resultStore());
    return ledger.finish(sw.maxFailures, est.failureReport());
}

int
main(int argc, char **argv)
{
    return benchMain(argc, argv, [&] { return run(argc, argv); });
}
