/**
 * @file
 * Behavioral tests of the SAVE scheduler policies: coalescing reduces
 * VPU operations, rotation breaks shared-pattern lane conflicts,
 * lane-wise dependence removes false dependences, HC pays its
 * latency, and all of it stays bitwise-correct. A golden stat-map
 * test pins the modelled behaviour of every select path exactly.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "kernels/gemm.h"
#include "sim/multicore.h"

namespace save {
namespace {

MachineConfig
oneCore()
{
    MachineConfig m;
    m.cores = 1;
    return m;
}

SaveConfig
policy(SchedPolicy p, bool lwd)
{
    SaveConfig s;
    s.policy = p;
    s.laneWiseDep = lwd;
    return s;
}

/** Run one slice; return the result. */
KernelResult
runOne(const SaveConfig &s, const GemmConfig &g, int vpus = 2)
{
    Engine e(oneCore(), s);
    return e.runGemm(g, 1, vpus);
}

GemmConfig
nbsKernel(double nbs, int mr = 28, int nr = 1)
{
    GemmConfig g;
    g.mr = mr;
    g.nrVecs = nr;
    g.kSteps = 64;
    g.tiles = 2;
    g.pattern = BroadcastPattern::Embedded;
    g.nbsSparsity = nbs;
    g.seed = 5;
    return g;
}

TEST(Scheduler, CoalescingReducesVpuOps)
{
    GemmConfig g = nbsKernel(0.5);
    auto base = runOne(SaveConfig::baseline(), g);
    auto vc = runOne(policy(SchedPolicy::VC, false), g);
    EXPECT_LT(vc.stats.get("vpu_ops"), base.stats.get("vpu_ops"));
}

TEST(Scheduler, RotationImprovesSharedPatternPacking)
{
    // mr=28, nr=1: all 28 VFMAs of a k-step share one B register, so
    // their sparsity patterns are identical and plain VC conflicts on
    // every lane (paper Fig. 7a). Rotation must reduce VPU ops.
    GemmConfig g = nbsKernel(0.5);
    auto vc = runOne(policy(SchedPolicy::VC, false), g);
    auto rvc = runOne(policy(SchedPolicy::RVC, false), g);
    EXPECT_LT(rvc.stats.get("vpu_ops") * 1.05, vc.stats.get("vpu_ops"));
    EXPECT_LE(rvc.cycles, vc.cycles);
}

TEST(Scheduler, LaneWiseDependenceHelpsShortChains)
{
    // Short dependence distance (few accumulators): vector-wise
    // dependences serialize; LWD must not be slower.
    GemmConfig g = nbsKernel(0.6, 4, 1);
    g.pattern = BroadcastPattern::Embedded;
    auto vw = runOne(policy(SchedPolicy::RVC, false), g, 1);
    auto lw = runOne(policy(SchedPolicy::RVC, true), g, 1);
    EXPECT_LE(lw.cycles, vw.cycles);
}

TEST(Scheduler, HcPacksAtLeastAsTightAsVc)
{
    GemmConfig g = nbsKernel(0.5);
    auto vc = runOne(policy(SchedPolicy::VC, true), g);
    auto hc = runOne(policy(SchedPolicy::HC, true), g);
    EXPECT_LE(hc.stats.get("vpu_ops"), vc.stats.get("vpu_ops"));
}

TEST(Scheduler, HcPaysLatencyWhenDense)
{
    // Dense inputs: nothing to compact, but HC still pays +6 cycles
    // per op on the dependent accumulator chains.
    GemmConfig g = nbsKernel(0.0, 2, 1);
    g.kSteps = 128;
    auto rvc = runOne(policy(SchedPolicy::RVC, true), g, 1);
    auto hc = runOne(policy(SchedPolicy::HC, true), g, 1);
    EXPECT_GT(hc.cycles, rvc.cycles);
}

TEST(Scheduler, AllPoliciesBitwiseCorrect)
{
    GemmConfig g = nbsKernel(0.4, 7, 3);
    g.bsSparsity = 0.3;
    for (SchedPolicy p :
         {SchedPolicy::VC, SchedPolicy::RVC, SchedPolicy::HC}) {
        for (bool lwd : {false, true}) {
            Engine e(oneCore(), policy(p, lwd));
            std::string why;
            EXPECT_TRUE(e.verifyGemm(g, 2, &why))
                << "policy " << static_cast<int>(p) << " lwd " << lwd
                << ": " << why;
        }
    }
}

TEST(Scheduler, BsSkipAblationExecutesEverything)
{
    // With bsSkip disabled, fully-ineffectual VFMAs still occupy VPU
    // lanes; the skip counter must stay zero.
    GemmConfig g;
    g.mr = 4;
    g.nrVecs = 2;
    g.kSteps = 32;
    g.bsSparsity = 1.0; // every broadcast is zero
    SaveConfig s;
    s.bsSkip = false;
    auto r = runOne(s, g);
    EXPECT_EQ(r.stats.get("bs_skipped_vfmas"), 0.0);
    EXPECT_GT(r.stats.get("vpu_ops"), 0.0);

    SaveConfig skip;
    auto r2 = runOne(skip, g);
    EXPECT_GT(r2.stats.get("bs_skipped_vfmas"), 0.0);
    EXPECT_LT(r2.cycles, r.cycles);
}

TEST(Scheduler, SpeedupGrowsWithNbsThenSaturates)
{
    std::vector<double> speedups;
    GemmConfig g = nbsKernel(0.0, 7, 3);
    g.kSteps = 96;
    g.tiles = 3;
    auto base = runOne(SaveConfig::baseline(), g);
    for (double nbs : {0.0, 0.3, 0.6, 0.9}) {
        GemmConfig gi = g;
        gi.nbsSparsity = nbs;
        auto r = runOne(SaveConfig{}, gi);
        speedups.push_back(base.timeNs / r.timeNs);
    }
    // Dense: no coalescing gain, but no losses either. The broadcast
    // cache alone may help an embedded kernel whose load count
    // exceeds the L1 read ports, so allow a small uplift.
    EXPECT_GE(speedups[0], 0.97);
    EXPECT_LE(speedups[0], 1.25);
    EXPECT_GT(speedups[1], speedups[0]);
    EXPECT_GT(speedups[2], speedups[1] * 1.02);
    EXPECT_GE(speedups[3], speedups[2] * 0.95); // saturating cap
}

TEST(Scheduler, OneVpuBoostCrossoverAtHighSparsity)
{
    // Dense work prefers 2 VPUs; at very high sparsity a single VPU
    // at 2.1 GHz wins (paper SecVII-B).
    GemmConfig dense = nbsKernel(0.0, 7, 3);
    dense.kSteps = 96;
    auto d2 = runOne(SaveConfig{}, dense, 2);
    auto d1 = runOne(SaveConfig{}, dense, 1);
    EXPECT_LT(d2.timeNs, d1.timeNs);

    GemmConfig sparse = dense;
    sparse.nbsSparsity = 0.9;
    sparse.bsSparsity = 0.5;
    auto s2 = runOne(SaveConfig{}, sparse, 2);
    auto s1 = runOne(SaveConfig{}, sparse, 1);
    EXPECT_LT(s1.timeNs, s2.timeNs);
}

TEST(Scheduler, WriteMaskedLanesAreSkipped)
{
    // Enough accumulator chains (28) that the masked kernel is
    // throughput- rather than latency-bound.
    GemmConfig g = nbsKernel(0.0, 14, 2);
    g.useWriteMask = true;
    g.writeMask = 0x0003; // only two effectual lanes per VFMA
    auto masked = runOne(SaveConfig{}, g);
    GemmConfig full = g;
    full.useWriteMask = false;
    auto dense = runOne(SaveConfig{}, full);
    // Exactly the two unmasked lanes per VFMA are issued...
    EXPECT_DOUBLE_EQ(masked.stats.get("coalesced_lanes"),
                     masked.stats.get("vfmas") * 2);
    // ...and skipping 14 of 16 lanes buys substantial time.
    EXPECT_LT(masked.cycles, dense.cycles * 3 / 4);

    Engine e(oneCore(), SaveConfig{});
    std::string why;
    EXPECT_TRUE(e.verifyGemm(g, 2, &why)) << why;
}

TEST(Scheduler, TempFillNeverExceedsLaneCount)
{
    GemmConfig g = nbsKernel(0.5, 7, 3);
    auto r = runOne(SaveConfig{}, g);
    double temps = r.stats.get("temps_issued");
    double fill = r.stats.get("temp_fill");
    ASSERT_GT(temps, 0.0);
    EXPECT_LE(fill / temps, 16.0);
    EXPECT_GE(fill / temps, 1.0);
}

// ---------------------------------------------------------------------
// Behaviour lock: the full stat map of every select path is pinned
// byte-for-byte against tests/corpus/scheduler-golden-stats.json, so a
// host-speed change to the scheduler cannot move modelled cycles,
// issue counts or chain packing unnoticed (the bench/serve/shard byte
// diffs only compare those paths with each other).
// ---------------------------------------------------------------------

struct GoldenCase
{
    std::string name;
    SchedPolicy policy;
    Precision prec;
    double nbs;
    int64_t faultSeq = -1; ///< >= 0: inject a squash at this seq
};

std::vector<GoldenCase>
goldenCases()
{
    std::vector<GoldenCase> out;
    const std::pair<SchedPolicy, const char *> policies[] = {
        {SchedPolicy::VC, "vc"},
        {SchedPolicy::RVC, "rvc"},
        {SchedPolicy::HC, "hc"}};
    const std::pair<Precision, const char *> precs[] = {
        {Precision::Fp32, "fp32"}, {Precision::Bf16, "bf16"}};
    const std::pair<double, const char *> sparsities[] = {
        {0.0, "dense"}, {0.5, "sparse50"}, {0.8, "sparse80"}};
    for (const auto &[p, pn] : policies)
        for (const auto &[pr, prn] : precs)
            for (const auto &[nbs, sn] : sparsities)
                out.push_back({std::string(pn) + "-" + prn + "-" + sn,
                               p, pr, nbs});
    // Mid-stream squash with partial mixed-precision results in
    // flight: exercises rebuildAfterSquash.
    out.push_back({"rvc-bf16-sparse50-squash", SchedPolicy::RVC,
                   Precision::Bf16, 0.5, 300});
    return out;
}

/** Aggregate stat map of one single-core run, as compact JSON. */
std::string
goldenRun(const GoldenCase &gc)
{
    GemmConfig g;
    g.mr = 6;
    g.nrVecs = 2;
    g.kSteps = 96;
    g.tiles = 2;
    g.pattern = BroadcastPattern::Embedded;
    g.precision = gc.prec;
    g.bsSparsity = 0.2;
    g.nbsSparsity = gc.nbs;
    g.seed = 11;

    SaveConfig s;
    s.policy = gc.policy;
    s.mpCompress = true;

    MemoryImage image;
    GemmWorkload w = buildGemm(g, image);
    Multicore mc(oneCore(), s, 2, &image);
    w.warmup(mc.hierarchy());
    if (gc.faultSeq >= 0)
        mc.core(0).injectFaultAtSeq(static_cast<uint64_t>(gc.faultSeq));
    VectorTrace t(w.trace);
    mc.bindTraces({&t});
    mc.run(10'000'000);
    return mc.aggregateStats().toJson();
}

/** name -> JSON object, from lines of the form `"name": {...},`. */
std::map<std::string, std::string>
readGolden(const std::string &path)
{
    std::map<std::string, std::string> out;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        size_t q0 = line.find('"');
        size_t q1 = q0 == std::string::npos ? q0 : line.find('"', q0 + 1);
        size_t brace = q1 == std::string::npos ? q1 : line.find('{', q1);
        size_t end = line.rfind('}');
        if (brace == std::string::npos || end == std::string::npos ||
            end < brace)
            continue;
        out[line.substr(q0 + 1, q1 - q0 - 1)] =
            line.substr(brace, end - brace + 1);
    }
    return out;
}

TEST(Scheduler, GoldenStatMapsAreExact)
{
    const std::string path =
        std::string(SAVE_CORPUS_DIR) + "/scheduler-golden-stats.json";
    std::map<std::string, std::string> golden = readGolden(path);
    std::vector<GoldenCase> cases = goldenCases();
    EXPECT_EQ(golden.size(), cases.size()) << path;
    for (const GoldenCase &gc : cases) {
        std::string got = goldenRun(gc);
        auto it = golden.find(gc.name);
        // On mismatch the message carries the line in file format.
        EXPECT_TRUE(it != golden.end() && it->second == got)
            << "stat map differs from " << path << "; got:\n  \""
            << gc.name << "\": " << got;
    }
}

} // namespace
} // namespace save
