/**
 * @file
 * Unit tests for the DNN model layer: pruning schedules, activation
 * profiles, network tables, sparsity surfaces, and the estimator
 * (including a bit-exact golden of every Fig. 14 point's NetResult).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>

#include "dnn/estimator.h"
#include "dnn/fig14_report.h"
#include "dnn/networks.h"
#include "dnn/surface.h"
#include "util/error.h"

namespace save {
namespace {

TEST(Pruning, ZhuGuptaEndpoints)
{
    PruningSchedule p = PruningSchedule::resnet50();
    EXPECT_EQ(p.sparsityAt(0), 0.0);
    EXPECT_EQ(p.sparsityAt(31), 0.0);
    EXPECT_EQ(p.sparsityAt(60), 0.80);
    EXPECT_EQ(p.sparsityAt(101), 0.80);
    EXPECT_DOUBLE_EQ(p.finalSparsity(), 0.80);
}

TEST(Pruning, CubicRampIsMonotoneAndFrontLoaded)
{
    PruningSchedule p = PruningSchedule::resnet50();
    double prev = -1;
    for (int64_t e = 0; e < p.totalSteps; ++e) {
        double s = p.sparsityAt(e);
        EXPECT_GE(s, prev);
        prev = s;
    }
    // Cubic: more than half the target reached before the midpoint.
    double mid = p.sparsityAt((p.startStep + p.endStep) / 2);
    EXPECT_GT(mid, 0.5 * p.targetSparsity);
}

TEST(Pruning, GnmtSchedule)
{
    PruningSchedule p = PruningSchedule::gnmt();
    EXPECT_EQ(p.sparsityAt(3), 0.0);
    EXPECT_DOUBLE_EQ(p.sparsityAt(19), 0.90);
    EXPECT_EQ(p.totalSteps, 34);
}

TEST(Pruning, NoneStaysDense)
{
    PruningSchedule p = PruningSchedule::none(90);
    EXPECT_FALSE(p.prunes());
    EXPECT_EQ(p.sparsityAt(89), 0.0);
}

TEST(ActivationProfile, FirstLayerAlwaysDense)
{
    for (auto kind :
         {ActivationProfile::Kind::Vgg16,
          ActivationProfile::Kind::Resnet50Dense,
          ActivationProfile::Kind::Gnmt}) {
        ActivationProfile p(kind, 13, 90);
        EXPECT_EQ(p.at(0, 0), 0.0);
        EXPECT_EQ(p.at(0, 89), 0.0);
    }
}

TEST(ActivationProfile, VggHighAndDeepening)
{
    ActivationProfile p(ActivationProfile::Kind::Vgg16, 13, 90);
    EXPECT_GT(p.at(12, 89), p.at(1, 89));
    EXPECT_GT(p.at(12, 89), 0.7);
    EXPECT_LT(p.at(12, 89), 0.95);
    // Rises over training.
    EXPECT_GT(p.at(6, 89), p.at(6, 0));
}

TEST(ActivationProfile, ResnetLowerThanVgg)
{
    ActivationProfile v(ActivationProfile::Kind::Vgg16, 13, 90);
    ActivationProfile r(ActivationProfile::Kind::Resnet50Dense, 53, 90);
    double v_avg = 0, r_avg = 0;
    for (int l = 1; l < 13; ++l)
        v_avg += v.at(l, 89) / 12;
    for (int l = 1; l < 53; ++l)
        r_avg += r.at(l, 89) / 52;
    EXPECT_GT(v_avg, r_avg);
    // All values stay in [0, 1).
    for (int l = 0; l < 53; ++l)
        for (int64_t e : {int64_t{0}, int64_t{45}, int64_t{89}}) {
            EXPECT_GE(r.at(l, e), 0.0);
            EXPECT_LT(r.at(l, e), 1.0);
        }
}

TEST(ActivationProfile, GnmtConstantDropout)
{
    ActivationProfile p(ActivationProfile::Kind::Gnmt, 27, 34);
    EXPECT_EQ(p.at(5, 0), 0.20);
    EXPECT_EQ(p.at(20, 33), 0.20);
}

TEST(Networks, LayerCounts)
{
    EXPECT_EQ(vgg16Dense().convLayers.size(), 13u);
    EXPECT_EQ(resnet50Dense().convLayers.size(), 53u);
    EXPECT_EQ(gnmtPruned().cells.size(), 27u);
    EXPECT_EQ(allStudiedKernels().size(), 93u);
}

TEST(Networks, Resnet50Structure)
{
    NetworkModel n = resnet50Dense();
    const ConvLayer &stem = n.convLayers[0];
    EXPECT_EQ(stem.inC, 3);
    EXPECT_EQ(stem.outC, 64);
    EXPECT_EQ(stem.kh, 7);
    const ConvLayer &l22b = findConvLayer(n, "resnet2_2b");
    EXPECT_EQ(l22b.inC, 64);
    EXPECT_EQ(l22b.outC, 64);
    EXPECT_EQ(l22b.kh, 3);
    const ConvLayer &l51a = findConvLayer(n, "resnet5_1a");
    EXPECT_EQ(l51a.inC, 1024);
    EXPECT_EQ(l51a.outC, 512);
    EXPECT_EQ(l51a.kh, 1);
}

TEST(Networks, PaperNamedKernelsExist)
{
    NetworkModel n = resnet50Pruned();
    for (const char *name :
         {"resnet2_2b", "resnet3_2b", "resnet4_1a", "resnet5_1a"})
        EXPECT_NO_FATAL_FAILURE(findConvLayer(n, name));
}

TEST(Networks, PrunedVariantsConfigured)
{
    EXPECT_FALSE(resnet50Dense().pruned);
    EXPECT_TRUE(resnet50Pruned().pruned);
    EXPECT_TRUE(resnet50Pruned().schedule.prunes());
    EXPECT_FALSE(vgg16Dense().schedule.prunes());
    EXPECT_TRUE(vgg16Dense().sparseGradients);
    EXPECT_FALSE(resnet50Dense().sparseGradients);
}

TEST(Surface, ExactAtGridPoints)
{
    SparsitySurface s = buildSurface(
        [](double w, double a) { return 100 + 50 * w + 10 * a; });
    EXPECT_TRUE(s.complete());
    EXPECT_DOUBLE_EQ(s.timeAt(0.0, 0.0), 100.0);
    EXPECT_NEAR(s.timeAt(0.5, 0.3), 100 + 25 + 3, 1e-9);
}

TEST(Surface, BilinearBetweenPoints)
{
    SparsitySurface s = buildSurface(
        [](double w, double a) { return w * 100 + a * 10; });
    // Linear functions are reproduced exactly by bilinear interp.
    EXPECT_NEAR(s.timeAt(0.35, 0.15), 35 + 1.5, 1e-9);
}

TEST(Surface, ClampsBeyondSampledRange)
{
    SparsitySurface s =
        buildSurface([](double w, double a) { return w + a; });
    EXPECT_NEAR(s.timeAt(0.95, 0.99), s.timeAt(0.9, 0.9), 1e-12);
}

TEST(SurfaceDeathTest, UnsampledBinPanics)
{
    SparsitySurface s;
    s.set(0, 0, 1.0);
    EXPECT_DEATH(s.at(1, 1), "not sampled");
}

class EstimatorTest : public ::testing::Test
{
  protected:
    EstimatorTest()
    {
        opt_.kSteps = 24;
        opt_.tiles = 1;
        opt_.gridStep = 9; // only 0% and 90% bins: fast
        opt_.cacheDir = "none"; // hermetic: SAVE_CACHE_DIR is ignored
        est_ = std::make_unique<TrainingEstimator>(MachineConfig{},
                                                   SaveConfig{}, opt_);
    }

    EstimatorOptions opt_;
    std::unique_ptr<TrainingEstimator> est_;
};

TEST_F(EstimatorTest, BaselineIgnoresSparsity)
{
    KernelSpec spec = makeConvKernel(
        vgg16Dense().convLayers[4], Phase::Forward, 8);
    double t1 = est_->kernelTime(spec, Precision::Fp32, 0.0, 0.0,
                                 false, 2);
    uint64_t sims_after_first = est_->simulations();
    double t2 = est_->kernelTime(spec, Precision::Fp32, 0.7, 0.5,
                                 false, 2);
    EXPECT_DOUBLE_EQ(t1, t2);
    // And the second call must be fully cached.
    EXPECT_EQ(est_->simulations(), sims_after_first);
}

TEST_F(EstimatorTest, SaveTimeDecreasesWithSparsity)
{
    KernelSpec spec = makeConvKernel(
        vgg16Dense().convLayers[4], Phase::Forward, 8);
    double dense = est_->kernelTime(spec, Precision::Fp32, 0.0, 0.0,
                                    true, 2);
    double sparse = est_->kernelTime(spec, Precision::Fp32, 0.0, 0.9,
                                     true, 2);
    EXPECT_LT(sparse, dense);
}

TEST_F(EstimatorTest, InterpolationBetweenBins)
{
    KernelSpec spec = makeConvKernel(
        vgg16Dense().convLayers[4], Phase::Forward, 8);
    double lo = est_->kernelTime(spec, Precision::Fp32, 0.0, 0.0,
                                 true, 2);
    double hi = est_->kernelTime(spec, Precision::Fp32, 0.0, 0.9,
                                 true, 2);
    double mid = est_->kernelTime(spec, Precision::Fp32, 0.0, 0.45,
                                  true, 2);
    EXPECT_NEAR(mid, (lo + hi) / 2, 1e-6);
}

TEST_F(EstimatorTest, KernelTimeRejectsUnmodelledConfiguration)
{
    KernelSpec spec = makeConvKernel(
        vgg16Dense().convLayers[4], Phase::Forward, 8);
    EXPECT_THROW(est_->kernelTime(spec, Precision::Fp32, 0.0, 0.0, false,
                                  1),
                 ConfigError);
    EXPECT_THROW(est_->kernelTime(spec, Precision::Fp32, 0.0, 0.0, true,
                                  4),
                 ConfigError);
    EXPECT_EQ(est_->simulations(), 0u);
}

TEST_F(EstimatorTest, DynamicIsBestPerKernel)
{
    NetworkModel net = vgg16Dense();
    net.convLayers.resize(3); // keep the test fast
    NetResult r = est_->inference(net, Precision::Fp32);
    EXPECT_LE(r.saveDynamic.total(),
              std::min(r.save2.total(), r.save1.total()) + 1e-6);
    EXPECT_LE(r.saveStatic.total(),
              std::min(r.save2.total(), r.save1.total()) + 1e-6);
    EXPECT_LE(r.saveDynamic.total(), r.saveStatic.total() + 1e-6);
    EXPECT_GT(r.baseline2.total(), 0.0);
}

TEST_F(EstimatorTest, FirstLayerSeparatedInBreakdown)
{
    NetworkModel net = vgg16Dense();
    net.convLayers.resize(2);
    NetResult r = est_->inference(net, Precision::Fp32);
    EXPECT_GT(r.baseline2.firstLayer, 0.0);
    EXPECT_GT(r.baseline2.forward, 0.0);
    EXPECT_EQ(r.baseline2.bwdInput, 0.0); // inference: no backward
}

TEST_F(EstimatorTest, TrainingHasBackwardPhases)
{
    NetworkModel net = vgg16Dense();
    net.convLayers.resize(2);
    net.schedule = PruningSchedule::none(3); // 3 epochs for speed
    NetResult r = est_->training(net, Precision::Fp32);
    EXPECT_GT(r.baseline2.bwdInput, 0.0);
    EXPECT_GT(r.baseline2.bwdWeights, 0.0);
}

TEST_F(EstimatorTest, CacheSharedAcrossLayersWithSameShape)
{
    NetworkModel net = vgg16Dense();
    net.convLayers.resize(4);
    est_->inference(net, Precision::Fp32);
    uint64_t sims1 = est_->simulations();
    est_->inference(net, Precision::Fp32);
    EXPECT_EQ(est_->simulations(), sims1); // fully cached second time
}

// ---------------------------------------------------------------------
// Behaviour lock: every NetResult field of all 16 Fig. 14 points, and
// the three configurations' times of every studied kernel at two
// off-grid sparsity pairs, are pinned bit for bit (hex floats) against
// tests/corpus/estimator-netresults.golden. The CI byte diffs only
// compare front ends with each other and the report rounds to 2-3
// decimals, so a reordered interpolation or accumulation passes them
// all. The kernel lines are there because a whole-network sum absorbs
// a one-ulp change in one kernel's interpolated time.
// ---------------------------------------------------------------------

std::string
hexLine(const std::string &label, std::initializer_list<double> vs)
{
    std::string line = label + " |";
    char buf[64];
    for (double v : vs) {
        std::snprintf(buf, sizeof buf, " %a", v);
        line += buf;
    }
    return line + "\n";
}

/** The golden text as this build computes it with `threads` threads. */
std::string
goldenText(int threads)
{
    EstimatorOptions o;
    o.gridStep = 3;
    o.kSteps = 24;
    o.tiles = 1;
    o.threads = threads;
    o.cacheDir = "none";
    TrainingEstimator est(MachineConfig{}, SaveConfig{}, o);

    const std::vector<Fig14Point> &pts = fig14Points();
    std::vector<NetEvaluation> evals;
    for (const Fig14Point &p : pts)
        evals.push_back(fig14Evaluation(p));
    std::string out;
    est.evaluateEach(evals, [&](size_t i, const NetResult &r) {
        const std::pair<const char *, const PhaseBreakdown *> ops[] = {
            {"baseline2", &r.baseline2}, {"save2", &r.save2},
            {"save1", &r.save1},         {"static", &r.saveStatic},
            {"dynamic", &r.saveDynamic}};
        for (const auto &[name, b] : ops)
            out += hexLine(pts[i].key + " | " + name,
                           {b->firstLayer, b->forward, b->bwdInput,
                            b->bwdWeights});
    });

    // baseline2, then save2 and save1 at each (bs, nbs) pair.
    for (Precision prec : {Precision::Fp32, Precision::Bf16})
        for (const KernelSpec &k : allStudiedKernels()) {
            auto t = [&](double bs, double nbs, bool save_on, int vpus) {
                return est.kernelTime(k, prec, bs, nbs, save_on, vpus);
            };
            out += hexLine("kernel " + k.name + " " +
                               (prec == Precision::Bf16 ? "bf16" : "fp32"),
                           {t(0, 0, false, 2), t(0.17, 0.43, true, 2),
                            t(0.17, 0.43, true, 1), t(0.52, 0.81, true, 2),
                            t(0.52, 0.81, true, 1)});
        }
    return out;
}

TEST(EstimatorGolden, Fig14NetResultsAreBitExact)
{
    const std::string path = std::string(SAVE_CORPUS_DIR) +
                             "/estimator-netresults.golden";
    std::ifstream in(path);
    ASSERT_TRUE(in) << path;
    const std::string golden((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
    for (int threads : {1, 4}) {
        const std::string got = goldenText(threads);
        // On mismatch the message carries the whole file as computed.
        EXPECT_EQ(got, golden) << threads << " thread(s) differ from "
                               << path << "; got:\n" << got;
    }
}

} // namespace
} // namespace save
