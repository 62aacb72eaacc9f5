/**
 * @file
 * Cross-validation of the network layer tables against the published
 * FLOP counts: VGG16 ~15.3 GFLOPs and ResNet-50 ~3.9-4.1 GFLOPs of
 * conv work per 224x224 image (1 MAC = 2 FLOPs), plus structural
 * spot-checks of every stage, and GNMT estimator coverage.
 */

#include <gtest/gtest.h>

#include "dnn/estimator.h"
#include "dnn/networks.h"

namespace save {
namespace {

double
convGmacs(const NetworkModel &net)
{
    uint64_t macs = 0;
    for (const ConvLayer &l : net.convLayers)
        macs += l.macsPerImage();
    return static_cast<double>(macs) / 1e9;
}

TEST(NetworkFlops, Vgg16MatchesPublished)
{
    // Published conv multiply-accumulates for VGG16 at 224x224:
    // ~15.3G (the commonly quoted "15.3 GFLOPs").
    EXPECT_NEAR(convGmacs(vgg16Dense()), 15.3, 0.5);
}

TEST(NetworkFlops, Resnet50MatchesPublished)
{
    // Published conv MACs for ResNet-50: ~3.86G ("3.9/4.1 GFLOPs").
    EXPECT_NEAR(convGmacs(resnet50Dense()), 3.86, 0.25);
}

TEST(NetworkFlops, GnmtCellMacs)
{
    // One 1024-hidden LSTM cell step: (1024+1024) x 4096 MACs per
    // token; our cells fold batch*timeSteps tokens.
    NetworkModel net = gnmtPruned();
    const LstmCell &enc2 = net.cells[3]; // gnmt_enc2: 1024 input
    EXPECT_EQ(enc2.macs(), static_cast<uint64_t>(enc2.batch) *
                               enc2.timeSteps * 2048ull * 4096ull);
}

TEST(NetworkStructure, Resnet50StageShapes)
{
    NetworkModel n = resnet50Dense();
    // Stage spatial sizes: conv2 56, conv3 28, conv4 14, conv5 7
    // (checked via the 3x3 "b" conv of the last block per stage).
    EXPECT_EQ(findConvLayer(n, "resnet2_3b").ih, 56);
    EXPECT_EQ(findConvLayer(n, "resnet3_4b").ih, 28);
    EXPECT_EQ(findConvLayer(n, "resnet4_6b").ih, 14);
    EXPECT_EQ(findConvLayer(n, "resnet5_3b").ih, 7);
    // Channel progression of the expand convs.
    EXPECT_EQ(findConvLayer(n, "resnet2_1c").outC, 256);
    EXPECT_EQ(findConvLayer(n, "resnet3_1c").outC, 512);
    EXPECT_EQ(findConvLayer(n, "resnet4_1c").outC, 1024);
    EXPECT_EQ(findConvLayer(n, "resnet5_1c").outC, 2048);
    // Downsample convs only at stage entries.
    int ds = 0;
    for (const ConvLayer &l : n.convLayers)
        if (l.name.size() > 2 &&
            l.name.substr(l.name.size() - 2) == "ds")
            ++ds;
    EXPECT_EQ(ds, 4);
}

TEST(NetworkStructure, Vgg16ChannelDoubling)
{
    NetworkModel n = vgg16Dense();
    EXPECT_EQ(findConvLayer(n, "vgg1_1").outC, 64);
    EXPECT_EQ(findConvLayer(n, "vgg2_1").outC, 128);
    EXPECT_EQ(findConvLayer(n, "vgg3_1").outC, 256);
    EXPECT_EQ(findConvLayer(n, "vgg4_1").outC, 512);
    EXPECT_EQ(findConvLayer(n, "vgg5_3").ih, 14);
}

TEST(NetworkStructure, GnmtEncoderDecoderWidths)
{
    NetworkModel n = gnmtPruned();
    EXPECT_EQ(n.cells[0].name, "gnmt_enc0_fwd");
    EXPECT_EQ(n.cells[2].inputDim, 2048); // bidir concat into enc1
    int dec = 0;
    for (const LstmCell &c : n.cells)
        if (c.name.rfind("gnmt_dec", 0) == 0) {
            EXPECT_EQ(c.inputDim, 2048); // input + attention context
            ++dec;
        }
    EXPECT_EQ(dec, 8);
}

TEST(EstimatorGnmt, TrainingStaticBeatsBothFixedConfigs)
{
    EstimatorOptions opt;
    opt.kSteps = 24;
    opt.tiles = 1;
    opt.gridStep = 9;
    opt.cacheDir = "none"; // hermetic: SAVE_CACHE_DIR is ignored
    TrainingEstimator est(MachineConfig{}, SaveConfig{}, opt);

    NetworkModel net = gnmtPruned();
    net.cells.resize(3);
    net.schedule.totalSteps = 8;
    net.schedule.startStep = 2;
    net.schedule.endStep = 5;
    NetResult r = est.training(net, Precision::Fp32);
    // Pruning ramps mid-training: early epochs favor 2 VPUs, late
    // ones favor 1, so the per-epoch static choice beats both fixed
    // configurations.
    EXPECT_LE(r.saveStatic.total(),
              std::min(r.save2.total(), r.save1.total()) + 1e-6);
    EXPECT_LE(r.saveDynamic.total(),
              r.saveStatic.total() * (1 + 1e-9));
    // LSTM backward is the merged phase and carries 2x the MACs.
    EXPECT_NEAR(r.baseline2.bwdInput, 2 * r.baseline2.forward,
                0.2 * r.baseline2.bwdInput);
    EXPECT_EQ(r.baseline2.bwdWeights, 0.0);
}

TEST(EstimatorGnmt, InferenceSpeedupGrowsWithPruning)
{
    EstimatorOptions opt;
    opt.kSteps = 24;
    opt.tiles = 1;
    opt.gridStep = 9;
    opt.cacheDir = "none"; // hermetic: SAVE_CACHE_DIR is ignored
    TrainingEstimator est(MachineConfig{}, SaveConfig{}, opt);

    NetworkModel net = gnmtPruned();
    net.cells.resize(2);
    NetResult pruned = est.inference(net, Precision::Fp32);
    net.schedule.targetSparsity = 0.0;
    NetResult dense = est.inference(net, Precision::Fp32);
    double sp_pruned =
        pruned.baseline2.total() / pruned.saveDynamic.total();
    double sp_dense =
        dense.baseline2.total() / dense.saveDynamic.total();
    EXPECT_GT(sp_pruned, sp_dense);
}

} // namespace
} // namespace save
