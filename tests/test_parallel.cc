/**
 * @file
 * Tests for the parallel simulation layer: the work-stealing thread
 * pool, the estimator's concurrent slice fan-out (results must be
 * bit-identical to the serial path for every thread count), and the
 * Fig. 14 point runner SimSession::runFig14Points: its sweep-wide
 * fan-out, list-order delivery, and cancellation.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <future>
#include <set>
#include <stdexcept>
#include <thread>
#include <unistd.h>

#include "dnn/estimator.h"
#include "dnn/networks.h"
#include "dnn/fig14_report.h"
#include "serve/session.h"
#include "util/thread_pool.h"

namespace save {
namespace {

// ---------------------------------------------------------------- pool

TEST(ThreadPool, RunsEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    constexpr int64_t kN = 1000;
    std::vector<std::atomic<int>> hits(kN);
    pool.parallelFor(kN, [&](int64_t i) {
        hits[static_cast<size_t>(i)].fetch_add(1);
    });
    for (int64_t i = 0; i < kN; ++i)
        EXPECT_EQ(hits[static_cast<size_t>(i)].load(), 1);
}

TEST(ThreadPool, UsesMultipleThreads)
{
    ThreadPool pool(4);
    std::mutex mu;
    std::set<std::thread::id> ids;
    // Enough chunky tasks that helpers wake up and participate.
    pool.parallelFor(64, [&](int64_t) {
        volatile uint64_t x = 0;
        for (int k = 0; k < 2'000'000; ++k)
            x = x + static_cast<uint64_t>(k);
        std::lock_guard<std::mutex> lk(mu);
        ids.insert(std::this_thread::get_id());
    });
    EXPECT_GE(ids.size(), 2u);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock)
{
    ThreadPool pool(2);
    std::atomic<int> total{0};
    pool.parallelFor(8, [&](int64_t) {
        pool.parallelFor(8, [&](int64_t) { total.fetch_add(1); });
    });
    EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPool, PropagatesFirstException)
{
    ThreadPool pool(2);
    EXPECT_THROW(pool.parallelFor(16,
                                  [&](int64_t i) {
                                      if (i == 7)
                                          throw std::runtime_error("x");
                                  }),
                 std::runtime_error);
}

TEST(ThreadPool, ZeroAndOneSizedLoops)
{
    ThreadPool pool(2);
    int runs = 0;
    pool.parallelFor(0, [&](int64_t) { ++runs; });
    EXPECT_EQ(runs, 0);
    pool.parallelFor(1, [&](int64_t) { ++runs; });
    EXPECT_EQ(runs, 1);
}

// ----------------------------------------------- estimator determinism

EstimatorOptions
fastOptions(int threads)
{
    EstimatorOptions o;
    o.kSteps = 24;
    o.tiles = 1;
    o.gridStep = 9; // only 0% and 90% bins: fast
    o.threads = threads;
    o.cacheDir = "none"; // never mix persistent state into this test
    return o;
}

/** Byte-wise equality: "bit-identical" in the strictest sense. */
bool
bytesEqual(const NetResult &a, const NetResult &b)
{
    return std::memcmp(&a, &b, sizeof(NetResult)) == 0;
}

TEST(ParallelEstimator, BitIdenticalAcrossThreadCounts)
{
    NetworkModel net = vgg16Dense();
    net.convLayers.resize(4);
    net.schedule = PruningSchedule::none(3);

    TrainingEstimator serial(MachineConfig{}, SaveConfig{},
                             fastOptions(1));
    EXPECT_EQ(serial.threads(), 1);
    NetResult want_inf = serial.inference(net, Precision::Fp32);
    NetResult want_train = serial.training(net, Precision::Bf16);

    for (int threads : {2, 8}) {
        TrainingEstimator par(MachineConfig{}, SaveConfig{},
                              fastOptions(threads));
        EXPECT_EQ(par.threads(), threads);
        NetResult inf = par.inference(net, Precision::Fp32);
        NetResult train = par.training(net, Precision::Bf16);
        EXPECT_TRUE(bytesEqual(want_inf, inf))
            << "inference differs with " << threads << " threads";
        EXPECT_TRUE(bytesEqual(want_train, train))
            << "training differs with " << threads << " threads";
    }
}

TEST(ParallelEstimator, FanOutMatchesSerialSimulationCount)
{
    NetworkModel net = vgg16Dense();
    net.convLayers.resize(3);

    TrainingEstimator serial(MachineConfig{}, SaveConfig{},
                             fastOptions(1));
    TrainingEstimator par(MachineConfig{}, SaveConfig{},
                          fastOptions(4));
    serial.inference(net, Precision::Fp32);
    par.inference(net, Precision::Fp32);
    // Single-flight dedup: the concurrent fan-out must not simulate
    // any surface point twice.
    EXPECT_EQ(par.simulations(), serial.simulations());
}

// ------------------------------------------------- sweep-wide fan-out

/** The quick Fig. 14 knobs the serve and shard tests use. isolation
 *  is a Fig14Knobs code: 1 = none (serial), 2 = thread. */
Fig14Knobs
quickFig14(int threads, int isolation)
{
    Fig14Knobs k;
    k.gridStep = 9;
    k.kSteps = 8;
    k.tiles = 1;
    k.threads = threads;
    k.isolation = isolation;
    return k;
}

std::unique_ptr<SimSession>
fig14Session(const std::string &cache_dir = "none")
{
    SimSession::Options o;
    o.runtime.threads = 4;
    o.runtime.cacheDir = cache_dir;
    return std::make_unique<SimSession>(std::move(o));
}

/** Every sweep point, in canonical order. */
std::vector<uint32_t>
allPoints()
{
    std::vector<uint32_t> all(fig14Points().size());
    for (uint32_t i = 0; i < all.size(); ++i)
        all[i] = i;
    return all;
}

struct Fig14Reference
{
    std::string report;
    /** Distinct slices of the sweep. */
    uint64_t keys = 0;
};

/** A serial sweep over a fresh store: the store holds one record per
 *  distinct slice, which counts the keys independently of
 *  simulations(). */
const Fig14Reference &
fig14Reference()
{
    static const Fig14Reference ref = [] {
        std::filesystem::path dir =
            std::filesystem::temp_directory_path() /
            ("save-fanout-ref-" + std::to_string(::getpid()));
        std::filesystem::remove_all(dir);
        Fig14Reference r;
        {
            auto s = fig14Session(dir.string());
            r.report = s->runFig14(quickFig14(1, 1));
            r.keys = s->resultStore()->records();
            EXPECT_EQ(s->simulations(), r.keys);
        }
        std::filesystem::remove_all(dir);
        return r;
    }();
    return ref;
}

TEST(SweepFanOut, SameReportAndSimulationsForEveryThreadCount)
{
    const Fig14Reference &ref = fig14Reference();
    ASSERT_GT(ref.keys, 0u);
    for (int iso : {1, 2})
        for (int threads : {1, 2, 4}) {
            auto s = fig14Session();
            EXPECT_EQ(s->runFig14(quickFig14(threads, iso)), ref.report)
                << "isolation " << iso << ", " << threads << " threads";
            EXPECT_EQ(s->simulations(), ref.keys)
                << "isolation " << iso << ", " << threads << " threads";
        }
}

TEST(SweepFanOut, CancelledSweepStopsAndLeavesTheRestToTheNextCall)
{
    using Clock = std::chrono::steady_clock;
    const Fig14Reference &ref = fig14Reference();
    for (int threads : {1, 4}) {
        SCOPED_TRACE(std::to_string(threads) + " threads");
        auto s = fig14Session();
        const Fig14Knobs k = quickFig14(threads, 2);
        Clock::time_point thrown;
        int done = 0;
        auto abort_after_3 = [&](uint32_t, const NetResult &) {
            if (++done == 3) {
                thrown = Clock::now();
                throw std::runtime_error("client went away");
            }
        };
        EXPECT_THROW(s->runFig14Points(k, allPoints(), abort_after_3),
                     std::runtime_error);
        EXPECT_EQ(done, 3);
        // Running batches stop after their current slice, so the
        // rethrow waits for at most one slice per computing thread.
        EXPECT_LT(Clock::now() - thrown, std::chrono::seconds(2));

        const uint64_t first = s->simulations();
        if (threads == 1) { // nothing but the walk drains the queue
            EXPECT_LT(first, ref.keys);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
        EXPECT_EQ(s->simulations(), first)
            << "a pool task simulated after runFig14Points returned";

        // The dropped slices were released, not poisoned: the next
        // sweep computes exactly them.
        EXPECT_EQ(s->runFig14(k), ref.report);
        EXPECT_EQ(s->simulations(), ref.keys);
    }
}

TEST(SweepFanOut, ConcurrentSweepReclaimsSlicesAnotherSweepDropped)
{
    const Fig14Reference &ref = fig14Reference();
    auto s = fig14Session();
    // No pool: the two walks are the only threads draining the first
    // sweep's queue, so most of it is still unstarted when that sweep
    // cancels, after the second one has claimed nothing of its own and
    // is walking the first one's slices.
    const Fig14Knobs k = quickFig14(1, 1);
    std::promise<void> first_at_1, second_at_1;
    std::thread canceller([&] {
        auto cancel_after_1 = [&](uint32_t, const NetResult &) {
            first_at_1.set_value();
            second_at_1.get_future().wait();
            throw std::runtime_error("deadline");
        };
        EXPECT_THROW(s->runFig14Points(k, allPoints(), cancel_after_1),
                     std::runtime_error);
    });
    first_at_1.get_future().wait();
    std::vector<NetResult> results;
    s->runFig14Points(k, allPoints(),
                      [&](uint32_t, const NetResult &r) {
                          if (results.empty())
                              second_at_1.set_value();
                          results.push_back(r);
                      });
    canceller.join();
    EXPECT_EQ(fig14Report(results), ref.report);
    // Both sweeps share one estimator: every slice ran exactly once.
    EXPECT_EQ(s->simulations(), ref.keys);
}

TEST(SweepFanOut, PointListRunsInOrderAndSimulatesEachSliceOnce)
{
    const Fig14Reference &ref = fig14Reference();
    std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("save-fanout-list-" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    {
        auto s = fig14Session(dir.string());
        const Fig14Knobs k = quickFig14(4, 2);
        // Inference and training of one network share slices: the
        // list's distinct slices are fewer than its per-point sum.
        const std::vector<uint32_t> list = {8, 0, 15, 3, 7};
        std::vector<uint32_t> order;
        std::vector<NetResult> got;
        s->runFig14Points(k, list, [&](uint32_t i, const NetResult &r) {
            order.push_back(i);
            got.push_back(r);
        });
        EXPECT_EQ(order, list);
        // Every distinct slice simulated once and landed once.
        const uint64_t sims = s->simulations();
        EXPECT_GT(sims, 0u);
        EXPECT_LT(sims, ref.keys);
        EXPECT_EQ(sims, s->resultStore()->records());

        // Evaluating the points again is served from the estimator's
        // cache, and a point's value does not depend on its list.
        for (size_t j = 0; j < list.size(); ++j)
            EXPECT_TRUE(bytesEqual(
                s->runFig14Point(k, static_cast<int>(list[j])), got[j]))
                << "point " << list[j];
        EXPECT_EQ(s->simulations(), sims);
    }
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace save
