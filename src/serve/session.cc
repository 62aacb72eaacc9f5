#include "serve/session.h"

#include <algorithm>
#include <numeric>

#include "util/error.h"
#include "util/journal.h"

namespace save {

std::string
fig14IsolationName(int32_t code)
{
    switch (code) {
    case 0:
        return "";
    case 1:
        return "none";
    case 2:
        return "thread";
    case 3:
        return "process";
    default:
        throw ConfigError("unknown isolation code " +
                          std::to_string(code));
    }
}

int32_t
fig14IsolationCode(const std::string &name)
{
    if (name.empty())
        return 0;
    if (name == "none")
        return 1;
    if (name == "thread")
        return 2;
    if (name == "process")
        return 3;
    throw ConfigError("unknown isolation mode '" + name +
                      "' (expected none, thread, or process)");
}

uint64_t
fig14SweepHash(const Fig14Knobs &k)
{
    return sweepHash("fig14", {k.gridStep, k.kSteps, k.tiles, k.cores,
                               static_cast<int64_t>(k.seed)});
}

SimSession::SimSession(Options opt) : opt_(std::move(opt))
{
    if (opt_.sharedPool != nullptr) {
        pool_ = opt_.sharedPool;
    } else {
        owned_pool_ = std::make_unique<ThreadPool>(
            std::max(1, opt_.runtime.resolveThreads()));
        pool_ = owned_pool_.get();
    }
    if (opt_.sharedStore != nullptr) {
        store_ = opt_.sharedStore;
    } else {
        // The snapshot is authoritative: resolve "none"/"-" here
        // instead of via ResultStore::resolveDir, which would consult
        // the environment again.
        ResultStore::Options so;
        if (opt_.runtime.cacheDir != "none" &&
            opt_.runtime.cacheDir != "-")
            so.dir = opt_.runtime.cacheDir;
        so.maxBytes = opt_.runtime.cacheMaxBytes();
        owned_store_ = std::make_unique<ResultStore>(so);
        store_ = owned_store_.get();
    }
}

SimSession::~SimSession() = default;

KernelResult
SimSession::runGemm(const GemmConfig &g, int cores, int vpus)
{
    return runGemmCached(*store_, Engine(opt_.mcfg, opt_.scfg), g, cores,
                         vpus);
}

TrainingEstimator &
SimSession::estimatorFor(const Fig14Knobs &k)
{
    const std::string id =
        std::to_string(k.gridStep) + "/" + std::to_string(k.kSteps) +
        "/" + std::to_string(k.tiles) + "/" + std::to_string(k.cores) +
        "/" + std::to_string(k.seed) + "/" + std::to_string(k.threads) +
        "/" + std::to_string(k.isolation);
    std::lock_guard<std::mutex> lk(mu_);
    auto it = estimators_.find(id);
    if (it != estimators_.end())
        return *it->second;

    EstimatorOptions eo;
    eo.gridStep = k.gridStep;
    eo.kSteps = k.kSteps;
    eo.tiles = k.tiles;
    eo.cores = k.cores;
    eo.seed = k.seed;
    std::string iso = fig14IsolationName(k.isolation);
    eo.isolation = iso.empty()
                       ? opt_.runtime.resolveIsolation()
                       : RuntimeOptions{.isolation = iso}
                             .resolveIsolation();
    eo.proc.workerBin = opt_.runtime.workerBin;
    eo.validate();

    // threads == 0 fans out over the session pool; an explicit
    // per-request count gets a dedicated estimator-owned pool (the
    // estimator handles threads <= 1 as its serial path).
    ThreadPool *pool = nullptr;
    if (k.threads == 0)
        pool = pool_;
    else
        eo.threads = k.threads;

    auto est = std::make_unique<TrainingEstimator>(
        opt_.mcfg, opt_.scfg, eo, pool, store_);
    TrainingEstimator &ref = *est;
    estimators_.emplace(id, std::move(est));
    return ref;
}

void
SimSession::runFig14Points(const Fig14Knobs &knobs,
                           const std::vector<uint32_t> &indices,
                           const Fig14PointFn &onPoint)
{
    const std::vector<Fig14Point> &pts = fig14Points();
    if (indices.empty())
        throw ConfigError("fig14 point list is empty");
    std::vector<NetEvaluation> evals;
    evals.reserve(indices.size());
    for (uint32_t idx : indices) {
        if (idx >= pts.size())
            throw ConfigError("fig14 point index " + std::to_string(idx) +
                              " out of range [0, " +
                              std::to_string(pts.size()) + ")");
        evals.push_back(fig14Evaluation(pts[idx]));
    }
    estimatorFor(knobs).evaluateEach(
        evals, [&](size_t i, const NetResult &r) { onPoint(indices[i], r); });
}

std::string
SimSession::runFig14(const Fig14Knobs &knobs)
{
    std::vector<uint32_t> all(fig14Points().size());
    std::iota(all.begin(), all.end(), 0u);
    std::vector<NetResult> results;
    results.reserve(all.size());
    runFig14Points(knobs, all, [&](uint32_t, const NetResult &r) {
        results.push_back(r);
    });
    return fig14Report(results);
}

NetResult
SimSession::runFig14Point(const Fig14Knobs &knobs, int index)
{
    NetResult out;
    runFig14Points(knobs, {static_cast<uint32_t>(index)},
                   [&](uint32_t, const NetResult &r) { out = r; });
    return out;
}

uint64_t
SimSession::simulations() const
{
    uint64_t n = 0;
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto &[id, est] : estimators_)
        n += est->simulations();
    return n;
}

} // namespace save
