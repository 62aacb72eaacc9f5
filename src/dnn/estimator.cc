#include "dnn/estimator.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <limits>
#include <sstream>

#include "dnn/surface.h"
#include "util/error.h"
#include "util/fault_injection.h"
#include "util/logging.h"
#include "util/runtime_options.h"

namespace save {

namespace {

/** Marks a point whose fan-out was cancelled before it ran. */
struct SliceReleased
{
};

bool
ready(const std::shared_future<double> &f)
{
    return f.wait_for(std::chrono::seconds(0)) ==
           std::future_status::ready;
}

/** Estimator knobs that shift slice times but live outside the Key. */
uint64_t
optionSalt(const EstimatorOptions &opt)
{
    uint64_t salt = opt.seed;
    salt = salt * 1000003ull + static_cast<uint64_t>(opt.tiles);
    salt = salt * 1000003ull + static_cast<uint64_t>(opt.cores);
    return salt;
}

/** The configurations every kernel is planned in: PlanKernel::corners
 *  rows, in first-request order. */
constexpr struct
{
    bool saveOn;
    int vpus;
} kPlanConfigs[3] = {{false, 2}, {true, 2}, {true, 1}};

/** The gridStep-aligned bins around sparsity `s` and its bilinear
 *  weight between them. */
void
bins(int step, double s, int &lo, int &hi, double &frac)
{
    const int max_bin = ((SparsitySurface::kGrid - 1) / step) * step;
    double b = std::clamp(s, 0.0, SparsitySurface::kMax) /
               SparsitySurface::kStep;
    lo = std::min(static_cast<int>(b) / step * step, max_bin);
    hi = std::min(lo + step, max_bin);
    frac = hi > lo ? (b - lo) / (hi - lo) : 0.0;
    frac = std::clamp(frac, 0.0, 1.0);
}

/** One kernel of one epoch: its bucket, its scale, its bilinear
 *  weights and, per kPlanConfigs row, its plan's key indices in the
 *  interpolation's term order (w0,a0), (w1,a0), (w0,a1), (w1,a1); the
 *  baseline's four are its one sparsity-oblivious key. */
struct PlanKernel
{
    double PhaseBreakdown::*part;
    double mac, macScale, dw, da;
    uint32_t corners[3][4];
};

/** One evaluation's key walk, planned one epoch at a time: the
 *  distinct keys its epochs so far requested, in first-request order,
 *  and the last planned epoch's kernels in accumulation order. Only
 *  one epoch's records are ever held. */
struct Plan
{
    std::vector<SliceKey> keys;
    std::map<SliceKey, uint32_t> index; ///< key -> position in keys
    std::vector<PlanKernel> kernels;
};

/** Add one kernel invocation to `p`. */
void
planKernel(Plan &p, const EstimatorOptions &opt, const KernelSpec &spec,
           Precision precision, double bs, double nbs, bool first_layer,
           double mac)
{
    GemmConfig slice = spec.slice(precision, bs, nbs, opt.kSteps,
                                  opt.seed);
    auto index = [&p](const SliceKey &k) {
        auto [it, inserted] = p.index.try_emplace(
            k, static_cast<uint32_t>(p.keys.size()));
        if (inserted)
            p.keys.push_back(k);
        return it->second;
    };
    double PhaseBreakdown::*part =
        first_layer                     ? &PhaseBreakdown::firstLayer
        : spec.phase == Phase::Forward  ? &PhaseBreakdown::forward
        : spec.phase == Phase::BwdInput ? &PhaseBreakdown::bwdInput
                                        : &PhaseBreakdown::bwdWeights;
    PlanKernel k{part, mac, 0.0, 0.0, 0.0, {}};
    int w0 = 0, w1 = 0, a0 = 0, a1 = 0;
    bins(opt.gridStep, nbs, w0, w1, k.dw);
    bins(opt.gridStep, bs, a0, a1, k.da);
    for (int c = 0; c < 3; ++c) {
        SliceKey key{slice.mr, slice.nrVecs, slice.kSteps,
                     static_cast<uint8_t>(slice.pattern),
                     static_cast<uint8_t>(precision),
                     kPlanConfigs[c].saveOn,
                     static_cast<uint8_t>(kPlanConfigs[c].vpus), 0, 0};
        uint32_t *corner = k.corners[c];
        if (!key.saveOn) {
            // The baseline pipeline is data-oblivious: one sample
            // serves every sparsity point.
            std::fill_n(corner, 4, index(key));
            continue;
        }
        auto at = [&](int wb, int ab) {
            key.wBin = static_cast<uint8_t>(wb);
            key.aBin = static_cast<uint8_t>(ab);
            return index(key);
        };
        // Requested 00, 01, 10, 11 (first-request order), stored in
        // term order.
        corner[0] = at(w0, a0);
        corner[2] = at(w0, a1);
        corner[1] = at(w1, a0);
        corner[3] = at(w1, a1);
    }
    slice.tiles = opt.tiles;
    k.macScale = spec.macScale(slice);
    p.kernels.push_back(k);
}

/** The one key walk: plan epoch `step` of `ev` into `p`, every kernel
 *  in the order evaluate() accumulates them. */
void
planEpoch(Plan &p, const EstimatorOptions &opt, const NetEvaluation &ev,
          int64_t step)
{
    const NetworkModel &net = *ev.net;
    auto add = [&](const KernelSpec &spec, double bs, double nbs,
                   bool first_layer, double mac) {
        planKernel(p, opt, spec, ev.precision, bs, nbs, first_layer, mac);
    };
    p.kernels.clear();
    ActivationProfile act = net.profile();
    double ws = net.schedule.sparsityAt(step);
    int n_kernels = net.numKernels();

    if (!net.isLstm()) {
        for (int i = 0; i < n_kernels; ++i) {
            const ConvLayer &layer =
                net.convLayers[static_cast<size_t>(i)];
            bool first = i == 0;
            double in_act = first ? 0.0 : act.at(i, step);
            // Output-gradient sparsity: the layer's own ReLU mask,
            // approximated by its output activation sparsity (the
            // next layer's input); zero under BatchNorm.
            double grad = net.sparseGradients
                ? act.at(std::min(i + 1, n_kernels - 1), step)
                : 0.0;

            add(makeConvKernel(layer, Phase::Forward, net.batch),
                in_act, ws, first, 1.0);
            if (ev.inferenceOnly)
                continue;
            if (!first) {
                // dX = dY * W^T: dY broadcast (BS), W^T vector (NBS).
                add(makeConvKernel(layer, Phase::BwdInput, net.batch),
                    grad, ws, false, 1.0);
            }
            // dW = X^T dY: X broadcast (BS), dY vector (NBS).
            add(makeConvKernel(layer, Phase::BwdWeights, net.batch),
                in_act, net.sparseGradients ? grad : 0.0, first, 1.0);
        }
    } else {
        for (int i = 0; i < n_kernels; ++i) {
            const LstmCell &cell = net.cells[static_cast<size_t>(i)];
            double in_act = act.at(i, step);
            add(makeLstmKernel(cell, Phase::Forward), in_act, ws, false,
                1.0);
            if (ev.inferenceOnly)
                continue;
            // The merged LSTM backward computes both dX and dW: twice
            // the forward GEMM work at gradient/weight sparsity.
            add(makeLstmKernel(cell, Phase::BwdInput), in_act, ws, false,
                2.0);
        }
    }
}

/** Inference is the final epoch alone; training is every epoch. */
int64_t
firstEpoch(const NetEvaluation &ev)
{
    return ev.inferenceOnly ? ev.net->steps() - 1 : 0;
}

/** Configuration `cfg` (a corners row) of `k` in ns, from its plan's
 *  key times `t`: mac * (slice * macScale), terms 00, 10, 01, 11. */
double
kernelNs(const PlanKernel &k, const std::vector<double> &t, int cfg)
{
    const uint32_t *c = k.corners[cfg];
    double slice = t[c[0]];
    if (kPlanConfigs[cfg].saveOn)
        slice = t[c[0]] * (1 - k.dw) * (1 - k.da) +
                t[c[1]] * k.dw * (1 - k.da) +
                t[c[2]] * (1 - k.dw) * k.da + t[c[3]] * k.dw * k.da;
    return k.mac * (slice * k.macScale);
}

} // namespace

std::string
resolveIsolation(const std::string &opt)
{
    if (!opt.empty()) {
        RuntimeOptions o;
        o.isolation = opt;
        return o.resolveIsolation();
    }
    return RuntimeOptions::fromEnv().resolveIsolation();
}

void
EstimatorOptions::validate() const
{
    if (gridStep < 1 || gridStep > 9)
        throw ConfigError("EstimatorOptions.gridStep must be in [1, 9] "
                          "(got " + std::to_string(gridStep) + ")");
    if (threads < 0)
        throw ConfigError("EstimatorOptions.threads must be >= 0 "
                          "(got " + std::to_string(threads) + ")");
    if (kSteps < 1)
        throw ConfigError("EstimatorOptions.kSteps must be >= 1 "
                          "(got " + std::to_string(kSteps) + ")");
    if (tiles < 1)
        throw ConfigError("EstimatorOptions.tiles must be >= 1 "
                          "(got " + std::to_string(tiles) + ")");
    if (cores < 1)
        throw ConfigError("EstimatorOptions.cores must be >= 1 "
                          "(got " + std::to_string(cores) + ")");
    if (maxRetries < 0)
        throw ConfigError("EstimatorOptions.maxRetries must be >= 0 "
                          "(got " + std::to_string(maxRetries) + ")");
    resolveIsolation(isolation);
    proc.validate();
}

PhaseBreakdown &
PhaseBreakdown::operator+=(const PhaseBreakdown &o)
{
    firstLayer += o.firstLayer;
    forward += o.forward;
    bwdInput += o.bwdInput;
    bwdWeights += o.bwdWeights;
    return *this;
}

PhaseBreakdown &
PhaseBreakdown::operator*=(double f)
{
    firstLayer *= f;
    forward *= f;
    bwdInput *= f;
    bwdWeights *= f;
    return *this;
}

TrainingEstimator::TrainingEstimator(MachineConfig mcfg,
                                     SaveConfig save_features,
                                     EstimatorOptions opt)
    : TrainingEstimator(mcfg, save_features, std::move(opt), nullptr,
                        nullptr)
{
}

TrainingEstimator::TrainingEstimator(MachineConfig mcfg,
                                     SaveConfig save_features,
                                     EstimatorOptions opt,
                                     ThreadPool *shared_pool,
                                     ResultStore *shared_store)
    : mcfg_(mcfg), save_cfg_(save_features), opt_(opt)
{
    opt_.validate();
    mcfg_.validate();
    save_cfg_.validate();

    isolation_ = resolveIsolation(opt_.isolation);
    config_hash_ = casHashConfig(mcfg_, save_cfg_, optionSalt(opt_));

    // Process-level fault modes (crash/abort/hang/oom) are only
    // containable behind a process boundary: refuse to arm them where
    // a raised SIGSEGV would take the whole sweep down.
    {
        const FaultInjector &inj = FaultInjector::global();
        if (isolation_ != "process" && inj.enabled() &&
            inj.plan().anyProcessFaults())
            throw ConfigError(
                "SAVE_FAULT_INJECT crash/abort/hang/oom modes require "
                "--isolation=process (current isolation: " +
                isolation_ + ")");
    }

    if (shared_store) {
        store_ = shared_store;
    } else {
        ResultStore::Options sopt;
        sopt.dir = ResultStore::resolveDir(opt_.cacheDir);
        sopt.maxBytes = ResultStore::resolveMaxBytes(opt_.cacheMaxMb);
        owned_store_ = std::make_unique<ResultStore>(sopt);
        store_ = owned_store_.get();
    }

    if (isolation_ != "none") {
        if (shared_pool) {
            pool_ = shared_pool;
        } else if (opt_.threads >= 2) {
            owned_pool_ = std::make_unique<ThreadPool>(opt_.threads);
            pool_ = owned_pool_.get();
        } else if (opt_.threads == 0) {
            pool_ = &ThreadPool::global();
        } // threads == 1: pool_ stays null, strictly serial
    }     // isolation == none: strictly serial regardless of threads

    if (isolation_ == "process") {
        ProcOptions p = opt_.proc;
        if (p.workers == 0)
            p.workers = threads();
        WireSessionInit init;
        init.mcfg = mcfg_;
        init.scfg = save_cfg_;
        init.tiles = opt_.tiles;
        init.cores = opt_.cores;
        init.seed = opt_.seed;
        proc_pool_ = std::make_unique<WorkerPool>(p, init);
    }
}

TrainingEstimator::~TrainingEstimator() = default;

int
TrainingEstimator::threads() const
{
    return pool_ ? pool_->size() : 1;
}

KernelResult
TrainingEstimator::simulateSliceKernel(const MachineConfig &mcfg,
                                       const SaveConfig &save_on_cfg,
                                       const SliceKey &key, int tiles,
                                       int cores, uint64_t seed)
{
    GemmConfig g;
    g.mr = key.mr;
    g.nrVecs = key.nr;
    g.kSteps = key.kSteps;
    g.tiles = tiles;
    g.pattern = static_cast<BroadcastPattern>(key.pattern);
    g.precision = static_cast<Precision>(key.precision);
    g.nbsSparsity = key.wBin * SparsitySurface::kStep;
    g.bsSparsity = key.aBin * SparsitySurface::kStep;
    g.seed = seed + key.wBin * 131 + key.aBin * 17;

    // Each worker simulates with its own short-lived Engine: there is
    // no shared simulator state between concurrent slice points.
    Engine eng(mcfg, key.saveOn ? save_on_cfg : SaveConfig::baseline());
    return eng.runGemm(g, cores, key.vpus);
}

KernelResult
TrainingEstimator::simulateSlice(const Key &key) const
{
    return simulateSliceKernel(mcfg_, save_cfg_, key, opt_.tiles,
                               opt_.cores, opt_.seed);
}

CasKey
TrainingEstimator::casKey(const Key &key) const
{
    return CasKey{config_hash_, casSliceWorkload(key)};
}

KernelResult
TrainingEstimator::runSliceIsolated(const Key &key, int attempt)
{
    if (proc_pool_ && !proc_pool_->degraded()) {
        try {
            WireSliceResult wr =
                proc_pool_->runSlice(key, keyHash(key), attempt);
            KernelResult r;
            r.timeNs = wr.timeNs;
            r.cycles = wr.cycles;
            r.coreGhz = wr.coreGhz;
            for (const auto &[name, value] : wr.stats)
                r.stats.set(name, value);
            return r;
        } catch (const WorkerError &e) {
            // A pool drained past its crash budget finishes the point
            // in-process; degradation does not burn one of the slice's
            // own retries. On the last attempt a control slice decides
            // whose fault the deaths were: if a worker runs the control
            // clean, this slice kills its workers and fails alone
            // (contained); if the control dies too, workers die
            // whatever they run, the verdict degradation reaches, and
            // the attempt runs in-process. So in a crash storm no
            // slice's outcome depends on where the budget ran out.
            const char *why = nullptr;
            if (proc_pool_->degraded())
                why = "pool degradation";
            else if (attempt > opt_.maxRetries && !workersHealthy())
                why = "its last attempt and a control slice both died "
                      "in workers";
            if (!why)
                throw;
            SAVE_WARN("slice falling back in-process after ", why, ": ",
                      e.what());
            return simulateSlice(key);
        }
    }
    return simulateSlice(key);
}

bool
TrainingEstimator::workersHealthy()
{
    // A one-step 1x1 slice: cheap, and not a point any sweep asks for.
    static const Key control{
        1, 1, 1, static_cast<uint8_t>(BroadcastPattern::Explicit),
        static_cast<uint8_t>(Precision::Fp32), 0, 2, 0, 0};
    try {
        proc_pool_->runSlice(control, keyHash(control), 1);
    } catch (const WorkerError &) {
        return false;
    } catch (const std::exception &) {
        // A clean ERR frame: the worker that sent it was alive.
    }
    return true;
}

uint64_t
TrainingEstimator::keyHash(const Key &key) const
{
    // FNV-1a over the key fields plus the option salt: stable across
    // runs, so seeded fault injection deterministically picks the same
    // surface points every time.
    uint64_t h = 1469598103934665603ull;
    auto mix = [&h](uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (i * 8)) & 0xffu;
            h *= 1099511628211ull;
        }
    };
    mix(static_cast<uint64_t>(key.mr));
    mix(static_cast<uint64_t>(key.nr));
    mix(static_cast<uint64_t>(key.kSteps));
    mix(key.pattern);
    mix(key.precision);
    mix(key.saveOn);
    mix(key.vpus);
    mix(key.wBin);
    mix(key.aBin);
    mix(optionSalt(opt_));
    return h;
}

std::string
TrainingEstimator::keyLabel(const Key &key) const
{
    std::ostringstream os;
    os << "slice mr=" << key.mr << " nr=" << key.nr
       << " kSteps=" << key.kSteps
       << " pattern=" << static_cast<int>(key.pattern)
       << " precision=" << static_cast<int>(key.precision)
       << " save=" << static_cast<int>(key.saveOn)
       << " vpus=" << static_cast<int>(key.vpus)
       << " wBin=" << static_cast<int>(key.wBin)
       << " aBin=" << static_cast<int>(key.aBin);
    return os.str();
}

KernelResult
TrainingEstimator::simulateWithRetry(const Key &key)
{
    const uint64_t site = keyHash(key);
    const int attempts = 1 + opt_.maxRetries;
    for (int a = 1;; ++a) {
        try {
            FaultInjector::global().maybeFailSlice(site);
            return runSliceIsolated(key, a);
        } catch (const std::exception &e) {
            if (a < attempts) {
                SAVE_WARN("retrying ", keyLabel(key), " after attempt ",
                          a, "/", attempts, " failed: ", e.what());
                continue;
            }
            if (opt_.failFast)
                throw;
            SliceFailure f;
            f.point = keyLabel(key);
            f.reason = e.what();
            f.attempts = attempts;
            {
                std::lock_guard<std::mutex> lk(failures_mu_);
                failures_.push_back(std::move(f));
            }
            SAVE_WARN(keyLabel(key), " failed permanently after ",
                      attempts, " attempts: ", e.what());
            KernelResult out;
            out.timeNs = std::numeric_limits<double>::quiet_NaN();
            return out;
        }
    }
}

double
TrainingEstimator::computeCold(const Key &key)
{
    // The caller that wins this key's flight is its only writer, also
    // when the slice itself runs in a sandboxed worker.
    auto simulate = [&] {
        KernelResult r = simulateWithRetry(key);
        if (std::isfinite(r.timeNs))
            sims_.fetch_add(1, std::memory_order_relaxed);
        return casValueOf(r);
    };
    return store_->getOrCompute(casKey(key), simulate).timeNs;
}

struct TrainingEstimator::FanOut
{
    TrainingEstimator *est = nullptr;
    /** Claimed points batched by shape, in claim order; promises[] is
     *  parallel to the claimed key list (SliceBatch::srcIdx). */
    std::vector<SliceBatch> batches;
    std::vector<std::promise<double>> promises;
    /** Index of the next batch nobody has started. */
    std::atomic<size_t> next{0};
    std::atomic<bool> cancelled{false};
    std::mutex mu;
    std::condition_variable cv;
    /** Batches run or dropped; guarded by mu. */
    size_t finished = 0;

    /** Run the next unstarted batch; false when none is left. */
    bool runNext();
    /** Free points [from, end) of `b` for re-claiming. */
    void release(const SliceBatch &b, size_t from);
    void finish(size_t n);
};

double
TrainingEstimator::sliceTime(const Key &key)
{
    for (;;) {
        std::promise<double> promise;
        std::shared_future<double> value;
        std::shared_ptr<FanOut> fan;
        bool owner = false;
        {
            std::lock_guard<std::mutex> lk(cache_mu_);
            auto [it, inserted] = cache_.try_emplace(key);
            if (inserted) {
                it->second.value = promise.get_future().share();
                owner = true;
            } else if (ready(it->second.value)) {
                return it->second.value.get();
            } else {
                value = it->second.value;
                fan = it->second.fan.lock();
            }
        }
        if (owner) {
            double t;
            try {
                t = computeCold(key);
            } catch (...) {
                // failFast (or a non-isolatable error): fail every
                // waiter too, then let the sweep driver unwind.
                promise.set_exception(std::current_exception());
                throw;
            }
            // NaN (exhausted retries) is cached like any value: the
            // point is not re-attempted within this process, and
            // waiters observe the same poisoned result instead of a
            // duplicate simulation.
            promise.set_value(t);
            return t;
        }

        // A queued point: help drain its fan-out (next batch in claim
        // order) before blocking on the single-flight future.
        while (fan && !ready(value) && fan->runNext()) {
        }
        try {
            return value.get();
        } catch (const SliceReleased &) {
            // The fan-out was cancelled before the point ran and the
            // key was released: claim it again.
        }
    }
}

std::vector<SliceFailure>
TrainingEstimator::failures() const
{
    std::lock_guard<std::mutex> lk(failures_mu_);
    return failures_;
}

std::string
TrainingEstimator::failureReport() const
{
    std::ostringstream os;
    {
        std::lock_guard<std::mutex> lk(failures_mu_);
        if (!failures_.empty()) {
            os << failures_.size()
               << " surface point(s) failed permanently:\n";
            for (const SliceFailure &f : failures_)
                os << "  " << f.point << ": " << f.reason << " ("
                   << f.attempts << " attempts)\n";
        }
    }
    if (proc_pool_ && proc_pool_->crashes() > 0)
        os << proc_pool_->report() << "\n";
    return os.str();
}

double
TrainingEstimator::kernelTime(const KernelSpec &spec, Precision precision,
                              double bs, double nbs, bool save_on,
                              int vpus)
{
    const int cfg = !save_on ? 0 : vpus == 2 ? 1 : 2;
    if (kPlanConfigs[cfg].vpus != vpus)
        throw ConfigError("kernelTime: no modelled configuration has " +
                          std::string(save_on ? "SAVE" : "baseline") +
                          " with " + std::to_string(vpus) + " VPU(s)");
    Plan p;
    planKernel(p, opt_, spec, precision, bs, nbs, false, 1.0);
    const PlanKernel &k = p.kernels[0];
    std::vector<double> t(p.keys.size());
    for (uint32_t i : k.corners[cfg])
        t[i] = sliceTime(p.keys[i]);
    return kernelNs(k, t, cfg);
}

bool
TrainingEstimator::FanOut::runNext()
{
    const size_t idx = next.fetch_add(1);
    if (idx >= batches.size())
        return false;
    const SliceBatch &b = batches[idx];
    size_t i = 0;
    try {
        for (; i < b.size() && !cancelled.load(); ++i)
            promises[b.srcIdx[i]].set_value(est->computeCold(b.keyAt(i)));
    } catch (...) {
        // failFast: fail this point's waiters and everything left in
        // the batch; the walk rethrows when it reaches one of them.
        const std::exception_ptr e = std::current_exception();
        for (; i < b.size(); ++i)
            promises[b.srcIdx[i]].set_exception(e);
    }
    if (i < b.size()) // cancelled mid-batch
        release(b, i);
    finish(1);
    return true;
}

void
TrainingEstimator::FanOut::release(const SliceBatch &b, size_t from)
{
    {
        std::lock_guard<std::mutex> lk(est->cache_mu_);
        for (size_t i = from; i < b.size(); ++i)
            est->cache_.erase(b.keyAt(i));
    }
    // Erased first, so a waiter the marker wakes finds the key free.
    const std::exception_ptr marker =
        std::make_exception_ptr(SliceReleased{});
    for (size_t i = from; i < b.size(); ++i)
        promises[b.srcIdx[i]].set_exception(marker);
}

void
TrainingEstimator::FanOut::finish(size_t n)
{
    {
        std::lock_guard<std::mutex> lk(mu);
        finished += n;
    }
    cv.notify_all();
}

void
TrainingEstimator::Prefetch::cancel()
{
    if (!fan_)
        return;
    FanOut &f = *fan_;
    f.cancelled.store(true);
    // After the exchange no thread can start a batch, so [started, n)
    // is ours to drop.
    const size_t n = f.batches.size();
    const size_t started = std::min(f.next.exchange(n), n);
    for (size_t b = started; b < n; ++b)
        f.release(f.batches[b], 0);
    f.finish(n - started);
    {
        std::unique_lock<std::mutex> lk(f.mu);
        f.cv.wait(lk, [&] { return f.finished == n; });
    }
    fan_.reset();
}

TrainingEstimator::Prefetch
TrainingEstimator::prefetch(const std::vector<NetEvaluation> &evals)
{
    // Every plan's keys, in list order: the order the evaluations
    // first request them (a key an earlier plan holds is skipped by
    // the claim below).
    std::vector<Key> order;
    for (const NetEvaluation &ev : evals) {
        Plan p;
        for (int64_t e = firstEpoch(ev); e < ev.net->steps(); ++e)
            planEpoch(p, opt_, ev, e);
        order.insert(order.end(), p.keys.begin(), p.keys.end());
    }

    // Claim every un-cached point: inserting the shared future under
    // the lock takes single-flight ownership, exactly as sliceTime's
    // owner path would, so a concurrent kernelTime waits on (and helps
    // drain) this queue instead of duplicating the simulation. Points
    // group into batches by micro-kernel shape (SoA layout); each still
    // simulates with its own seeded Engine, so the grouping only
    // changes scheduling, never values.
    auto fan = std::make_shared<FanOut>();
    fan->est = this;
    {
        std::lock_guard<std::mutex> lk(cache_mu_);
        std::vector<Key> claimed;
        for (const Key &k : order) {
            auto [it, inserted] = cache_.try_emplace(k);
            if (!inserted)
                continue;
            fan->promises.emplace_back();
            it->second = Claim{fan->promises.back().get_future().share(),
                               fan};
            claimed.push_back(k);
        }
        // Batched before the lock drops: a waiter reaches the queue
        // through its claim.
        fan->batches = batchSlices(claimed);
    }

    Prefetch handle;
    if (fan->batches.empty())
        return handle;
    if (pool_)
        for (size_t b = 0; b < fan->batches.size(); ++b)
            pool_->submit([fan] { fan->runNext(); });
    handle.fan_ = std::move(fan);
    return handle;
}

NetResult
TrainingEstimator::evaluate(const NetEvaluation &ev)
{
    Plan p;
    std::vector<double> t; // parallel to p.keys
    NetResult r;
    for (int64_t e = firstEpoch(ev); e < ev.net->steps(); ++e) {
        planEpoch(p, opt_, ev, e);
        // One sliceTime per key, in first-request order.
        while (t.size() < p.keys.size())
            t.push_back(sliceTime(p.keys[t.size()]));
        // The replay reads only `t`: no lock, no map, no GemmConfig.
        PhaseBreakdown epoch2, epoch1; // for the per-epoch static choice
        for (const PlanKernel &k : p.kernels) {
            double t2 = kernelNs(k, t, 1);
            double t1 = kernelNs(k, t, 2);
            r.baseline2.*k.part += kernelNs(k, t, 0);
            r.save2.*k.part += t2;
            r.save1.*k.part += t1;
            r.saveDynamic.*k.part += std::min(t2, t1);
            epoch2.*k.part += t2;
            epoch1.*k.part += t1;
        }
        // Static: the better fixed VPU count for this whole epoch.
        r.saveStatic +=
            epoch2.total() <= epoch1.total() ? epoch2 : epoch1;
    }
    // Inference has no epoch granularity: static == the better fixed
    // configuration, and there is nothing to average.
    if (ev.inferenceOnly)
        return r;
    double inv = 1.0 / static_cast<double>(ev.net->steps());
    r.baseline2 *= inv;
    r.save2 *= inv;
    r.save1 *= inv;
    r.saveStatic *= inv;
    r.saveDynamic *= inv;
    return r;
}

void
TrainingEstimator::evaluateEach(
    const std::vector<NetEvaluation> &evals,
    const std::function<void(size_t, const NetResult &)> &onResult)
{
    // An unwinding walk destroys the handle, which cancels the rest.
    Prefetch fan = prefetch(evals);
    for (size_t i = 0; i < evals.size(); ++i)
        onResult(i, evaluate(evals[i]));
}

NetResult
TrainingEstimator::inference(const NetworkModel &net, Precision precision)
{
    NetResult r;
    evaluateEach({{&net, precision, true}},
                 [&r](size_t, const NetResult &v) { r = v; });
    return r;
}

NetResult
TrainingEstimator::training(const NetworkModel &net, Precision precision)
{
    NetResult r;
    evaluateEach({{&net, precision, false}},
                 [&r](size_t, const NetResult &v) { r = v; });
    return r;
}

} // namespace save
