#include "shard/coordinator.h"

#include <chrono>
#include <set>
#include <thread>

#include <time.h>

#include "dnn/fig14_report.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "util/error.h"
#include "util/logging.h"

namespace save {

namespace {

uint64_t
nowNs()
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
           static_cast<uint64_t>(ts.tv_nsec);
}

} // namespace

std::vector<std::string>
shardParseSockets(const std::string &list)
{
    std::vector<std::string> out;
    size_t pos = 0;
    while (pos <= list.size()) {
        size_t comma = list.find(',', pos);
        if (comma == std::string::npos)
            comma = list.size();
        std::string s = list.substr(pos, comma - pos);
        if (!s.empty())
            out.push_back(std::move(s));
        pos = comma + 1;
    }
    return out;
}

ShardCoordinator::Options
ShardCoordinator::validated(Options opt)
{
    if (opt.inprocLanes < 0)
        throw ConfigError("--inproc must be >= 0 (got " +
                          std::to_string(opt.inprocLanes) + ")");
    if (opt.inprocLanes == 0 && opt.sockets.empty())
        throw ConfigError("no backends: need --inproc >= 1 or at "
                          "least one --sockets entry");
    if (opt.batch < 1)
        throw ConfigError("--batch must be >= 1 (got " +
                          std::to_string(opt.batch) + ")");
    if (opt.maxAttempts < 1)
        throw ConfigError("--max-attempts must be >= 1 (got " +
                          std::to_string(opt.maxAttempts) + ")");
    if (opt.stragglerMs < 0)
        throw ConfigError("--straggler-ms must be >= 0 (got " +
                          std::to_string(opt.stragglerMs) + ")");
    return opt;
}

ShardCoordinator::ShardCoordinator(Options opt)
    : opt_(validated(std::move(opt))),
      ledger_(opt_.journalPath, fig14SweepHash(opt_.knobs))
{
    if (opt_.inprocLanes > 0) {
        SimSession::Options so;
        so.mcfg = opt_.mcfg;
        so.scfg = opt_.scfg;
        so.runtime = opt_.runtime;
        session_ = std::make_unique<SimSession>(std::move(so));
    }
}

ShardCoordinator::~ShardCoordinator() = default;

ShardCoordinator::Stats
ShardCoordinator::stats() const
{
    std::lock_guard<std::mutex> lk(mu_);
    Stats s = stats_;
    s.failures = ledger_.failures();
    return s;
}

const ResultStore *
ShardCoordinator::resultStore() const
{
    return session_ ? session_->resultStore() : nullptr;
}

std::vector<uint32_t>
ShardCoordinator::claim(int max)
{
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
        if (fatal_ || remaining_ == 0)
            return {};
        std::vector<uint32_t> got;
        for (uint32_t i = 0;
             i < points_.size() &&
             got.size() < static_cast<size_t>(max);
             ++i) {
            Point &p = points_[i];
            if (p.phase != PointPhase::Pending)
                continue;
            p.phase = PointPhase::InFlight;
            ++p.attempts;
            p.dispatchNs = nowNs();
            got.push_back(i);
        }
        if (got.empty() && opt_.stragglerMs > 0) {
            // Nothing pending but work still in flight: steal the
            // oldest straggler(s). First completion wins; results are
            // bit-identical, so the duplicate is merely wasted work.
            const uint64_t now = nowNs();
            const uint64_t limit =
                static_cast<uint64_t>(opt_.stragglerMs) * 1000000ull;
            for (uint32_t i = 0;
                 i < points_.size() &&
                 got.size() < static_cast<size_t>(max);
                 ++i) {
                Point &p = points_[i];
                if (p.phase != PointPhase::InFlight ||
                    now - p.dispatchNs <= limit)
                    continue;
                ++p.attempts;
                p.dispatchNs = now;
                ++stats_.speculative;
                got.push_back(i);
            }
        }
        if (!got.empty()) {
            ++stats_.dispatches;
            return got;
        }
        // Timed wait so straggler ages are re-examined periodically.
        cv_.wait_for(lk, std::chrono::milliseconds(50));
    }
}

void
ShardCoordinator::complete(uint32_t idx, const NetResult &r)
{
    std::lock_guard<std::mutex> lk(mu_);
    Point &p = points_[idx];
    if (p.phase == PointPhase::Done)
        return; // a speculative duplicate lost the race
    p.phase = PointPhase::Done;
    p.result = r;
    --remaining_;
    ledger_.record(fig14Points()[idx].key, r, p.attempts);
    cv_.notify_all();
}

void
ShardCoordinator::requeue(uint32_t idx)
{
    std::lock_guard<std::mutex> lk(mu_);
    Point &p = points_[idx];
    if (p.phase == PointPhase::Done)
        return;
    // Undo the claim's attempt charge: the point was never tried
    // (load-shed or returned unworked), only deferred.
    --p.attempts;
    p.phase = PointPhase::Pending;
    cv_.notify_all();
}

void
ShardCoordinator::requeueFailure(uint32_t idx, const std::string &reason)
{
    std::lock_guard<std::mutex> lk(mu_);
    Point &p = points_[idx];
    if (p.phase == PointPhase::Done)
        return;
    ++stats_.requeues;
    if (p.attempts >= opt_.maxAttempts) {
        // Budget exhausted: a permanent point failure with a
        // value-initialized result, so the rest of the sweep (and the
        // report) still completes.
        p.phase = PointPhase::Done;
        p.result = NetResult{};
        --remaining_;
        ledger_.fail(fig14Points()[idx].key, reason, p.attempts);
    } else {
        SAVE_WARN("shard point '", fig14Points()[idx].key,
                  "' dispatch ", p.attempts, "/", opt_.maxAttempts,
                  " failed: ", reason, "; re-queuing");
        p.phase = PointPhase::Pending;
    }
    cv_.notify_all();
}

void
ShardCoordinator::setFatal(const std::string &msg)
{
    std::lock_guard<std::mutex> lk(mu_);
    if (!fatal_) {
        fatal_ = true;
        fatalIsConfig_ = true;
        fatalMsg_ = msg;
    }
    cv_.notify_all();
}

void
ShardCoordinator::backendLost(const std::string &who,
                              const std::string &why)
{
    std::lock_guard<std::mutex> lk(mu_);
    ++stats_.backendsExcluded;
    --activeBackends_;
    SAVE_WARN("backend ", who, " excluded: ", why, " (",
              activeBackends_, " backend(s) remain)");
    if (activeBackends_ <= 0 && remaining_ > 0 && !fatal_) {
        fatal_ = true;
        fatalIsConfig_ = false;
        fatalMsg_ = "every backend was lost with " +
                    std::to_string(remaining_) +
                    " point(s) outstanding (last: " + who + ": " + why +
                    ")";
    }
    cv_.notify_all();
}

void
ShardCoordinator::inprocLane(int lane)
{
    (void)lane;
    for (;;) {
        std::vector<uint32_t> got = claim(1);
        if (got.empty())
            return;
        const uint32_t idx = got[0];
        try {
            session_->runFig14Points(
                opt_.knobs, got,
                [this](uint32_t i, const NetResult &r) { complete(i, r); });
        } catch (const ConfigError &e) {
            // Triage: a config fault would fail identically on every
            // backend — abort the run instead of burning the budget.
            setFatal(e.what());
            return;
        } catch (const std::exception &e) {
            requeueFailure(idx, e.what());
        }
    }
}

void
ShardCoordinator::daemonLane(const std::string &socket)
{
    ServeClient client(socket);

    // Version check: the status reply comes from another process, so
    // only a daemon that speaks this build's protocol gets batches;
    // any other is excluded and left alone.
    try {
        ServeRequest sreq;
        sreq.kind = ServeKind::Status;
        ServeClient::Reply reply =
            client.call(sreq, nullptr, opt_.rpcTimeoutMs);
        if (reply.kind != ServeClient::Reply::Kind::Ok)
            throw SimError("status probe not answered");
        if (reply.status.version != kServeVersion) {
            backendLost(socket,
                        "speaks protocol v" +
                            std::to_string(reply.status.version) +
                            " (this build speaks v" +
                            std::to_string(kServeVersion) + ")");
            return;
        }
    } catch (const std::exception &e) {
        backendLost(socket, e.what());
        return;
    }

    int consecutive = 0;
    for (;;) {
        std::vector<uint32_t> got = claim(opt_.batch);
        if (got.empty())
            return;

        ServeRequest req;
        req.kind = ServeKind::Fig14;
        req.fig14 = opt_.knobs;
        req.points = got;

        std::set<uint32_t> acked;
        bool faulted = false;
        std::string fault;
        try {
            ServeClient::Reply reply = client.call(
                req,
                [&](const ServeShardAck &ack) {
                    complete(ack.index, ack.result);
                    acked.insert(ack.index);
                },
                opt_.rpcTimeoutMs);
            if (reply.kind == ServeClient::Reply::Kind::Busy) {
                // Load-shed is an answer, not a fault — hand the
                // points back unworked and back off.
                for (uint32_t idx : got)
                    if (acked.find(idx) == acked.end())
                        requeue(idx);
                ++consecutive;
                fault.clear();
            } else if (reply.kind == ServeClient::Reply::Kind::Error) {
                if (reply.error.kind == WireErrorKind::Config) {
                    setFatal(socket + ": " + reply.error.what);
                    return;
                }
                faulted = true;
                fault = socket + ": " + reply.error.what;
            } else {
                // ServeClient::call checked that every point acked.
                consecutive = 0;
            }
        } catch (const ServeUnreachable &e) {
            // The batch never reached a daemon: hand it back unworked
            // like Busy (no attempt charged), but count the fault so a
            // dead daemon is still excluded after kMaxBackendFaults.
            for (uint32_t idx : got)
                requeue(idx);
            ++consecutive;
            fault = socket + ": " + e.what();
        } catch (const std::exception &e) {
            faulted = true;
            fault = socket + ": " + e.what();
        }

        if (faulted) {
            for (uint32_t idx : got)
                if (acked.find(idx) == acked.end())
                    requeueFailure(idx, fault);
            ++consecutive;
        }
        if (consecutive >= kMaxBackendFaults) {
            backendLost(socket,
                        std::to_string(consecutive) +
                            " consecutive failed dispatch(es)" +
                            (fault.empty() ? "" : " (last: " + fault +
                                                      ")"));
            return;
        }
        if (consecutive > 0)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(100 * consecutive));
    }
}

std::string
ShardCoordinator::run()
{
    const std::vector<Fig14Point> &pts = fig14Points();
    points_.assign(pts.size(), Point{});
    remaining_ = pts.size();
    stats_ = Stats{};
    for (uint32_t i = 0; i < pts.size(); ++i)
        if (ledger_.resume(pts[i].key, points_[i].result)) {
            points_[i].phase = PointPhase::Done;
            --remaining_;
        }

    if (remaining_ > 0) {
        // The in-process lanes count as ONE backend: they share a
        // session and never exit on point faults, so they live or
        // die together (a ConfigError kills the whole run anyway).
        activeBackends_ = (opt_.inprocLanes > 0 ? 1 : 0) +
                          static_cast<int>(opt_.sockets.size());

        std::vector<std::thread> lanes;
        lanes.reserve(static_cast<size_t>(opt_.inprocLanes) +
                      opt_.sockets.size());
        for (int i = 0; i < opt_.inprocLanes; ++i)
            lanes.emplace_back(&ShardCoordinator::inprocLane, this, i);
        for (const std::string &s : opt_.sockets)
            lanes.emplace_back(&ShardCoordinator::daemonLane, this, s);
        for (std::thread &t : lanes)
            t.join();

        std::lock_guard<std::mutex> lk(mu_);
        if (fatal_) {
            if (fatalIsConfig_)
                throw ConfigError(fatalMsg_);
            throw SimError(fatalMsg_);
        }
    }

    // Merge in config-key order, never arrival order: the one shared
    // renderer walks the canonical enumeration over the index-addressed
    // results — byte-identical to bench_fig14 by construction.
    std::vector<NetResult> results;
    results.reserve(points_.size());
    for (const Point &p : points_)
        results.push_back(p.result);
    return fig14Report(results);
}

} // namespace save
