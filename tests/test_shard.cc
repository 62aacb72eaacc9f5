/**
 * @file
 * Shard coordinator tests: the point ack round-trip and version
 * checks, the canonical point enumeration, and the coordinator
 * fault matrix — shard-count invariance, daemon crash mid-batch,
 * straggler rebalance, protocol version skew against a fake peer,
 * a daemon that vanishes between its status probe and its
 * first batch, coordinator SIGKILL + journal resume recomputing zero
 * already-merged points, and a daemon and two lanes sharing one store
 * simulating every slice exactly once. The acceptance bar throughout is
 * that the merged report is byte-identical to the single-host sweep.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <regex>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "cache/result_store.h"
#include "dnn/fig14_report.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "shard/coordinator.h"
#include "util/error.h"
#include "util/fault_injection.h"
#include "util/frame.h"
#include "util/journal.h"
#include "util/logging.h"
#include "util/posix_io.h"

using namespace save;

namespace {

/** A fresh directory under /tmp, removed with everything in it when
 *  the test ends. */
class TempDir
{
  public:
    explicit TempDir(const char *tag)
    {
        std::string t = "/tmp/save_shard_test_" + std::string(tag) +
                        "_" + std::to_string(::getpid()) + "_XXXXXX";
        std::vector<char> buf(t.begin(), t.end());
        buf.push_back('\0');
        const char *d = ::mkdtemp(buf.data());
        EXPECT_NE(d, nullptr);
        path_ = d ? d : "";
    }
    ~TempDir()
    {
        std::error_code ec;
        if (!path_.empty())
            std::filesystem::remove_all(path_, ec);
    }
    TempDir(const TempDir &) = delete;
    TempDir &operator=(const TempDir &) = delete;

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

std::string
socketPath(const char *tag)
{
    static std::atomic<int> counter{0};
    return "/tmp/sh_" + std::string(tag) + "_" +
           std::to_string(::getpid()) + "_" +
           std::to_string(counter.fetch_add(1)) + ".sock";
}

/** The quick sweep knobs every test uses (the CI smoke config). */
Fig14Knobs
quickKnobs()
{
    Fig14Knobs k;
    k.gridStep = 9;
    k.kSteps = 8;
    k.tiles = 1;
    return k;
}

/** Single-host reference report for the quick knobs. */
const std::string &
referenceReport()
{
    static const std::string report = [] {
        EstimatorOptions eo;
        eo.gridStep = 9;
        eo.kSteps = 8;
        eo.tiles = 1;
        eo.cacheDir = "none";
        TrainingEstimator est(MachineConfig{}, SaveConfig{}, eo);
        return fig14Report([&](const std::string &,
                               const Fig14Entry &e, bool training) {
            return training ? est.training(e.net, e.prec)
                            : est.inference(e.net, e.prec);
        });
    }();
    return report;
}

ShardCoordinator::Options
quickOptions()
{
    ShardCoordinator::Options o;
    o.knobs = quickKnobs();
    o.runtime.cacheDir = "none";
    o.runtime.threads = 2;
    return o;
}

/** Spawns the real save-serve binary and manages its lifetime. */
class DaemonProc
{
  public:
    void
    start(const std::string &socket,
          const std::vector<std::string> &extra_args = {})
    {
        socket_ = socket;
        std::vector<std::string> args;
        args.push_back(SAVE_SERVE_BIN_PATH);
        args.push_back("--socket=" + socket);
        for (const std::string &a : extra_args)
            args.push_back(a);
        // The first --cache-dir wins: default to none unless given.
        if (std::none_of(extra_args.begin(), extra_args.end(),
                         [](const std::string &a) {
                             return a.rfind("--cache-dir=", 0) == 0;
                         }))
            args.push_back("--cache-dir=none");
        pid_ = ::fork();
        ASSERT_GE(pid_, 0);
        if (pid_ == 0) {
            std::vector<char *> argv;
            for (std::string &a : args)
                argv.push_back(a.data());
            argv.push_back(nullptr);
            ::execv(SAVE_SERVE_BIN_PATH, argv.data());
            ::_exit(127);
        }
    }

    bool
    waitReady(int timeout_ms = 15000)
    {
        ServeClient client(socket_);
        ServeRequest ping;
        ping.kind = ServeKind::Ping;
        for (int waited = 0; waited < timeout_ms; waited += 50) {
            try {
                client.call(ping, nullptr, 2000);
                return true;
            } catch (const SimError &) {
                ::usleep(50 * 1000);
            }
        }
        return false;
    }

    void
    kill9()
    {
        if (pid_ > 0) {
            ::kill(pid_, SIGKILL);
            int status;
            ::waitpid(pid_, &status, 0);
            pid_ = -1;
        }
    }

    ~DaemonProc()
    {
        kill9();
        if (!socket_.empty())
            ::unlink(socket_.c_str());
    }

  private:
    pid_t pid_ = -1;
    std::string socket_;
};

/**
 * A stand-in backend that answers one Status probe with `status` (by
 * default a daemon of this build's protocol version) and is gone
 * before the reply is even sent: the listening socket is closed and
 * unlinked first, so every later dispatch fails at connect() and never
 * reaches a daemon. Deterministic, unlike killing a real daemon
 * between probe and dispatch.
 */
class ProbeThenVanish
{
  public:
    explicit ProbeThenVanish(const std::string &path,
                             ServeStatus status = ServeStatus{})
        : path_(path)
    {
        struct sockaddr_un addr;
        std::memset(&addr, 0, sizeof(addr));
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, path.c_str(),
                     sizeof(addr.sun_path) - 1);
        listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
        ::unlink(path.c_str());
        EXPECT_EQ(::bind(listen_fd_,
                         reinterpret_cast<struct sockaddr *>(&addr),
                         sizeof(addr)),
                  0);
        EXPECT_EQ(::listen(listen_fd_, 4), 0);
        thread_ = std::thread([this, status] {
            // Bounded wait, so a run that never probes cannot hang the
            // destructor's join.
            struct pollfd p = {listen_fd_, POLLIN, 0};
            int fd = ::poll(&p, 1, 30000) == 1
                ? ::accept(listen_fd_, nullptr, nullptr)
                : -1;
            ::close(listen_fd_);
            ::unlink(path_.c_str());
            if (fd < 0)
                return;
            Frame req;
            if (frameReadFd(fd, req, 5000, serveKnownFourcc,
                            kServeMaxPayload, "test") == FrameRead::Ok)
                frameWriteFd(fd, kServeResult, 0,
                             serveEncodeStatus(status));
            ::close(fd);
        });
    }

    ~ProbeThenVanish() { thread_.join(); }

    ProbeThenVanish(const ProbeThenVanish &) = delete;
    ProbeThenVanish &operator=(const ProbeThenVanish &) = delete;

  private:
    std::string path_;
    int listen_fd_ = -1;
    std::thread thread_;
};

/** The fault plan under which 15 of the 16 quick-knob points come out
 *  NaN-poisoned: 20% of slices fail on every attempt. */
constexpr const char *kPoisonPlan = "slice=0.2,times=99,seed=3";

/** Run a Fig. 14 front end (`bin`: save-shard or bench_fig14) at the
 *  quick knobs with stdout/stderr captured to files and `env`
 *  ("KEY=VALUE") added to the environment; returns the pid (caller
 *  waits or kills). */
pid_t
spawnSweep(const char *bin, const std::vector<std::string> &extra_args,
           const std::string &out_path, const std::string &err_path,
           const std::vector<std::string> &env = {})
{
    std::vector<std::string> args;
    args.push_back(bin);
    args.push_back("--grid=9");
    args.push_back("--ksteps=8");
    args.push_back("--tiles=1");
    args.push_back("--cache-dir=none");
    args.push_back("--threads=2");
    for (const std::string &a : extra_args)
        args.push_back(a);
    // Built before the fork: the child only dup2()s and exec()s.
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);
    std::vector<std::string> env_copy = env;
    std::vector<char *> envp;
    for (char **e = environ; *e != nullptr; ++e)
        envp.push_back(*e);
    for (std::string &e : env_copy)
        envp.push_back(e.data());
    envp.push_back(nullptr);
    pid_t pid = ::fork();
    EXPECT_GE(pid, 0);
    if (pid == 0) {
        int out = ::open(out_path.c_str(),
                         O_WRONLY | O_CREAT | O_TRUNC, 0644);
        int err = ::open(err_path.c_str(),
                         O_WRONLY | O_CREAT | O_TRUNC, 0644);
        if (out < 0 || err < 0)
            ::_exit(126);
        ::dup2(out, 1);
        ::dup2(err, 2);
        ::execve(bin, argv.data(), envp.data());
        ::_exit(127);
    }
    return pid;
}

int
waitExit(pid_t pid, int timeout_ms = 120000)
{
    for (int waited = 0; waited <= timeout_ms; waited += 50) {
        int status = 0;
        pid_t r = ::waitpid(pid, &status, WNOHANG);
        if (r == pid)
            return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
        ::usleep(50 * 1000);
    }
    return -2;
}

/** Record frames per (cfg, wl) key across a store's shard files. The
 *  store's own records() deduplicates, so only a scan sees a key that
 *  was appended twice. */
std::map<std::pair<uint64_t, uint64_t>, int>
framesPerKey(const std::string &dir)
{
    std::map<std::pair<uint64_t, uint64_t>, int> frames;
    ResultStore probe(ResultStore::Options{dir, 0});
    for (int s = 0; s < ResultStore::kShards; ++s) {
        std::ifstream f(probe.shardPath(s), std::ios::binary);
        if (!f)
            continue;
        std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(f)),
                                   std::istreambuf_iterator<char>());
        uint64_t off = 0;
        FrameView v;
        while (frameParse(bytes.data(), bytes.size(), off, v,
                          uint64_t{1} << 30, nullptr) == FrameParse::Ok) {
            const uint8_t *p = v.payload;
            const uint64_t cfg = frameGetU64(p, v.payload + v.len);
            const uint64_t wl = frameGetU64(p, v.payload + v.len);
            ++frames[{cfg, wl}];
        }
        EXPECT_EQ(off, bytes.size()) << "unparsed tail in shard " << s;
    }
    return frames;
}

std::string
slurp(const std::string &path)
{
    std::string text;
    readFileBytes(path, text, nullptr);
    return text;
}

} // namespace

// ---------------------------------------------------------------------
// Protocol frames and the point enumeration
// ---------------------------------------------------------------------

TEST(ShardProtocol, AckRoundtrip)
{
    ServeShardAck a;
    a.index = 7;
    a.key = "train/GNMT MP pruned";
    a.result.baseline2.forward = 123.5;
    a.result.saveDynamic.bwdWeights = 9.25;
    std::vector<uint8_t> p = serveEncodeShardAck(a);

    ServeShardAck d = serveDecodeShardAck(p);
    EXPECT_EQ(d.index, 7u);
    EXPECT_EQ(d.key, "train/GNMT MP pruned");
    EXPECT_EQ(d.result.baseline2.forward, 123.5);
    EXPECT_EQ(d.result.saveDynamic.bwdWeights, 9.25);
}

TEST(ShardProtocol, RequestDecodesOnlyTheCurrentVersion)
{
    ServeRequest r;
    r.kind = ServeKind::Ping;
    std::vector<uint8_t> p = serveEncodeRequest(r);
    EXPECT_NO_THROW(serveDecodeRequest(kServeVersion, p));
    EXPECT_THROW(serveDecodeRequest(kServeVersion - 1, p), TraceError);
    EXPECT_THROW(serveDecodeRequest(kServeVersion + 1, p), TraceError);
}

TEST(ShardProtocol, PointEnumerationMatchesReportWalk)
{
    const std::vector<Fig14Point> &pts = fig14Points();
    // Inference and training of 6 CNN and 2 GNMT entries.
    ASSERT_EQ(pts.size(), 16u);

    // The renderer must ask for keys in exactly the enumeration
    // order — that equality is what makes index-addressed dispatch
    // and key-ordered merging the same thing.
    std::vector<std::string> walk;
    fig14Report([&](const std::string &key, const Fig14Entry &,
                    bool) -> NetResult {
        walk.push_back(key);
        return NetResult{};
    });
    ASSERT_EQ(walk.size(), pts.size());
    for (size_t i = 0; i < pts.size(); ++i)
        EXPECT_EQ(walk[i], pts[i].key) << "index " << i;

    // The index-addressed renderer needs exactly one result per point.
    EXPECT_NO_THROW(fig14Report(std::vector<NetResult>(pts.size())));
    EXPECT_THROW(fig14Report(std::vector<NetResult>(pts.size() - 1)),
                 SimError);
}

TEST(ShardProtocol, SocketListParsing)
{
    EXPECT_TRUE(shardParseSockets("").empty());
    EXPECT_EQ(shardParseSockets("a.sock"),
              (std::vector<std::string>{"a.sock"}));
    EXPECT_EQ(shardParseSockets("a,b,c"),
              (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_EQ(shardParseSockets(",a,,b,"),
              (std::vector<std::string>{"a", "b"}));
}

// ---------------------------------------------------------------------
// Coordinator fault matrix
// ---------------------------------------------------------------------

TEST(ShardCoordinator, RejectsEmptyBackendSet)
{
    ShardCoordinator::Options o = quickOptions();
    o.inprocLanes = 0;
    EXPECT_THROW(ShardCoordinator{std::move(o)}, ConfigError);
}

TEST(ShardCoordinator, ShardCountInvariance)
{
    // 1, 2, and 8 backends must all merge to the identical report.
    for (int lanes : {1, 2, 8}) {
        ShardCoordinator::Options o = quickOptions();
        o.inprocLanes = lanes;
        ShardCoordinator coord(std::move(o));
        EXPECT_EQ(coord.run(), referenceReport())
            << lanes << " in-process lanes";
    }
}

TEST(ShardCoordinator, MixedBackendIdentity)
{
    std::string s1 = socketPath("mixed1");
    std::string s2 = socketPath("mixed2");
    DaemonProc d1, d2;
    d1.start(s1, {"--workers=1"});
    d2.start(s2, {"--workers=1"});
    ASSERT_TRUE(d1.waitReady());
    ASSERT_TRUE(d2.waitReady());

    ShardCoordinator::Options o = quickOptions();
    o.inprocLanes = 2;
    o.sockets = {s1, s2};
    o.batch = 3;
    ShardCoordinator coord(std::move(o));
    EXPECT_EQ(coord.run(), referenceReport());
    EXPECT_EQ(coord.stats().backendsExcluded, 0u);
    EXPECT_EQ(coord.ledger().computed(), fig14Points().size());
}

TEST(ShardCoordinator, DaemonCrashMidBatchDegradesGracefully)
{
    std::string s = socketPath("crash");
    // Slow the daemon down so the kill is guaranteed mid-batch.
    ::setenv("SAVE_SERVE_TEST_POINT_DELAY_MS", "300", 1);
    DaemonProc d;
    d.start(s, {"--workers=1"});
    ::unsetenv("SAVE_SERVE_TEST_POINT_DELAY_MS");
    ASSERT_TRUE(d.waitReady());

    ShardCoordinator::Options o = quickOptions();
    o.inprocLanes = 1;
    o.sockets = {s};
    o.batch = 8;
    o.rpcTimeoutMs = 10000;
    ShardCoordinator coord(std::move(o));

    std::thread killer([&] {
        ::usleep(700 * 1000);
        d.kill9();
    });
    std::string report = coord.run();
    killer.join();

    // The crash re-queued the daemon's claimed points and the
    // in-process lane finished them: same bytes, no hang.
    EXPECT_EQ(report, referenceReport());
    EXPECT_GE(coord.stats().requeues, 1u);
}

TEST(ShardCoordinator, RefusedDispatchChargesNoAttempt)
{
    // Every dispatch to the vanished daemon fails at connect(), before
    // a batch reaches it. That must not charge an attempt: even with a
    // budget of one, every point falls to the in-process lane and the
    // merge is unchanged (a build-speed-independent repro of a dead
    // daemon burning points' budgets while a healthy lane exists).
    std::string s = socketPath("gone");
    ProbeThenVanish d(s);

    ShardCoordinator::Options o = quickOptions();
    o.inprocLanes = 1;
    o.sockets = {s};
    o.batch = 4;
    o.maxAttempts = 1;
    ShardCoordinator coord(std::move(o));
    EXPECT_EQ(coord.run(), referenceReport());
    EXPECT_TRUE(coord.stats().failures.empty());
    EXPECT_EQ(coord.stats().requeues, 0u);
}

TEST(ShardCoordinator, RefusedDispatchStillExcludesBackend)
{
    // Uncharged refusals still count as consecutive faults: with no
    // other backend the dead daemon is excluded and the run fails
    // typed, without any point having been marked permanently failed.
    std::string s = socketPath("gone_only");
    ProbeThenVanish d(s);

    ShardCoordinator::Options o = quickOptions();
    o.inprocLanes = 0;
    o.sockets = {s};
    o.maxAttempts = 1;
    ShardCoordinator coord(std::move(o));
    EXPECT_THROW(coord.run(), SimError);
    EXPECT_EQ(coord.stats().backendsExcluded, 1u);
    EXPECT_TRUE(coord.stats().failures.empty());
}

TEST(ShardCoordinator, SharedStoreSimulatesEverySliceOnce)
{
    // One daemon and two in-process lanes, all process-isolated over one
    // fresh store. A duplicate simulation carries the same bytes, so the
    // report cannot show it; the store's frames can.
    const TempDir root("once");
    const std::string store = root.path() + "/cas";
    const std::string s = socketPath("once");
    DaemonProc d;
    d.start(s, {"--workers=1", "--threads=1", "--cache-dir=" + store,
                "--isolation=process",
                std::string("--worker-bin=") + SAVE_WORKER_BIN_PATH});
    ASSERT_TRUE(d.waitReady());

    ShardCoordinator::Options o = quickOptions();
    o.inprocLanes = 2;
    o.sockets = {s};
    o.knobs.isolation = fig14IsolationCode("process");
    o.runtime.threads = 1;
    o.runtime.isolation = "process";
    o.runtime.cacheDir = store;
    o.runtime.workerBin = SAVE_WORKER_BIN_PATH;
    ShardCoordinator coord(std::move(o));
    EXPECT_EQ(coord.run(), referenceReport());
    EXPECT_EQ(coord.stats().backendsExcluded, 0u);

    const auto frames = framesPerKey(store);
    ASSERT_FALSE(frames.empty());
    for (const auto &[key, n] : frames)
        EXPECT_EQ(n, 1) << std::hex << "key " << key.first << "/"
                        << key.second << std::dec << " landed " << n
                        << " times";
    EXPECT_EQ(ResultStore(ResultStore::Options{store, 0}).records(),
              frames.size());
}

TEST(ShardCoordinator, StragglerRebalance)
{
    std::string s = socketPath("slow");
    ::setenv("SAVE_SERVE_TEST_POINT_DELAY_MS", "1500", 1);
    DaemonProc d;
    d.start(s, {"--workers=1"});
    ::unsetenv("SAVE_SERVE_TEST_POINT_DELAY_MS");
    ASSERT_TRUE(d.waitReady());

    ShardCoordinator::Options o = quickOptions();
    o.inprocLanes = 1;
    o.sockets = {s};
    o.batch = 2;
    o.stragglerMs = 100;
    o.rpcTimeoutMs = 30000;
    ShardCoordinator coord(std::move(o));
    std::string report = coord.run();

    // The fast in-process lane stole the slow daemon's in-flight
    // points; the first completion won and the merge is unchanged.
    EXPECT_EQ(report, referenceReport());
    EXPECT_GE(coord.stats().speculative, 1u);
}

TEST(ShardCoordinator, VersionSkewExcludesBackend)
{
    // A peer whose status probe reports another protocol version is
    // excluded before any batch is sent; the run completes on the
    // remaining backend with the bytes unchanged.
    for (uint32_t version : {kServeVersion - 1, kServeVersion + 1}) {
        std::string s = socketPath("skew");
        ServeStatus st;
        st.version = version;
        ProbeThenVanish d(s, st);

        ShardCoordinator::Options o = quickOptions();
        o.inprocLanes = 1;
        o.sockets = {s};
        ShardCoordinator coord(std::move(o));
        EXPECT_EQ(coord.run(), referenceReport()) << version;
        EXPECT_EQ(coord.stats().backendsExcluded, 1u) << version;
        // Nothing was claimed for the peer: every dispatch is one
        // in-process lane point.
        EXPECT_EQ(coord.stats().dispatches, fig14Points().size())
            << version;
        EXPECT_EQ(coord.stats().requeues, 0u) << version;
    }
}

TEST(ShardCoordinator, JournalInterchangesWithBench)
{
    // The real bench_fig14 and save-shard binaries, in both orders: a
    // journal either one writes resumes the other to zero computed
    // points, with the same bytes.
    const TempDir tmp("journal");
    const std::string &dir = tmp.path();
    const std::pair<const char *, const char *> orders[] = {
        {SAVE_BENCH_FIG14_BIN_PATH, SAVE_SHARD_BIN_PATH},
        {SAVE_SHARD_BIN_PATH, SAVE_BENCH_FIG14_BIN_PATH},
    };
    for (size_t o = 0; o < 2; ++o) {
        const std::string jpath =
            dir + "/sweep" + std::to_string(o) + ".journal";
        const char *bins[] = {orders[o].first, orders[o].second};
        for (int run = 0; run < 2; ++run) {
            const std::string out =
                dir + "/out" + std::to_string(o) + std::to_string(run);
            const std::string err =
                dir + "/err" + std::to_string(o) + std::to_string(run);
            pid_t pid =
                spawnSweep(bins[run], {"--journal=" + jpath}, out, err);
            ASSERT_GT(pid, 0);
            ASSERT_EQ(waitExit(pid), 0) << bins[run] << "\n" << slurp(err);
            EXPECT_EQ(slurp(out), referenceReport()) << bins[run];
            const std::string want =
                run == 0 ? "0 point(s) resumed, 16 computed"
                         : "16 point(s) resumed, 0 computed";
            EXPECT_NE(slurp(err).find(want), std::string::npos)
                << bins[run] << " after " << bins[1 - run] << ":\n"
                << slurp(err);
        }
    }
}

TEST(ShardCoordinator, PoisonedPointIsAFailureAndNeverJournaled)
{
    // A slice that fails permanently poisons every point that reads
    // it. Computed by an in-process lane, such a point is a permanent
    // point failure, exactly as in bench_fig14, and stays out of the
    // journal so a resumed run re-attempts it.
    const TempDir tmp("poison");
    const std::string jpath = tmp.path() + "/sweep.journal";
    setQuietLogging(true);
    FaultInjector::global().configure(FaultInjector::parsePlan(kPoisonPlan));
    ShardCoordinator::Options o = quickOptions();
    o.journalPath = jpath;
    ShardCoordinator coord(std::move(o));
    const std::string report = coord.run();
    FaultInjector::global().reset();
    setQuietLogging(false);

    const ShardCoordinator::Stats st = coord.stats();
    EXPECT_NE(report.find("nan"), std::string::npos);
    EXPECT_EQ(coord.ledger().computed(), fig14Points().size());
    ASSERT_FALSE(st.failures.empty());
    EXPECT_LT(st.failures.size(), fig14Points().size());
    SweepJournal journal(jpath, fig14SweepHash(quickKnobs()));
    for (const SweepFailure &f : st.failures)
        EXPECT_FALSE(journal.lookup(f.key)) << f.key;
    EXPECT_EQ(journal.size() + st.failures.size(), fig14Points().size());
}

TEST(ShardCoordinator, PoisonedPointsFailTheShardBinary)
{
    // save-shard finishes through the sweep ledger: poisoned points
    // past --max-failures exit 1, within it exit 0, and the report's
    // bytes match bench_fig14's under the same faults either way.
    const TempDir tmp("poisonbin");
    const std::string &dir = tmp.path();
    const std::vector<std::string> env = {
        std::string("SAVE_FAULT_INJECT=") + kPoisonPlan};
    struct Run
    {
        const char *bin;
        std::vector<std::string> args;
        int code;
    };
    const Run runs[] = {
        {SAVE_BENCH_FIG14_BIN_PATH, {}, 1},
        {SAVE_SHARD_BIN_PATH, {"--inproc=1", "--journal=none"}, 1},
        {SAVE_SHARD_BIN_PATH,
         {"--inproc=1", "--journal=none", "--max-failures=16"},
         0},
    };
    std::string bench_out;
    for (size_t i = 0; i < std::size(runs); ++i) {
        const std::string out = dir + "/out" + std::to_string(i);
        const std::string err = dir + "/err" + std::to_string(i);
        pid_t pid = spawnSweep(runs[i].bin, runs[i].args, out, err, env);
        ASSERT_GT(pid, 0);
        EXPECT_EQ(waitExit(pid), runs[i].code) << i << "\n" << slurp(err);
        if (i == 0) {
            bench_out = slurp(out);
            EXPECT_NE(bench_out.find("nan"), std::string::npos);
        } else {
            EXPECT_EQ(slurp(out), bench_out) << i;
            EXPECT_NE(slurp(err).find("sweep point(s) failed permanently"),
                      std::string::npos)
                << i;
        }
    }
}

TEST(ShardCoordinator, CoordinatorKillThenJournalResume)
{
    const TempDir tmp("kill");
    const std::string &dir = tmp.path();
    std::string jpath = dir + "/sweep.journal";

    // Run the real binary and SIGKILL it once the journal shows
    // progress (a coordinator crash, not a graceful stop).
    pid_t pid = spawnSweep(SAVE_SHARD_BIN_PATH,
                           {"--inproc=1", "--journal=" + jpath},
                           dir + "/out1", dir + "/err1");
    ASSERT_GT(pid, 0);
    bool progressed = false;
    for (int waited = 0; waited < 120000; waited += 50) {
        std::string text = slurp(jpath);
        size_t lines =
            static_cast<size_t>(std::count(text.begin(), text.end(),
                                           '\n'));
        if (lines >= 4) { // header + >= 3 completed points
            progressed = true;
            break;
        }
        ::usleep(50 * 1000);
    }
    ASSERT_TRUE(progressed) << "first run never journaled 3 points";
    ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);
    ASSERT_FALSE(WIFEXITED(status)); // killed, not exited

    // The resumed run must replay every journaled point (recompute
    // zero already-merged points) and still match the reference.
    pid = spawnSweep(SAVE_SHARD_BIN_PATH,
                     {"--inproc=1", "--journal=" + jpath}, dir + "/out2",
                     dir + "/err2");
    ASSERT_GT(pid, 0);
    ASSERT_EQ(waitExit(pid), 0);
    EXPECT_EQ(slurp(dir + "/out2"), referenceReport());

    std::string err = slurp(dir + "/err2");
    std::smatch m;
    ASSERT_TRUE(std::regex_search(
        err, m,
        std::regex(R"((\d+) point\(s\) resumed, (\d+) computed)")))
        << err;
    const int resumed = std::atoi(m[1].str().c_str());
    const int computed = std::atoi(m[2].str().c_str());
    EXPECT_GE(resumed, 3);
    EXPECT_EQ(resumed + computed,
              static_cast<int>(fig14Points().size()));
}
