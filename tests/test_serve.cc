/**
 * @file
 * save-serve end-to-end tests: protocol round-trip and corruption
 * rejection, daemon lifecycle (spawned from the real binary),
 * admission control and load shedding, client disconnect mid-sweep,
 * graceful drain with in-flight work, SIGHUP config reload, stale
 * socket reclamation, typed rejection of a bad point list, per-point
 * acks in request order with every slice simulated once, the client's
 * ack-order checks against a scripted stand-in daemon, and the
 * acceptance bar — a Fig. 14 sweep rendered from the served acks
 * byte-identical to the in-process report across isolation modes,
 * with warm repeats answered from the shared CAS store.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <fcntl.h>
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
#include "serve/server.h"
#include "util/error.h"
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
        std::string t = "/tmp/save_serve_test_" + std::string(tag) +
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
    return "/tmp/ss_" + std::string(tag) + "_" +
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

/** A Fig14 request for every sweep point, in canonical order. */
ServeRequest
sweepRequest(const Fig14Knobs &knobs)
{
    ServeRequest req;
    req.kind = ServeKind::Fig14;
    req.fig14 = knobs;
    req.points.resize(fig14Points().size());
    std::iota(req.points.begin(), req.points.end(), 0u);
    return req;
}

/** A served sweep rendered from its acks, as `save-ctl fig14` does. */
struct ServedSweep
{
    ServeClient::Reply reply;
    std::string report;
    int acks = 0;
};

ServedSweep
serveSweep(ServeClient &client, const ServeRequest &req, int timeout_ms)
{
    ServedSweep out;
    std::vector<NetResult> results(fig14Points().size());
    out.reply = client.call(
        req,
        [&](const ServeShardAck &a) {
            EXPECT_EQ(a.key, fig14Points().at(a.index).key);
            results.at(a.index) = a.result;
            ++out.acks;
        },
        timeout_ms);
    if (out.reply.kind == ServeClient::Reply::Kind::Ok)
        out.report = fig14Report(results);
    return out;
}

/** In-process reference report for the quick knobs. */
std::string
inprocReport(const std::string &cache_dir)
{
    EstimatorOptions eo;
    eo.gridStep = 9;
    eo.kSteps = 8;
    eo.tiles = 1;
    eo.cacheDir = cache_dir.empty() ? "none" : cache_dir;
    TrainingEstimator est(MachineConfig{}, SaveConfig{}, eo);
    return fig14Report([&](const std::string &, const Fig14Entry &e,
                           bool training) {
        return training ? est.training(e.net, e.prec)
                        : est.inference(e.net, e.prec);
    });
}

/**
 * A stand-in daemon for one connection: it reads the request, answers
 * with `script` verbatim and hangs up, so a test can send the
 * protocol violations a real daemon never does.
 */
class ScriptedDaemon
{
  public:
    using Script = std::vector<std::pair<uint32_t, std::vector<uint8_t>>>;

    ScriptedDaemon(const std::string &path, Script script) : path_(path)
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
        EXPECT_EQ(::listen(listen_fd_, 1), 0);
        thread_ = std::thread([this, script = std::move(script)] {
            int fd = ::accept(listen_fd_, nullptr, nullptr);
            if (fd < 0)
                return;
            Frame req;
            if (frameReadFd(fd, req, 5000, serveKnownFourcc,
                            kServeMaxPayload, "test") == FrameRead::Ok)
                for (const auto &[fourcc, payload] : script)
                    if (!frameWriteFd(fd, fourcc, kServeVersion, payload))
                        break; // the client hung up mid-script
            ::close(fd);
        });
    }

    ~ScriptedDaemon()
    {
        thread_.join();
        ::close(listen_fd_);
        ::unlink(path_.c_str());
    }

    ScriptedDaemon(const ScriptedDaemon &) = delete;
    ScriptedDaemon &operator=(const ScriptedDaemon &) = delete;

  private:
    std::string path_;
    int listen_fd_ = -1;
    std::thread thread_;
};

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

    /** waitpid with a deadline; returns the exit code, or -1 on
     *  timeout / abnormal death. */
    int
    waitExit(int timeout_ms = 60000)
    {
        for (int waited = 0; waited <= timeout_ms; waited += 50) {
            int status = 0;
            pid_t r = ::waitpid(pid_, &status, WNOHANG);
            if (r == pid_) {
                pid_ = -1;
                return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
            }
            ::usleep(50 * 1000);
        }
        return -1;
    }

    void
    signal(int sig)
    {
        if (pid_ > 0)
            ::kill(pid_, sig);
    }

    pid_t pid() const { return pid_; }

    ~DaemonProc()
    {
        if (pid_ > 0) {
            ::kill(pid_, SIGKILL);
            int status;
            ::waitpid(pid_, &status, 0);
        }
        if (!socket_.empty())
            ::unlink(socket_.c_str());
    }

  private:
    pid_t pid_ = -1;
    std::string socket_;
};

ServeStatus
getStatus(ServeClient &client)
{
    ServeRequest req;
    req.kind = ServeKind::Status;
    ServeClient::Reply r = client.call(req, nullptr, 5000);
    EXPECT_EQ(r.kind, ServeClient::Reply::Kind::Ok);
    return r.status;
}

/**
 * Counters are updated by the worker after the reply frame is
 * written, so a client that races straight to Status can observe the
 * pre-increment value; poll until `pred` holds (or the deadline
 * passes) and return the last snapshot.
 */
template <typename Pred>
ServeStatus
pollStatus(ServeClient &client, Pred pred, int timeout_ms = 30000)
{
    ServeStatus s = getStatus(client);
    for (int waited = 0; !pred(s) && waited < timeout_ms;
         waited += 50) {
        ::usleep(50 * 1000);
        s = getStatus(client);
    }
    return s;
}

} // namespace

// ---------------------------------------------------------------
// Protocol codec
// ---------------------------------------------------------------

TEST(ServeProtocol, RequestRoundTripAllKinds)
{
    ServeRequest g;
    g.kind = ServeKind::Gemm;
    g.priority = ServePriority::High;
    g.deadlineMs = 1234;
    g.gemm.mr = 2;
    g.gemm.nrVecs = 3;
    g.gemm.kSteps = 77;
    g.gemm.bsSparsity = 0.4;
    g.cores = 3;
    g.vpus = 1;
    ServeRequest g2 =
        serveDecodeRequest(kServeVersion, serveEncodeRequest(g));
    EXPECT_EQ(g2.kind, ServeKind::Gemm);
    EXPECT_EQ(g2.priority, ServePriority::High);
    EXPECT_EQ(g2.deadlineMs, 1234u);
    EXPECT_EQ(g2.gemm.mr, 2);
    EXPECT_EQ(g2.gemm.kSteps, 77);
    EXPECT_DOUBLE_EQ(g2.gemm.bsSparsity, 0.4);
    EXPECT_EQ(g2.cores, 3);
    EXPECT_EQ(g2.vpus, 1);

    ServeRequest f;
    f.kind = ServeKind::Fig14;
    f.priority = ServePriority::Low;
    f.deadlineMs = 4500;
    f.fig14.gridStep = 9;
    f.fig14.kSteps = 8;
    f.fig14.seed = 42;
    f.fig14.isolation = fig14IsolationCode("process");
    f.points = {15, 0, 3};
    ServeRequest f2 =
        serveDecodeRequest(kServeVersion, serveEncodeRequest(f));
    EXPECT_EQ(f2.kind, ServeKind::Fig14);
    EXPECT_EQ(f2.priority, ServePriority::Low);
    EXPECT_EQ(f2.deadlineMs, 4500u);
    EXPECT_EQ(f2.fig14.gridStep, 9);
    EXPECT_EQ(f2.fig14.kSteps, 8);
    EXPECT_EQ(f2.fig14.seed, 42u);
    EXPECT_EQ(fig14IsolationName(f2.fig14.isolation), "process");
    EXPECT_EQ(f2.points, (std::vector<uint32_t>{15, 0, 3}));

    for (ServeKind k :
         {ServeKind::Ping, ServeKind::Status, ServeKind::Drain}) {
        ServeRequest c;
        c.kind = k;
        EXPECT_EQ(
            serveDecodeRequest(kServeVersion, serveEncodeRequest(c))
                .kind,
            k);
    }
}

TEST(ServeProtocol, RejectsVersionSkewTruncationAndTrailingBytes)
{
    ServeRequest r;
    r.kind = ServeKind::Gemm;
    std::vector<uint8_t> p = serveEncodeRequest(r);

    EXPECT_THROW(serveDecodeRequest(kServeVersion + 1, p), TraceError);

    std::vector<uint8_t> trunc(p.begin(), p.begin() + p.size() / 2);
    EXPECT_THROW(serveDecodeRequest(kServeVersion, trunc), TraceError);

    std::vector<uint8_t> trail = p;
    trail.push_back(0);
    EXPECT_THROW(serveDecodeRequest(kServeVersion, trail), TraceError);
}

TEST(ServeProtocol, SweepRequestRejectsSkewTruncationAndBadCounts)
{
    ServeRequest r;
    r.kind = ServeKind::Fig14;
    r.points = {1, 2, 3};
    const std::vector<uint8_t> p = serveEncodeRequest(r);
    ASSERT_EQ(serveDecodeRequest(kServeVersion, p).points, r.points);

    // An older or a newer version is a skew, not a guess.
    EXPECT_THROW(serveDecodeRequest(kServeVersion - 1, p), TraceError);
    EXPECT_THROW(serveDecodeRequest(kServeVersion + 1, p), TraceError);

    std::vector<uint8_t> trunc(p.begin(), p.end() - 4); // last index
    EXPECT_THROW(serveDecodeRequest(kServeVersion, trunc), TraceError);

    std::vector<uint8_t> trail = p;
    trail.push_back(0);
    EXPECT_THROW(serveDecodeRequest(kServeVersion, trail), TraceError);

    // A count larger than the payload is corruption, not an allocation.
    std::vector<uint8_t> huge = p;
    const size_t count_at = p.size() - 4 * (r.points.size() + 1);
    huge[count_at + 3] = 0x7f;
    EXPECT_THROW(serveDecodeRequest(kServeVersion, huge), TraceError);

    // An empty list decodes: the session rejects it, typed (Config).
    r.points.clear();
    EXPECT_TRUE(
        serveDecodeRequest(kServeVersion, serveEncodeRequest(r))
            .points.empty());
}

TEST(ServeProtocol, StatusAndBusyRoundTrip)
{
    ServeStatus s;
    s.accepted = 7;
    s.shed = 3;
    s.reloads = 2;
    ServeStatus s2 = serveDecodeStatus(serveEncodeStatus(s));
    EXPECT_EQ(s2.accepted, 7u);
    EXPECT_EQ(s2.shed, 3u);
    EXPECT_EQ(s2.reloads, 2u);


    ServeBusyInfo b;
    b.reason = "admission queue full (4/4)";
    b.queued = 4;
    b.queueCap = 4;
    ServeBusyInfo b2 = serveDecodeBusy(serveEncodeBusy(b));
    EXPECT_EQ(b2.reason, b.reason);
    EXPECT_EQ(b2.queued, 4u);
}

TEST(ServeProtocol, FrameReadRejectsBitFlipAndTruncation)
{
    ServeRequest r = sweepRequest(quickKnobs());
    std::vector<uint8_t> payload = serveEncodeRequest(r);
    std::vector<uint8_t> frame =
        frameEncode(kServeRequest, kServeVersion, payload);

    // Flipped payload bit: the CRC catches it.
    {
        std::vector<uint8_t> bad = frame;
        bad[kFrameHeaderBytes + 2] ^= 0x10;
        int fds[2];
        ASSERT_EQ(::pipe(fds), 0);
        ASSERT_EQ(writeFull(fds[1], bad.data(), bad.size()),
                  static_cast<ssize_t>(bad.size()));
        ::close(fds[1]);
        Frame f;
        EXPECT_THROW(frameReadFd(fds[0], f, 1000, serveKnownFourcc,
                                 kServeMaxPayload, "serve"),
                     TraceError);
        ::close(fds[0]);
    }

    // Truncated mid-frame: EOF inside the payload is corruption, not
    // a clean EOF.
    {
        int fds[2];
        ASSERT_EQ(::pipe(fds), 0);
        ASSERT_EQ(writeFull(fds[1], frame.data(), frame.size() - 3),
                  static_cast<ssize_t>(frame.size() - 3));
        ::close(fds[1]);
        Frame f;
        EXPECT_THROW(frameReadFd(fds[0], f, 1000, serveKnownFourcc,
                                 kServeMaxPayload, "serve"),
                     TraceError);
        ::close(fds[0]);
    }

    // Unknown fourcc is rejected before the payload is read.
    {
        std::vector<uint8_t> bad =
            frameEncode(frameFourcc('J', 'U', 'N', 'K'), 0, payload);
        int fds[2];
        ASSERT_EQ(::pipe(fds), 0);
        ASSERT_EQ(writeFull(fds[1], bad.data(), bad.size()),
                  static_cast<ssize_t>(bad.size()));
        ::close(fds[1]);
        Frame f;
        EXPECT_THROW(frameReadFd(fds[0], f, 1000, serveKnownFourcc,
                                 kServeMaxPayload, "serve"),
                     TraceError);
        ::close(fds[0]);
    }
}

// ---------------------------------------------------------------
// Daemon end-to-end
// ---------------------------------------------------------------

TEST(ServeDaemon, PingStatusAndGracefulDrain)
{
    std::string sock = socketPath("basic");
    DaemonProc d;
    d.start(sock, {"--workers=1", "--queue-cap=2", "--cache-dir=none"});
    ASSERT_TRUE(d.waitReady());

    ServeClient client(sock);
    ServeStatus s = getStatus(client);
    EXPECT_EQ(s.version, kServeVersion);
    EXPECT_EQ(s.workers, 1u);
    EXPECT_EQ(s.queueCap, 2u);
    EXPECT_EQ(s.draining, 0u);

    ServeRequest drain;
    drain.kind = ServeKind::Drain;
    ServeClient::Reply r = client.call(drain, nullptr, 5000);
    EXPECT_EQ(r.kind, ServeClient::Reply::Kind::Ok);
    EXPECT_EQ(d.waitExit(), 0);
}

TEST(ServeDaemon, GemmServedAndWarmRepeatHitsCas)
{
    TempDir cache("gemmcas");
    std::string sock = socketPath("gemm");
    DaemonProc d;
    d.start(sock, {"--workers=2", "--queue-cap=4",
                   "--cache-dir=" + cache.path()});
    ASSERT_TRUE(d.waitReady());

    ServeClient client(sock);
    ServeRequest req;
    req.kind = ServeKind::Gemm;
    req.gemm.kSteps = 24;
    req.gemm.tiles = 1;
    req.gemm.bsSparsity = 0.3;
    req.gemm.seed = 11;

    ServeClient::Reply first = client.call(req, nullptr, 60000);
    ASSERT_EQ(first.kind, ServeClient::Reply::Kind::Ok);
    EXPECT_GT(first.gemm.timeNs, 0.0);
    EXPECT_GT(first.gemm.cycles, 0u);

    // The warm repeat must answer from the content-addressed store
    // (O(1)) and be bit-identical to the simulation it replaces.
    ServeClient::Reply second = client.call(req, nullptr, 60000);
    ASSERT_EQ(second.kind, ServeClient::Reply::Kind::Ok);
    EXPECT_EQ(std::memcmp(&first.gemm.timeNs, &second.gemm.timeNs,
                          sizeof(double)),
              0);
    EXPECT_EQ(first.gemm.cycles, second.gemm.cycles);
    EXPECT_EQ(first.gemm.stats, second.gemm.stats);

    ServeStatus s = pollStatus(
        client, [](const ServeStatus &st) { return st.completed >= 2; });
    EXPECT_GE(s.casHits, 1u);
    EXPECT_GE(s.casInserts, 1u);
    EXPECT_EQ(s.completed, 2u);
}

TEST(ServeDaemon, ConcurrentClients)
{
    std::string sock = socketPath("conc");
    DaemonProc d;
    d.start(sock, {"--workers=2", "--queue-cap=16", "--cache-dir=none"});
    ASSERT_TRUE(d.waitReady());

    constexpr int kClients = 4;
    std::atomic<int> ok{0};
    std::vector<std::thread> threads;
    for (int i = 0; i < kClients; ++i) {
        threads.emplace_back([&, i] {
            ServeClient client(sock);
            ServeRequest req;
            req.kind = ServeKind::Gemm;
            req.gemm.kSteps = 16;
            req.gemm.tiles = 1;
            req.gemm.seed = static_cast<uint64_t>(100 + i);
            ServeClient::Reply r = client.call(req, nullptr, 120000);
            if (r.kind == ServeClient::Reply::Kind::Ok &&
                r.gemm.timeNs > 0)
                ok.fetch_add(1);
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(ok.load(), kClients);
}

TEST(ServeDaemon, QueueFullShedsWithTypedBusy)
{
    std::string sock = socketPath("shed");
    DaemonProc d;
    d.start(sock, {"--workers=1", "--queue-cap=1", "--cache-dir=none"});
    ASSERT_TRUE(d.waitReady());

    // Occupy the single worker with a multi-second sweep.
    std::thread blocker([&] {
        ServeClient client(sock);
        ServeRequest req = sweepRequest(quickKnobs());
        req.fig14.gridStep = 3;
        req.fig14.kSteps = 64;
        req.fig14.tiles = 4;
        client.call(req, nullptr, 300000);
    });

    ServeClient client(sock);
    ASSERT_GE(pollStatus(client,
                         [](const ServeStatus &s) {
                             return s.active >= 1;
                         })
                  .active,
              1u);

    ServeRequest req;
    req.kind = ServeKind::Gemm;
    req.gemm.kSteps = 16;
    req.gemm.tiles = 1;

    // Fill the single queue slot, and wait until the daemon reports
    // it occupied...
    std::thread queued([&] {
        ServeClient c2(sock);
        ServeRequest q = req;
        q.gemm.seed = 200;
        c2.call(q, nullptr, 300000);
    });
    ASSERT_GE(pollStatus(client,
                         [](const ServeStatus &s) {
                             return s.queued >= 1;
                         })
                  .queued,
              1u);

    // ...so further submissions must be shed with a typed BUSY
    // reply, never a hang.
    int busy = 0;
    for (int i = 0; i < 20 && busy == 0; ++i) {
        ServeRequest q = req;
        q.gemm.seed = static_cast<uint64_t>(300 + i);
        ServeClient::Reply r = client.call(q, nullptr, 300000);
        if (r.kind == ServeClient::Reply::Kind::Busy) {
            ++busy;
            EXPECT_NE(r.busy.reason.find("queue full"),
                      std::string::npos);
            EXPECT_GE(r.busy.queueCap, 1u);
        }
    }
    blocker.join();
    queued.join();
    EXPECT_GE(busy, 1);
    EXPECT_GE(getStatus(client).shed, 1u);
}

TEST(ServeDaemon, MidSweepClientDisconnectKeepsServing)
{
    std::string sock = socketPath("disc");
    DaemonProc d;
    d.start(sock, {"--workers=1", "--queue-cap=4", "--cache-dir=none"});
    ASSERT_TRUE(d.waitReady());

    // Raw client: submit a sweep, then vanish without reading.
    {
        struct sockaddr_un addr;
        std::memset(&addr, 0, sizeof(addr));
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, sock.c_str(),
                     sizeof(addr.sun_path) - 1);
        int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        ASSERT_GE(fd, 0);
        ASSERT_EQ(::connect(fd,
                            reinterpret_cast<struct sockaddr *>(&addr),
                            sizeof(addr)),
                  0);
        ServeRequest req = sweepRequest(quickKnobs());
        ASSERT_TRUE(frameWriteFd(fd, kServeRequest, kServeVersion,
                                 serveEncodeRequest(req)));
        ::close(fd);
    }

    // The daemon must notice (pre-execution probe or the first ack
    // write) and move on to the next client.
    ServeClient client(sock);
    for (int waited = 0; waited < 120000; waited += 100) {
        if (getStatus(client).errors >= 1)
            break;
        ::usleep(100 * 1000);
    }
    EXPECT_GE(getStatus(client).errors, 1u);

    ServeRequest gemm;
    gemm.kind = ServeKind::Gemm;
    gemm.gemm.kSteps = 16;
    gemm.gemm.tiles = 1;
    ServeClient::Reply r = client.call(gemm, nullptr, 120000);
    EXPECT_EQ(r.kind, ServeClient::Reply::Kind::Ok);
}

TEST(ServeDaemon, DrainWaitsForInflightWork)
{
    std::string sock = socketPath("drain");
    DaemonProc d;
    d.start(sock, {"--workers=1", "--queue-cap=4", "--cache-dir=none"});
    ASSERT_TRUE(d.waitReady());

    std::atomic<bool> sweep_ok{false};
    std::thread inflight([&] {
        ServeClient client(sock);
        ServeRequest req = sweepRequest(quickKnobs());
        req.fig14.kSteps = 64; // slow enough to still be in flight
        req.fig14.tiles = 2;
        ServedSweep r = serveSweep(client, req, 300000);
        if (r.reply.kind == ServeClient::Reply::Kind::Ok &&
            r.acks == static_cast<int>(fig14Points().size()))
            sweep_ok.store(true);
    });

    ServeClient client(sock);
    ASSERT_GE(pollStatus(client,
                         [](const ServeStatus &s) {
                             return s.active >= 1;
                         })
                  .active,
              1u);

    ServeRequest drain;
    drain.kind = ServeKind::Drain;
    EXPECT_EQ(client.call(drain, nullptr, 5000).kind,
              ServeClient::Reply::Kind::Ok);

    // Drain must let the in-flight sweep finish, then exit 0.
    EXPECT_EQ(d.waitExit(300000), 0);
    inflight.join();
    EXPECT_TRUE(sweep_ok.load());
}

TEST(ServeDaemon, SighupReloadsConfig)
{
    TempDir dir("cfg");
    std::string cfg = dir.path() + "/serve.conf";
    {
        FILE *f = std::fopen(cfg.c_str(), "w");
        ASSERT_NE(f, nullptr);
        std::fputs("# serve config\nqueue_cap=5\n", f);
        std::fclose(f);
    }
    std::string sock = socketPath("hup");
    DaemonProc d;
    d.start(sock, {"--workers=1", "--queue-cap=2", "--cache-dir=none",
                   "--config=" + cfg});
    ASSERT_TRUE(d.waitReady());

    ServeClient client(sock);
    EXPECT_EQ(getStatus(client).queueCap, 2u);
    d.signal(SIGHUP);
    for (int waited = 0; waited < 30000; waited += 50) {
        if (getStatus(client).reloads >= 1)
            break;
        ::usleep(50 * 1000);
    }
    ServeStatus s = getStatus(client);
    EXPECT_GE(s.reloads, 1u);
    EXPECT_EQ(s.queueCap, 5u);
}

TEST(ServeDaemon, StaleSocketIsReclaimed)
{
    std::string sock = socketPath("stale");
    DaemonProc d1;
    d1.start(sock, {"--workers=1", "--cache-dir=none"});
    ASSERT_TRUE(d1.waitReady());
    d1.signal(SIGKILL);
    d1.waitExit(30000); // reap; SIGKILL leaves the socket file behind

    struct stat st;
    ASSERT_EQ(::stat(sock.c_str(), &st), 0)
        << "SIGKILL should leave the socket file";

    DaemonProc d2;
    d2.start(sock, {"--workers=1", "--cache-dir=none"});
    EXPECT_TRUE(d2.waitReady())
        << "second daemon should reclaim the stale socket";
}

// ---------------------------------------------------------------
// Acceptance: served == in-process, byte for byte
// ---------------------------------------------------------------

TEST(ServeFig14, ServedReportIsByteIdenticalAndWarmFromCas)
{
    TempDir cache("fig14cas");
    std::string sock = socketPath("fig14");
    DaemonProc d;
    d.start(sock, {"--workers=1", "--queue-cap=4",
                   "--cache-dir=" + cache.path()});
    ASSERT_TRUE(d.waitReady());

    // Served first (cold: populates the shared store).
    ServeClient client(sock);
    const ServeRequest req = sweepRequest(quickKnobs());
    ServedSweep served = serveSweep(client, req, 300000);
    ASSERT_EQ(served.reply.kind, ServeClient::Reply::Kind::Ok);
    EXPECT_EQ(served.acks, static_cast<int>(fig14Points().size()));

    // In-process reference over the SAME store: warm, and the bytes
    // must match exactly.
    std::string ref = inprocReport(cache.path());
    EXPECT_EQ(served.report, ref);

    // save-ctl must print the identical bytes to stdout.
    std::string cmd = std::string(SAVE_CTL_BIN_PATH) +
                      " fig14 --socket=" + sock +
                      " --grid=9 --ksteps=8 --tiles=1 2>/dev/null";
    FILE *p = ::popen(cmd.c_str(), "r");
    ASSERT_NE(p, nullptr);
    std::string ctl_out;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), p)) > 0)
        ctl_out.append(buf, n);
    EXPECT_EQ(::pclose(p), 0);
    EXPECT_EQ(ctl_out, ref);

    // The cold sweep populated the shared store.
    ServeStatus s = getStatus(client);
    EXPECT_GE(s.casInserts, 1u);

    // A FRESH daemon on the same cache dir has a cold in-memory
    // estimator but a warm store: the repeat sweep must be answered
    // from the CAS (hits, not re-simulation) and still byte-match.
    ServeRequest drain;
    drain.kind = ServeKind::Drain;
    EXPECT_EQ(client.call(drain, nullptr, 5000).kind,
              ServeClient::Reply::Kind::Ok);
    EXPECT_EQ(d.waitExit(60000), 0);

    std::string sock2 = socketPath("fig14b");
    DaemonProc d2;
    d2.start(sock2, {"--workers=1", "--queue-cap=4",
                     "--cache-dir=" + cache.path()});
    ASSERT_TRUE(d2.waitReady());
    ServeClient client2(sock2);
    ServedSweep warm = serveSweep(client2, req, 300000);
    ASSERT_EQ(warm.reply.kind, ServeClient::Reply::Kind::Ok);
    EXPECT_EQ(warm.report, ref);
    ServeStatus s2 = getStatus(client2);
    EXPECT_GE(s2.casHits, 1u);
}

TEST(ServeFig14, ByteIdenticalAcrossIsolationNoneAndProcess)
{
    std::string ref = inprocReport("");

    std::string sock = socketPath("iso");
    DaemonProc d;
    d.start(sock, {"--workers=1", "--queue-cap=4", "--cache-dir=none",
                   "--worker-bin=" SAVE_WORKER_BIN_PATH});
    ASSERT_TRUE(d.waitReady());

    ServeClient client(sock);
    for (const char *iso : {"none", "process"}) {
        ServeRequest req = sweepRequest(quickKnobs());
        req.fig14.isolation = fig14IsolationCode(iso);
        ServedSweep r = serveSweep(client, req, 600000);
        ASSERT_EQ(r.reply.kind, ServeClient::Reply::Kind::Ok)
            << "isolation=" << iso << ": " << r.reply.error.what;
        EXPECT_EQ(r.report, ref) << "isolation=" << iso;
    }
}

TEST(ServeDaemon, DeadlineExceededReturnsTypedError)
{
    std::string sock = socketPath("deadline");
    DaemonProc d;
    d.start(sock, {"--workers=1", "--queue-cap=4", "--cache-dir=none"});
    ASSERT_TRUE(d.waitReady());

    ServeClient client(sock);
    ServeRequest req = sweepRequest(quickKnobs());
    req.deadlineMs = 1; // expires before the sweep can finish
    ServeClient::Reply r = client.call(req, nullptr, 300000);
    EXPECT_EQ(r.kind, ServeClient::Reply::Kind::Error);
    EXPECT_NE(r.error.what.find("deadline"), std::string::npos);

    // The daemon survives and keeps serving.
    ServeRequest ping;
    ping.kind = ServeKind::Ping;
    EXPECT_EQ(client.call(ping, nullptr, 5000).kind,
              ServeClient::Reply::Kind::Ok);
}

TEST(ServeFig14, BadPointListGetsTypedConfigErrorAndNoAck)
{
    std::string sock = socketPath("badlist");
    DaemonProc d;
    d.start(sock, {"--workers=1", "--queue-cap=4", "--cache-dir=none"});
    ASSERT_TRUE(d.waitReady());

    ServeClient client(sock);
    const uint32_t n = static_cast<uint32_t>(fig14Points().size());
    for (const std::vector<uint32_t> &list :
         {std::vector<uint32_t>{}, std::vector<uint32_t>{0, n},
          std::vector<uint32_t>{n + 100}}) {
        ServeRequest req = sweepRequest(quickKnobs());
        req.points = list;
        int acks = 0;
        ServeClient::Reply r = client.call(
            req, [&](const ServeShardAck &) { ++acks; }, 60000);
        EXPECT_EQ(r.kind, ServeClient::Reply::Kind::Error)
            << list.size() << " point(s)";
        EXPECT_EQ(r.error.kind, WireErrorKind::Config) << r.error.what;
        // Rejected up front: not even the valid leading point acks.
        EXPECT_EQ(acks, 0) << r.error.what;
    }
}

TEST(ServeFig14, MultiPointRequestAcksInOrderAndSimulatesEachSliceOnce)
{
    TempDir cache("points");
    std::string sock = socketPath("points");
    DaemonProc d;
    d.start(sock, {"--workers=1", "--queue-cap=4", "--threads=2",
                   "--cache-dir=" + cache.path()});
    ASSERT_TRUE(d.waitReady());

    // Inference and training of the same networks share slices, so
    // the list's distinct slices are fewer than its per-point sum.
    SimSession::Options so;
    so.runtime.cacheDir = "none";
    so.runtime.threads = 2;
    SimSession ref(std::move(so));
    ServeRequest req = sweepRequest(quickKnobs());
    req.points = {8, 0, 15, 3, 7};
    std::vector<uint32_t> acked;
    ServeClient client(sock);
    ServeClient::Reply r = client.call(
        req,
        [&](const ServeShardAck &a) {
            acked.push_back(a.index);
            EXPECT_EQ(a.key, fig14Points().at(a.index).key);
            const NetResult want =
                ref.runFig14Point(quickKnobs(), static_cast<int>(a.index));
            EXPECT_EQ(std::memcmp(&a.result, &want, sizeof(NetResult)), 0)
                << "point " << a.index;
        },
        300000);
    ASSERT_EQ(r.kind, ServeClient::Reply::Kind::Ok) << r.error.what;
    EXPECT_EQ(acked, req.points);

    // On a fresh store every distinct slice missed, simulated and
    // landed exactly once: one miss and one insert per record.
    ServeStatus s = pollStatus(client, [](const ServeStatus &st) {
        return st.completed >= 1;
    });
    const uint64_t records =
        ResultStore(ResultStore::Options{cache.path(), 0}).records();
    EXPECT_GT(records, 0u);
    EXPECT_EQ(s.casMisses, records);
    EXPECT_EQ(s.casInserts, records);
    EXPECT_EQ(s.casHits, 0u);
}

TEST(ServeFig14, SaveCtlExitsOneOnPoisonedAcks)
{
    // A daemon whose acks carry a NaN-poisoned point (a slice it failed
    // permanently): save-ctl still prints the report, then fails the
    // sweep by the ledger's rule and exits 1.
    std::vector<NetResult> results(fig14Points().size());
    ScriptedDaemon::Script script;
    for (uint32_t i = 0; i < results.size(); ++i) {
        results[i].save2.forward = 1.0 + i;
        if (i == 3)
            results[i].save1.bwdInput =
                std::numeric_limits<double>::quiet_NaN();
        ServeShardAck a;
        a.index = i;
        a.key = fig14Points()[i].key;
        a.result = results[i];
        script.emplace_back(kServePointAck, serveEncodeShardAck(a));
    }
    script.emplace_back(kServeResult, std::vector<uint8_t>{});
    const std::string sock = socketPath("poison");
    ScriptedDaemon d(sock, script);

    const std::string cmd = std::string(SAVE_CTL_BIN_PATH) +
                            " fig14 --socket=" + sock +
                            " --grid=9 --ksteps=8 --tiles=1 2>/dev/null";
    FILE *p = ::popen(cmd.c_str(), "r");
    ASSERT_NE(p, nullptr);
    std::string out;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), p)) > 0)
        out.append(buf, n);
    const int status = ::pclose(p);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 1);
    EXPECT_EQ(out, fig14Report(results));
}

TEST(ServeClient, AcksMustFollowTheRequestedListAndPrecedeTheResult)
{
    auto ack = [](uint32_t idx) {
        ServeShardAck a;
        a.index = idx;
        a.key = fig14Points().at(idx).key;
        return std::make_pair(kServePointAck, serveEncodeShardAck(a));
    };
    const std::pair<uint32_t, std::vector<uint8_t>> done{kServeResult,
                                                         {}};
    ServeRequest req = sweepRequest(quickKnobs());
    req.points = {4, 2};
    const std::vector<ScriptedDaemon::Script> bad = {
        {ack(2), ack(4), done},         // out of list order
        {ack(4), ack(9), done},         // a point nobody asked for
        {ack(4), ack(4), ack(2), done}, // a duplicate
        {ack(4), done},                 // a result before every ack
        {ack(4), ack(2), ack(2), done}, // one ack too many
    };
    for (size_t i = 0; i < bad.size(); ++i) {
        std::string sock = socketPath("script");
        ScriptedDaemon d(sock, bad[i]);
        ServeClient client(sock);
        EXPECT_THROW(client.call(req, nullptr, 5000), TraceError)
            << "script " << i;
    }

    // The well-formed script hands both acks over, in list order.
    std::string sock = socketPath("script");
    ScriptedDaemon d(sock, {ack(4), ack(2), done});
    ServeClient client(sock);
    std::vector<uint32_t> seen;
    EXPECT_EQ(client
                  .call(req,
                        [&](const ServeShardAck &a) {
                            seen.push_back(a.index);
                        },
                        5000)
                  .kind,
              ServeClient::Reply::Kind::Ok);
    EXPECT_EQ(seen, req.points);
}
