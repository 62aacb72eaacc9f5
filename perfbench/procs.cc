#include "procs.h"

#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#include "serve/client.h"
#include "util/error.h"

extern char **environ;

namespace perfbench {

namespace {

struct ProcStat
{
    pid_t ppid = 0;
    double cpu = 0; ///< utime + stime + cutime + cstime, seconds
};

bool
readProcStat(pid_t pid, ProcStat &out)
{
    std::ifstream f("/proc/" + std::to_string(pid) + "/stat");
    std::string line;
    if (!std::getline(f, line))
        return false;
    // The command name may hold spaces; fields resume after the last ')'.
    size_t rp = line.rfind(')');
    if (rp == std::string::npos)
        return false;
    std::istringstream is(line.substr(rp + 2));
    std::string state;
    long long ppid = 0;
    is >> state >> ppid;
    std::string skip;
    for (int i = 0; i < 9; ++i) // fields 6..14 precede utime
        is >> skip;
    unsigned long long ut = 0, st = 0;
    long long cut = 0, cst = 0;
    is >> ut >> st >> cut >> cst;
    if (!is)
        return false;
    static const double tick = static_cast<double>(sysconf(_SC_CLK_TCK));
    out.ppid = static_cast<pid_t>(ppid);
    out.cpu = static_cast<double>(ut + st) / tick +
              static_cast<double>(cut + cst) / tick;
    return true;
}

std::map<pid_t, ProcStat>
allProcs()
{
    std::map<pid_t, ProcStat> procs;
    DIR *d = opendir("/proc");
    if (!d)
        return procs;
    while (dirent *e = readdir(d)) {
        char *end = nullptr;
        long pid = std::strtol(e->d_name, &end, 10);
        if (*end != '\0' || pid <= 0)
            continue;
        ProcStat s;
        if (readProcStat(static_cast<pid_t>(pid), s))
            procs[static_cast<pid_t>(pid)] = s;
    }
    closedir(d);
    return procs;
}

std::vector<pid_t>
descendantsOf(const std::map<pid_t, ProcStat> &procs, pid_t root)
{
    std::vector<pid_t> out;
    std::vector<pid_t> frontier{root};
    while (!frontier.empty()) {
        pid_t p = frontier.back();
        frontier.pop_back();
        for (const auto &[pid, st] : procs)
            if (st.ppid == p) {
                out.push_back(pid);
                frontier.push_back(pid);
            }
    }
    return out;
}

double
rusageCpu(int who)
{
    rusage ru{};
    getrusage(who, &ru);
    auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double
vmHwmMb(pid_t pid)
{
    std::ifstream f("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(f, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::atof(line.c_str() + 6) / 1024.0; // kB
    return 0;
}

} // namespace

void
becomeSubreaper()
{
    if (prctl(PR_SET_CHILD_SUBREAPER, 1) != 0)
        throw save::SimError("prctl(PR_SET_CHILD_SUBREAPER) failed");
}

std::vector<pid_t>
liveDescendants()
{
    return descendantsOf(allProcs(), getpid());
}

double
treeCpuSeconds()
{
    // Live descendants first: a child reaped between the two reads is
    // then counted twice rather than lost, and the passes only read
    // this at quiet points where nothing is exiting.
    std::map<pid_t, ProcStat> procs = allProcs();
    double cpu = 0;
    for (pid_t p : descendantsOf(procs, getpid()))
        cpu += procs[p].cpu;
    return cpu + rusageCpu(RUSAGE_SELF) + rusageCpu(RUSAGE_CHILDREN);
}

double
descendantsSchedCpuSeconds()
{
    double cpu = 0;
    for (pid_t p : liveDescendants()) {
        const std::string task = "/proc/" + std::to_string(p) + "/task";
        DIR *d = opendir(task.c_str());
        if (!d)
            continue;
        while (dirent *e = readdir(d)) {
            if (e->d_name[0] == '.')
                continue;
            std::ifstream f(task + "/" + e->d_name + "/schedstat");
            unsigned long long ns = 0;
            if (f >> ns)
                cpu += static_cast<double>(ns) * 1e-9;
        }
        closedir(d);
    }
    return cpu;
}

double
treePeakRssMb()
{
    rusage self{}, kids{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &kids);
    double mb = std::max(self.ru_maxrss, kids.ru_maxrss) / 1024.0;
    for (pid_t p : liveDescendants())
        mb = std::max(mb, vmHwmMb(p));
    return mb;
}

int
killAndReapDescendants()
{
    int leaked = 0;
    for (int round = 0; round < 50; ++round) {
        while (waitpid(-1, nullptr, WNOHANG) > 0) {
        }
        std::map<pid_t, ProcStat> procs = allProcs();
        std::vector<pid_t> live = descendantsOf(procs, getpid());
        if (live.empty())
            return leaked;
        if (round == 0)
            leaked = static_cast<int>(live.size());
        for (pid_t p : live)
            kill(p, SIGKILL);
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return leaked;
}

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

namespace {

/** posix_spawn with stdin and stdout on /dev/null; stderr goes to `log`,
 *  or is inherited when `log` is empty. */
pid_t
spawn(const std::string &bin, const std::vector<std::string> &args,
      const std::string &log)
{
    std::vector<std::string> argv_s{bin};
    argv_s.insert(argv_s.end(), args.begin(), args.end());
    std::vector<char *> argv;
    for (std::string &s : argv_s)
        argv.push_back(s.data());
    argv.push_back(nullptr);

    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, STDIN_FILENO, "/dev/null",
                                     O_RDONLY, 0);
    posix_spawn_file_actions_addopen(&fa, STDOUT_FILENO, "/dev/null",
                                     O_WRONLY, 0);
    if (!log.empty())
        posix_spawn_file_actions_addopen(&fa, STDERR_FILENO, log.c_str(),
                                         O_WRONLY | O_CREAT | O_TRUNC, 0644);
    pid_t pid = -1;
    int rc = posix_spawn(&pid, bin.c_str(), &fa, nullptr, argv.data(),
                         environ);
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0)
        throw save::SimError("cannot spawn " + bin);
    return pid;
}

} // namespace

double
runChild(const std::string &bin, const std::vector<std::string> &args,
         int &exitCode)
{
    double t0 = nowSeconds();
    pid_t pid = spawn(bin, args, "");
    int status = 0;
    waitpid(pid, &status, 0);
    double dt = nowSeconds() - t0;
    exitCode = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    return dt;
}

Daemon::Daemon(const std::string &bin, const std::vector<std::string> &args,
               const std::string &socket, const std::string &log)
    : socket_(socket), log_(log)
{
    spawned_ = nowSeconds();
    pid_ = spawn(bin, args, log);
}

Daemon::~Daemon()
{
    if (pid_ > 0) {
        kill(pid_, SIGKILL);
        waitpid(pid_, nullptr, 0);
    }
}

double
Daemon::waitReady(int timeout_ms)
{
    save::ServeRequest ping;
    ping.kind = save::ServeKind::Ping;
    const double deadline = spawned_ + timeout_ms / 1000.0;
    while (nowSeconds() < deadline) {
        try {
            save::ServeClient::Reply r =
                save::ServeClient(socket_).call(ping, nullptr, 1000);
            if (r.kind == save::ServeClient::Reply::Kind::Ok)
                return (nowSeconds() - spawned_) * 1e3;
        } catch (const save::SimError &) {
            // Not listening yet.
        }
        int status = 0;
        if (waitpid(pid_, &status, WNOHANG) == pid_) {
            pid_ = -1;
            throw save::SimError("save-serve exited before it was ready; "
                                 "see " + log_);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    throw save::SimError("save-serve not ready after " +
                         std::to_string(timeout_ms) + " ms; see " + log_);
}

save::ServeStatus
Daemon::status()
{
    save::ServeRequest req;
    req.kind = save::ServeKind::Status;
    save::ServeClient::Reply r =
        save::ServeClient(socket_).call(req, nullptr, 10000);
    if (r.kind != save::ServeClient::Reply::Kind::Ok)
        throw save::SimError("save-serve status request failed");
    return r.status;
}

void
Daemon::drain(int timeout_ms)
{
    save::ServeRequest req;
    req.kind = save::ServeKind::Drain;
    save::ServeClient::Reply r =
        save::ServeClient(socket_).call(req, nullptr, timeout_ms);
    if (r.kind != save::ServeClient::Reply::Kind::Ok)
        throw save::SimError("save-serve refused the drain request");
    const double deadline = nowSeconds() + timeout_ms / 1000.0;
    int status = 0;
    while (waitpid(pid_, &status, WNOHANG) == 0) {
        if (nowSeconds() > deadline)
            throw save::SimError("save-serve did not exit after drain");
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
        throw save::SimError("save-serve exited abnormally after drain; "
                             "see " + log_);
}

} // namespace perfbench
