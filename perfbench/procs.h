/**
 * @file
 * Process-tree accounting and child lifetime for the Fig. 14 sweep
 * benchmark.
 *
 * The driver marks itself a child subreaper, so every save-worker and
 * save-serve descendant is either a live process in its tree or, once
 * reaped, part of its RUSAGE_CHILDREN totals. That makes the CPU and
 * peak-RSS figures cover the whole sweep (driver + workers + daemon)
 * and lets the run fail when a child outlives it.
 */

#ifndef PERFBENCH_PROCS_H
#define PERFBENCH_PROCS_H

#include <sys/types.h>

#include <string>
#include <vector>

#include "serve/protocol.h"

namespace perfbench {

/** Become the reaper of orphaned descendants (PR_SET_CHILD_SUBREAPER). */
void becomeSubreaper();

/** Live (non-reaped) descendants of this process, zombies included. */
std::vector<pid_t> liveDescendants();

/** User+sys CPU seconds of this process, its reaped children, and
 *  every live descendant (with their own reaped children). */
double treeCpuSeconds();

/** CPU seconds of every live descendant's threads, at nanosecond
 *  resolution (/proc/<pid>/task/<tid>/schedstat); for short spans. */
double descendantsSchedCpuSeconds();

/** Peak RSS in MB over this process and every descendant, live or
 *  reaped. */
double treePeakRssMb();

/** Reap finished children; SIGKILL and reap any still alive. Returns
 *  how many descendants were still running (a leak). */
int killAndReapDescendants();

/** Spawns `bin args...` (stdout to /dev/null, stderr inherited) and
 *  waits for it; returns wall seconds from spawn to exit and sets
 *  `exitCode` (-1 when it did not exit normally). */
double runChild(const std::string &bin, const std::vector<std::string> &args,
                int &exitCode);

/** Wall-clock seconds on the steady clock. */
double nowSeconds();

/**
 * One save-serve daemon child, spawned with posix_spawn and stderr
 * redirected to a log file. The destructor SIGKILLs and reaps a daemon
 * that was not drained.
 */
class Daemon
{
  public:
    Daemon(const std::string &bin, const std::vector<std::string> &args,
           const std::string &socket, const std::string &log);
    ~Daemon();

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** Ping until the daemon answers; returns milliseconds from spawn.
     *  Throws SimError past `timeout_ms`. */
    double waitReady(int timeout_ms);

    save::ServeStatus status();

    /** Drain over ServeClient, then wait for exit status 0. Throws
     *  SimError on a failed drain or a nonzero exit. */
    void drain(int timeout_ms);

    const std::string &socket() const { return socket_; }

  private:
    std::string socket_;
    std::string log_;
    pid_t pid_ = -1;
    double spawned_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_PROCS_H
