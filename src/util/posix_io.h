/**
 * @file
 * EINTR-safe POSIX I/O helpers.
 *
 * Raw read(2)/write(2) may transfer fewer bytes than asked (signals,
 * pipe buffers) and fail spuriously with EINTR; std::fread/fwrite hide
 * the partial-transfer case but not the interruption semantics of
 * pipes. Every file and pipe transfer in the harness goes through
 * these loops instead: they retry on EINTR, continue after short
 * transfers, and make end-of-file, success, and hard errors
 * distinguishable. Used by the sweep journal, the result store, and
 * the out-of-process worker wire codec (src/proc).
 */

#ifndef SAVE_UTIL_POSIX_IO_H
#define SAVE_UTIL_POSIX_IO_H

#include <cerrno>
#include <chrono>
#include <cstddef>
#include <cstring>
#include <string>

#include <fcntl.h>
#include <poll.h>
#include <sys/stat.h>
#include <unistd.h>

namespace save {

/**
 * Read exactly `n` bytes unless EOF intervenes. Retries EINTR and
 * short reads. Returns the byte count actually read: `n` on success,
 * less on a premature EOF, or -1 with errno set on a hard error.
 */
inline ssize_t
readFull(int fd, void *buf, size_t n)
{
    size_t done = 0;
    while (done < n) {
        ssize_t r = ::read(fd, static_cast<char *>(buf) + done,
                           n - done);
        if (r < 0) {
            if (errno == EINTR)
                continue;
            return -1;
        }
        if (r == 0)
            break; // EOF
        done += static_cast<size_t>(r);
    }
    return static_cast<ssize_t>(done);
}

/**
 * Write exactly `n` bytes. Retries EINTR and short writes. Returns
 * `n` on success or -1 with errno set (EPIPE when the reader is gone
 * and SIGPIPE is ignored).
 */
inline ssize_t
writeFull(int fd, const void *buf, size_t n)
{
    size_t done = 0;
    while (done < n) {
        ssize_t r = ::write(fd, static_cast<const char *>(buf) + done,
                            n - done);
        if (r < 0) {
            if (errno == EINTR)
                continue;
            return -1;
        }
        done += static_cast<size_t>(r);
    }
    return static_cast<ssize_t>(n);
}

/**
 * Wait until `fd` is readable. `timeout_ms` < 0 waits forever.
 * Returns 1 when readable (or at EOF/hangup — a read will not block),
 * 0 on timeout, -1 with errno set on a hard error. An EINTR wakeup
 * restarts the poll with the REMAINING budget, not the original one:
 * a signal storm (SIGHUP reloads against a serving daemon) can
 * neither extend the deadline indefinitely nor shave it short.
 */
inline int
pollReadable(int fd, int timeout_ms)
{
    struct pollfd p;
    p.fd = fd;
    p.events = POLLIN;
    p.revents = 0;
    if (timeout_ms < 0) {
        for (;;) {
            int r = ::poll(&p, 1, -1);
            if (r < 0 && errno == EINTR)
                continue;
            return r < 0 ? -1 : 1;
        }
    }
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    int wait = timeout_ms;
    for (;;) {
        int r = ::poll(&p, 1, wait);
        if (r < 0 && errno == EINTR) {
            auto left =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    deadline - std::chrono::steady_clock::now())
                    .count();
            // A final zero-timeout poll settles "became readable at
            // the deadline" vs "timed out" without blocking again.
            wait = left < 0 ? 0 : static_cast<int>(left);
            continue;
        }
        if (r <= 0)
            return r;
        return 1; // POLLIN, POLLHUP or POLLERR: read() will not block
    }
}

/**
 * Slurp a whole regular file through readFull. Returns false with a
 * human-readable `why` (when non-null) if the file cannot be opened
 * or read; short reads against the initial size (file shrank) are
 * returned as-is.
 */
inline bool
readFileBytes(const std::string &path, std::string &out,
              std::string *why = nullptr)
{
    out.clear();
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
        if (why)
            *why = "cannot open " + path + ": " + std::strerror(errno);
        return false;
    }
    struct stat st;
    if (::fstat(fd, &st) != 0) {
        if (why)
            *why = "cannot stat " + path + ": " + std::strerror(errno);
        ::close(fd);
        return false;
    }
    out.resize(static_cast<size_t>(st.st_size));
    ssize_t got = readFull(fd, out.empty() ? nullptr : &out[0],
                           out.size());
    ::close(fd);
    if (got < 0) {
        if (why)
            *why = "cannot read " + path + ": " + std::strerror(errno);
        out.clear();
        return false;
    }
    out.resize(static_cast<size_t>(got));
    return true;
}

/**
 * Write a whole file through writeFull (O_CREAT|O_TRUNC, mode 0644).
 * Returns false with `why` on any failure; the partial file is left
 * for the caller's temp-file/rename protocol to discard.
 */
inline bool
writeFileBytes(const std::string &path, const void *data, size_t n,
               std::string *why = nullptr)
{
    int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) {
        if (why)
            *why = "cannot create " + path + ": " + std::strerror(errno);
        return false;
    }
    ssize_t put = writeFull(fd, data, n);
    int close_rc = ::close(fd);
    if (put < 0 || close_rc != 0) {
        if (why)
            *why = "cannot write " + path + ": " + std::strerror(errno);
        return false;
    }
    return true;
}

} // namespace save

#endif // SAVE_UTIL_POSIX_IO_H
