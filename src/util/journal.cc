#include "util/journal.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include <fcntl.h>
#include <unistd.h>

#include "util/error.h"
#include "util/logging.h"
#include "util/posix_io.h"

namespace save {

namespace {

constexpr const char *kMagic = "SAVEJRNL";
constexpr int kFormatVersion = 1;

/** Compaction threshold: rewrite when at least half the loaded
 *  records are superseded duplicates, but never for small files
 *  where the rewrite costs more than the dead bytes. */
constexpr size_t kCompactMinRecords = 16;

std::string
headerLine(uint64_t hash)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s %d %016llx", kMagic,
                  kFormatVersion,
                  static_cast<unsigned long long>(hash));
    return buf;
}

} // namespace

uint64_t
sweepHash(const char *bench, std::initializer_list<int64_t> knobs)
{
    uint64_t h = 1469598103934665603ull;
    auto mix_byte = [&h](unsigned char b) {
        h ^= b;
        h *= 1099511628211ull;
    };
    for (const char *p = bench; *p; ++p)
        mix_byte(static_cast<unsigned char>(*p));
    for (int64_t v : knobs)
        for (int i = 0; i < 8; ++i)
            mix_byte(static_cast<unsigned char>(
                (static_cast<uint64_t>(v) >> (i * 8)) & 0xffu));
    return h;
}

std::string
SweepJournal::encodeBytes(const char *data, size_t n)
{
    static const char *hex = "0123456789abcdef";
    std::string out;
    out.reserve(2 * n);
    for (size_t i = 0; i < n; ++i) {
        unsigned char b = static_cast<unsigned char>(data[i]);
        out.push_back(hex[b >> 4]);
        out.push_back(hex[b & 0xf]);
    }
    return out;
}

bool
SweepJournal::decodeBytes(const std::string &hex, char *out, size_t n)
{
    if (hex.size() != 2 * n)
        return false;
    auto nibble = [](char c) -> int {
        if (c >= '0' && c <= '9')
            return c - '0';
        if (c >= 'a' && c <= 'f')
            return c - 'a' + 10;
        return -1;
    };
    for (size_t i = 0; i < n; ++i) {
        int hi = nibble(hex[2 * i]);
        int lo = nibble(hex[2 * i + 1]);
        if (hi < 0 || lo < 0)
            return false;
        out[i] = static_cast<char>((hi << 4) | lo);
    }
    return true;
}

SweepJournal::SweepJournal(const std::string &path, uint64_t config_hash)
    : path_(path)
{
    if (path_.empty())
        return;

    std::error_code ec;
    auto parent = std::filesystem::path(path_).parent_path();
    if (!parent.empty())
        std::filesystem::create_directories(parent, ec);

    load(config_hash);
    maybeCompact(config_hash);

    bool fresh = !std::filesystem::exists(path_);
    fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd_ < 0)
        throw CacheError(std::string("cannot open sweep journal for "
                                     "append: ") +
                             std::strerror(errno),
                         path_);
    if (fresh)
        appendLine(headerLine(config_hash));
}

SweepJournal::~SweepJournal()
{
    if (fd_ >= 0)
        ::close(fd_);
}

void
SweepJournal::appendLine(const std::string &line)
{
    std::string rec = line + "\n";
    if (writeFull(fd_, rec.data(), rec.size()) !=
        static_cast<ssize_t>(rec.size()))
        throw CacheError(std::string("cannot append to sweep "
                                     "journal: ") +
                             std::strerror(errno),
                         path_);
}

void
SweepJournal::load(uint64_t config_hash)
{
    std::string text;
    if (!readFileBytes(path_, text, nullptr))
        return; // no journal yet: start fresh

    // A record torn by a mid-append kill lacks its trailing '\n', so
    // only the prefix up to the last newline is trusted.
    size_t trusted = text.rfind('\n');
    bool torn_tail = trusted != std::string::npos &&
                     trusted + 1 != text.size();
    if (trusted == std::string::npos) {
        trusted = 0;
        torn_tail = !text.empty();
    } else {
        trusted += 1; // keep the newline inside the trusted prefix
    }

    size_t pos = 0;
    auto next_line = [&](std::string &line) {
        if (pos >= trusted)
            return false;
        size_t nl = text.find('\n', pos);
        line = text.substr(pos, nl - pos);
        pos = nl + 1;
        return true;
    };

    std::string line;
    if (!next_line(line) || line != headerLine(config_hash)) {
        // Different configuration (or not a journal at all): set the
        // old file aside so its points are never replayed here.
        std::error_code ec;
        std::filesystem::rename(path_, path_ + ".stale", ec);
        if (ec)
            std::filesystem::remove(path_, ec);
        SAVE_WARN("sweep journal ", path_,
                  " does not match this configuration; moved to ",
                  path_ + ".stale", " and starting fresh");
        return;
    }

    size_t dropped = torn_tail ? 1 : 0;
    while (next_line(line)) {
        size_t tab = line.find('\t');
        if (tab == std::string::npos || tab == 0) {
            ++dropped;
            continue;
        }
        // Last-wins: a later record for the same key supersedes the
        // earlier one (how a resumed run upgrades a failure marker).
        ++loadedRecords_;
        entries_.insert_or_assign(line.substr(0, tab),
                                  line.substr(tab + 1));
    }
    if (dropped > 0)
        SAVE_WARN("sweep journal ", path_, ": dropped ", dropped,
                  " incomplete record(s) (interrupted write)");
    if (!entries_.empty())
        SAVE_INFORM("sweep journal ", path_, ": resuming with ",
                    entries_.size(), " completed point(s)");
}

void
SweepJournal::maybeCompact(uint64_t config_hash)
{
    const size_t dupes = loadedRecords_ - entries_.size();
    if (loadedRecords_ < kCompactMinRecords ||
        dupes * 2 < loadedRecords_)
        return;

    std::string image = headerLine(config_hash) + "\n";
    for (const auto &[key, payload] : entries_)
        image += key + "\t" + payload + "\n";

    const std::string tmp =
        path_ + ".compact." + std::to_string(::getpid());
    std::string why;
    if (!writeFileBytes(tmp, image.data(), image.size(), &why)) {
        // Best-effort: an uncompacted journal is correct, just fat.
        SAVE_WARN("sweep journal compaction skipped: ", why);
        return;
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path_, ec);
    if (ec) {
        SAVE_WARN("sweep journal compaction: cannot move ", tmp,
                  " into place: ", ec.message());
        std::filesystem::remove(tmp, ec);
        return;
    }
    compacted_ = true;
    SAVE_INFORM("sweep journal ", path_, ": compacted ",
                loadedRecords_, " record(s) down to ", entries_.size(),
                " (", dupes, " superseded)");
}

bool
SweepJournal::lookup(const std::string &key, std::string *payload) const
{
    std::lock_guard<std::mutex> lk(mu_);
    auto it = entries_.find(key);
    if (it == entries_.end())
        return false;
    if (payload)
        *payload = it->second;
    return true;
}

void
SweepLedger::fail(const std::string &key, const std::string &reason,
                  int attempts)
{
    SAVE_WARN("sweep point '", key, "' failed permanently after ",
              attempts, " attempt(s): ", reason);
    std::lock_guard<std::mutex> lk(mu_);
    failures_.push_back({key, reason, attempts});
}

std::vector<SweepFailure>
SweepLedger::failures() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return failures_;
}

void
SweepLedger::persist(const std::string &key, const std::string &payload)
{
    try {
        journal_.record(key, payload);
    } catch (const CacheError &e) {
        SAVE_WARN("journal write for '", key, "' failed: ", e.what());
    }
}

int
SweepLedger::finish(int max_failures,
                    const std::string &extra_report) const
{
    if (journal_.enabled())
        std::fprintf(stderr, "journal %s: %zu point(s) resumed, %zu "
                     "computed\n", journal_.path().c_str(), resumed(),
                     computed());
    const std::vector<SweepFailure> failed = failures();
    if (!failed.empty())
        std::fprintf(stderr, "%zu sweep point(s) failed permanently:\n",
                     failed.size());
    for (const SweepFailure &f : failed)
        std::fprintf(stderr, "  %s: %s (%d attempts)\n", f.key.c_str(),
                     f.reason.c_str(), f.attempts);
    std::fputs(extra_report.c_str(), stderr);
    if (failed.size() > static_cast<size_t>(max_failures))
        return 1;
    if (!failed.empty())
        std::fprintf(stderr, "%zu failure(s) within --max-failures=%d; "
                     "exiting 0\n", failed.size(), max_failures);
    return 0;
}

void
SweepJournal::record(const std::string &key, const std::string &payload)
{
    if (!enabled())
        return;
    if (key.empty() || key.find('\t') != std::string::npos ||
        key.find('\n') != std::string::npos)
        throw ConfigError("journal key must be non-empty and free of "
                          "tabs/newlines: '" + key + "'");

    std::lock_guard<std::mutex> lk(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end() && it->second == payload)
        return; // identical record already journaled
    entries_.insert_or_assign(key, payload);
    appendLine(key + "\t" + payload);
}

} // namespace save
