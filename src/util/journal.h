/**
 * @file
 * The sweep ledger and its append-only journal: crash-safe
 * checkpoint/resume and one pass/fail rule for every sweep front end.
 *
 * A fig14-19 style sweep is a list of independent points, each
 * expensive to compute. The journal records every completed point
 * (key -> serialized payload) as one flushed line, so an interrupted
 * run — SIGKILL included — resumes by replaying the journal and
 * recomputing only the missing points.
 *
 * Crash-safety comes from the format, not from rename tricks: the
 * file is append-only, each record is a single '\n'-terminated line,
 * and load() ignores an unterminated tail line (the only damage a
 * kill mid-append can cause). Payloads are hex-encoded so records
 * never contain separators. All file I/O goes through the EINTR-safe
 * helpers in util/posix_io.h.
 *
 * File format (text):
 *   SAVEJRNL 1 <16-hex config hash>\n
 *   <key>\t<hex payload>\n ...
 *
 * Duplicate keys are legal and the LAST record wins, both in load()
 * and in record(): re-recording a key with a different payload appends
 * a superseding line. This is what lets a resumed sweep upgrade a
 * journaled failure marker (NaN-poisoned point) to a real value once
 * a later run computes it — with first-wins, a permanently-failed
 * point would stay poisoned in every future resume.
 *
 * The config hash covers everything that affects point values; a
 * mismatch (flags changed between runs) moves the stale journal to
 * <path>.stale and starts fresh — stale results are never replayed
 * into a differently-configured sweep.
 *
 * Last-wins duplicates mean a repeatedly-resumed flaky sweep grows
 * the file without bound (every re-attempt appends, nothing ever
 * rewrites). open() therefore compacts: when the loaded file carries
 * enough superseded records (see compactedAtOpen()), the surviving
 * entries are rewritten to a temp file and renamed over the journal
 * before the append fd opens. The rename is atomic, so a crash
 * mid-compaction leaves either the old file or the new one — and the
 * torn-tail-drop rule still governs whichever survives.
 */

#ifndef SAVE_UTIL_JOURNAL_H
#define SAVE_UTIL_JOURNAL_H

#include <atomic>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <mutex>
#include <string>
#include <type_traits>
#include <vector>

namespace save {

/**
 * Stable id for a sweep's journal: FNV-1a over the bench name and
 * every knob value that shifts point results. The Fig. 14 front ends
 * share one call of it (fig14SweepHash, serve/session.h), so their
 * journals interchange.
 */
uint64_t sweepHash(const char *bench,
                   std::initializer_list<int64_t> knobs);

/** A sweep point that failed permanently: its journal key, the last
 *  error and the attempts spent on it. */
struct SweepFailure
{
    std::string key;
    std::string reason;
    int attempts = 0;
};

/** A floating-point sweep value is poisoned when NaN; other types
 *  are not, unless an overload found by argument-dependent lookup
 *  (NetResult's, in dnn/estimator.h) says otherwise. */
template <typename T>
inline bool
sweepResultPoisoned(const T &v)
{
    if constexpr (std::is_floating_point_v<T>)
        return std::isnan(v);
    else
        return false;
}

/** Crash-tolerant key->payload journal for sweep checkpointing. */
class SweepJournal
{
  public:
    /** Disabled journal: lookup misses, record is a no-op. */
    SweepJournal() = default;

    /**
     * Open (or create) the journal at `path`. Loads every complete
     * record whose header matches `config_hash`. Throws CacheError if
     * the file cannot be created or appended to.
     */
    SweepJournal(const std::string &path, uint64_t config_hash);

    ~SweepJournal();

    bool enabled() const { return !path_.empty(); }
    const std::string &path() const { return path_; }
    size_t size() const { return entries_.size(); }

    /** True iff `key` has a journaled payload; copies it out when
     *  `payload` is non-null. */
    bool lookup(const std::string &key, std::string *payload = nullptr) const;

    /**
     * Append one completed point and flush. Keys must be non-empty
     * and free of tabs/newlines (throws ConfigError otherwise);
     * payload must be hex (use encode()). Re-recording a key with the
     * same payload is a no-op; a different payload appends a
     * superseding record (last-wins on reload). Thread-safe.
     */
    void record(const std::string &key, const std::string &payload);

    /** Hex-encode a trivially-copyable value for record(). */
    template <typename T>
    static std::string
    encode(const T &v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        return encodeBytes(reinterpret_cast<const char *>(&v),
                           sizeof(T));
    }

    /** Decode an encode()d payload; false on size/format mismatch. */
    template <typename T>
    static bool
    decode(const std::string &hex, T &v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        return decodeBytes(hex, reinterpret_cast<char *>(&v),
                           sizeof(T));
    }

    static std::string encodeBytes(const char *data, size_t n);
    static bool decodeBytes(const std::string &hex, char *out, size_t n);

    /** Complete records the last load() parsed, duplicates included. */
    size_t loadedRecords() const { return loadedRecords_; }
    /** True when open() rewrote the file to drop superseded records. */
    bool compactedAtOpen() const { return compacted_; }

  private:
    void load(uint64_t config_hash);
    void maybeCompact(uint64_t config_hash);
    void appendLine(const std::string &line);

    std::string path_;
    std::map<std::string, std::string> entries_;
    /** O_APPEND fd for record(); -1 when disabled. */
    int fd_ = -1;
    size_t loadedRecords_ = 0;
    bool compacted_ = false;
    mutable std::mutex mu_;
};

/**
 * The sweep contract every front end finishes through (bench_fig14,
 * ShardCoordinator, save-ctl fig14, the benches' SweepRunner): the
 * journal it opens plus one rule set for every point, whoever computed
 * it. Resume: a NaN-poisoned record is a miss, so the run re-attempts
 * it. Record: a poisoned value is a permanent point failure and never
 * journaled; a journal write error only warns (it costs resume, not
 * the value). Thread-safe.
 */
class SweepLedger
{
  public:
    /** No journal: nothing resumes or persists. */
    SweepLedger() = default;

    /** Journal at `journal_path` (empty: none); throws as SweepJournal. */
    SweepLedger(const std::string &journal_path, uint64_t config_hash)
        : journal_(journal_path, config_hash)
    {
    }

    /** True, with `v` filled from the journal, iff `key` resumes. */
    template <typename T>
    bool
    resume(const std::string &key, T &v)
    {
        std::string hex;
        if (!journal_.lookup(key, &hex) ||
            !SweepJournal::decode(hex, v) || sweepResultPoisoned(v))
            return false;
        resumed_.fetch_add(1, std::memory_order_relaxed);
        return true;
    }

    /** One point computed in `attempts` tries. */
    template <typename T>
    void
    record(const std::string &key, const T &v, int attempts = 1)
    {
        computed_.fetch_add(1, std::memory_order_relaxed);
        if (sweepResultPoisoned(v))
            fail(key, "NaN-poisoned by a permanently failed slice",
                 attempts);
        else
            persist(key, SweepJournal::encode(v));
    }

    /** A point that produced no value after `attempts` tries. */
    void fail(const std::string &key, const std::string &reason,
              int attempts);

    size_t resumed() const { return resumed_.load(); }
    size_t computed() const { return computed_.load(); }
    std::vector<SweepFailure> failures() const;

    /** The end-of-sweep report on stderr (journal summary, failed
     *  points, `extra_report`); returns the exit code: 1 iff more than
     *  `max_failures` points failed. */
    int finish(int max_failures,
               const std::string &extra_report = "") const;

  private:
    void persist(const std::string &key, const std::string &payload);

    SweepJournal journal_;
    std::atomic<size_t> resumed_{0};
    std::atomic<size_t> computed_{0};
    mutable std::mutex mu_;
    std::vector<SweepFailure> failures_;
};

} // namespace save

#endif // SAVE_UTIL_JOURNAL_H
