/**
 * @file
 * In-memory span recorder for the traced benchmark run.
 *
 * Spans wrap the driver's own calls into each layer's public entry
 * points; nothing inside the library is instrumented. Each span keeps
 * its name, the layer it charges, start and end (wall and thread CPU),
 * its parent and the sweep-point key. Spans stay in memory until the
 * run ends, then go out as Chrome-trace JSON (opens in Perfetto) plus
 * a self-time table, where self time is a span minus its children.
 * The recorder is single-threaded: only the driver thread opens spans.
 */

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span
{
    std::string name;
    std::string layer;
    std::string key;
    int parent = -1;
    double wallStart = 0, wallEnd = 0; ///< seconds, steady clock
    double cpuStart = 0, cpuEnd = 0;   ///< seconds, thread CPU clock

    double wall() const { return wallEnd - wallStart; }
    double cpu() const { return cpuEnd - cpuStart; }
};

class SpanRecorder
{
  public:
    /** Open a span as a child of the innermost open span. */
    int begin(const std::string &name, const std::string &layer,
              const std::string &key = "");
    /** Close span `id` (must be the innermost open span); returns its
     *  wall seconds. */
    double end(int id);

    const std::vector<Span> &spans() const { return spans_; }

    /** Self wall seconds per span name (span minus its children). */
    std::map<std::string, double> selfWallByName() const;

    /** Chrome-trace JSON ("X" complete events, µs timestamps);
     *  `metadata` is a JSON object written under "metadata". */
    void writeChromeTrace(const std::string &path,
                          const std::string &metadata) const;

  private:
    std::vector<Span> spans_;
    std::vector<int> open_;
    double origin_ = -1;
};

/** RAII span. */
class Scoped
{
  public:
    Scoped(SpanRecorder &rec, const std::string &name,
           const std::string &layer, const std::string &key = "")
        : rec_(rec), id_(rec.begin(name, layer, key))
    {
    }
    ~Scoped()
    {
        if (id_ >= 0)
            rec_.end(id_);
    }
    /** Close early; returns wall seconds. */
    double
    close()
    {
        double w = rec_.end(id_);
        id_ = -1;
        return w;
    }

    Scoped(const Scoped &) = delete;
    Scoped &operator=(const Scoped &) = delete;

  private:
    SpanRecorder &rec_;
    int id_;
};

/** Thread CPU seconds (CLOCK_THREAD_CPUTIME_ID). */
double threadCpuSeconds();

/** JSON string literal with escapes. */
std::string jsonQuote(const std::string &s);

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
