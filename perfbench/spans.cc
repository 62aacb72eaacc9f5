#include "spans.h"

#include <time.h>

#include <cstdio>
#include <fstream>

#include "procs.h"
#include "util/error.h"

namespace perfbench {

double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

std::string
jsonQuote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

int
SpanRecorder::begin(const std::string &name, const std::string &layer,
                    const std::string &key)
{
    Span s;
    s.name = name;
    s.layer = layer;
    s.key = key;
    s.parent = open_.empty() ? -1 : open_.back();
    s.wallStart = nowSeconds();
    s.cpuStart = threadCpuSeconds();
    if (origin_ < 0)
        origin_ = s.wallStart;
    spans_.push_back(std::move(s));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
}

double
SpanRecorder::end(int id)
{
    if (open_.empty() || open_.back() != id)
        throw save::SimError("span '" + spans_.at(id).name +
                             "' closed out of order");
    open_.pop_back();
    Span &s = spans_[static_cast<size_t>(id)];
    s.cpuEnd = threadCpuSeconds();
    s.wallEnd = nowSeconds();
    return s.wall();
}

std::map<std::string, double>
SpanRecorder::selfWallByName() const
{
    std::vector<double> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i)
        self[i] = spans_[i].wall();
    for (const Span &s : spans_)
        if (s.parent >= 0)
            self[static_cast<size_t>(s.parent)] -= s.wall();
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); ++i)
        out[spans_[i].name] += self[i];
    return out;
}

void
SpanRecorder::writeChromeTrace(const std::string &path,
                               const std::string &metadata) const
{
    std::ofstream f(path);
    if (!f)
        throw save::SimError("cannot write trace " + path);
    f << "{\"displayTimeUnit\":\"ms\",\"metadata\":" << metadata
      << ",\"traceEvents\":[\n";
    f << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
         "\"args\":{\"name\":\"perfbench driver\"}}";
    char buf[128];
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::snprintf(buf, sizeof(buf),
                      ",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1",
                      (s.wallStart - origin_) * 1e6, s.wall() * 1e6);
        f << ",\n{\"name\":" << jsonQuote(s.name)
          << ",\"cat\":" << jsonQuote(s.layer) << ",\"ph\":\"X\"" << buf
          << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
          << ",\"key\":" << jsonQuote(s.key);
        std::snprintf(buf, sizeof(buf), ",\"cpu_us\":%.3f}}",
                      s.cpu() * 1e6);
        f << buf;
    }
    f << "\n]}\n";
    if (!f)
        throw save::SimError("short write to trace " + path);
}

} // namespace perfbench
