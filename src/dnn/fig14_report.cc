#include "dnn/fig14_report.h"

#include <cstdarg>
#include <cstdio>

#include "util/error.h"

namespace save {

namespace {

void
appendf(std::string &out, const char *fmt, ...)
{
    char buf[256];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    out += buf;
}

void
printRow(std::string &out, const char *cfg, const PhaseBreakdown &bd,
         double base_total)
{
    appendf(out,
            "  %-9s %6.2fx  (1st %5.1f%%, fwd %5.1f%%, bwd-in "
            "%5.1f%%, bwd-w %5.1f%%)\n",
            cfg, base_total / bd.total(),
            100 * bd.firstLayer / bd.total(),
            100 * bd.forward / bd.total(),
            100 * bd.bwdInput / bd.total(),
            100 * bd.bwdWeights / bd.total());
}

void
printNet(std::string &out, const char *title, const NetResult &r,
         bool training)
{
    double base = r.baseline2.total();
    appendf(out, "%s  (baseline: %.3f ms)\n", title, base / 1e6);
    printRow(out, "baseline", r.baseline2, base);
    printRow(out, "2 VPUs", r.save2, base);
    printRow(out, "1 VPU", r.save1, base);
    if (training)
        printRow(out, "static", r.saveStatic, base);
    printRow(out, "dynamic", r.saveDynamic, base);
}

} // namespace

const std::vector<Fig14Entry> &
fig14CnnEntries()
{
    static const std::vector<Fig14Entry> entries = {
        {vgg16Dense(), Precision::Fp32, "VGG16 FP32 dense"},
        {resnet50Dense(), Precision::Fp32, "ResNet-50 FP32 dense"},
        {resnet50Pruned(), Precision::Fp32, "ResNet-50 FP32 pruned"},
        {vgg16Dense(), Precision::Bf16, "VGG16 MP dense"},
        {resnet50Dense(), Precision::Bf16, "ResNet-50 MP dense"},
        {resnet50Pruned(), Precision::Bf16, "ResNet-50 MP pruned"},
    };
    return entries;
}

const std::vector<Fig14Entry> &
fig14GnmtEntries()
{
    static const std::vector<Fig14Entry> entries = {
        {gnmtPruned(), Precision::Fp32, "GNMT FP32 pruned"},
        {gnmtPruned(), Precision::Bf16, "GNMT MP pruned"},
    };
    return entries;
}

const std::vector<Fig14Point> &
fig14Points()
{
    static const std::vector<Fig14Point> points = [] {
        std::vector<Fig14Point> p;
        auto add = [&](const Fig14Entry &e, bool training) {
            std::string key =
                std::string(training ? "train/" : "infer/") + e.label;
            p.push_back({e, training, std::move(key)});
        };
        // Must mirror fig14Report's walk exactly: index == the order
        // the renderer asks for results.
        for (const Fig14Entry &e : fig14CnnEntries())
            add(e, false);
        for (const Fig14Entry &e : fig14GnmtEntries())
            add(e, false);
        for (const Fig14Entry &e : fig14CnnEntries())
            add(e, true);
        for (const Fig14Entry &e : fig14GnmtEntries())
            add(e, true);
        return p;
    }();
    return points;
}

std::string
fig14Report(const Fig14Eval &eval)
{
    std::string out;
    out.reserve(8192);

    auto run = [&](const Fig14Entry &e, bool training) {
        return eval(std::string(training ? "train/" : "infer/") + e.label,
                    e, training);
    };

    appendf(out, "=== Fig. 14a: CNN inference ===\n");
    for (const Fig14Entry &e : fig14CnnEntries())
        printNet(out, e.label, run(e, false), false);

    appendf(out, "\n=== Fig. 14b: GNMT inference ===\n");
    for (const Fig14Entry &e : fig14GnmtEntries())
        printNet(out, e.label, run(e, false), false);

    appendf(out, "\n=== Fig. 14c: CNN end-to-end training ===\n");
    for (const Fig14Entry &e : fig14CnnEntries())
        printNet(out, e.label, run(e, true), true);

    appendf(out, "\n=== Fig. 14d: GNMT end-to-end training ===\n");
    for (const Fig14Entry &e : fig14GnmtEntries())
        printNet(out, e.label, run(e, true), true);

    appendf(out,
            "\nPaper (dynamic, MP): inference 1.68x/1.37x/1.59x "
            "(VGG/ResNet/ResNet-pruned), 1.39x GNMT; training "
            "1.64x/1.29x/1.42x, 1.28x GNMT.\n");
    return out;
}

std::string
fig14Report(const std::vector<NetResult> &results)
{
    const std::vector<Fig14Point> &pts = fig14Points();
    if (results.size() != pts.size())
        throw SimError("fig14 report needs " + std::to_string(pts.size()) +
                       " point results, got " +
                       std::to_string(results.size()));
    size_t next = 0;
    return fig14Report([&](const std::string &key, const Fig14Entry &,
                           bool) {
        const size_t idx = next++;
        if (idx >= pts.size() || pts[idx].key != key)
            throw SimError("fig14 report walk diverged from "
                           "fig14Points() at '" +
                           key + "'");
        return results[idx];
    });
}

} // namespace save
