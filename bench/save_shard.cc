/**
 * @file
 * save-shard: distributed Fig. 14 sweep coordinator (src/shard,
 * DESIGN.md §15). Splits the sweep into point jobs and dispatches
 * them across in-process lanes and remote save-serve daemons (one
 * Fig14 sweep request per batch of points), then merges the results
 * through the shared fig14 renderer.
 *
 * The merged stdout is byte-identical to `bench_fig14` for the same
 * knobs — for any backend mix, shard count, or fault schedule (CI
 * diffs it). Run-dependent counters go to stderr only.
 *
 * With --journal=PATH completed points are checkpointed in the exact
 * format bench_fig14 uses, so a coordinator killed mid-sweep resumes
 * recomputing nothing — and a bench journal resumes a distributed
 * run (and vice versa). A NaN-poisoned point is a permanent failure,
 * as in bench_fig14: past --max-failures the run exits 1.
 */

#include <cstdio>

#include "bench_util.h"
#include "shard/coordinator.h"

using namespace save;

static void
printUsage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [options]\n"
        "  --sockets=A,B,..  save-serve daemon sockets to dispatch "
        "batched\n"
        "                    sweep requests to (a daemon of another "
        "protocol\n"
        "                    version is excluded with a warning)\n"
        "  --inproc=N        in-process lanes over one shared session "
        "(default 1;\n"
        "                    0 relies entirely on the daemons)\n"
        "  --batch=N         max sweep points per daemon dispatch "
        "(default 4)\n"
        "  --max-attempts=N  per-point dispatch budget before a "
        "permanent\n"
        "                    failure (default 3)\n"
        "  --straggler-ms=N  speculatively re-dispatch points in "
        "flight longer\n"
        "                    than this (default 0: disabled)\n"
        "  --rpc-timeout-ms=N  per-frame RPC deadline, reset at each "
        "ack\n"
        "                    (default 120000)\n"
        "  --journal=PATH    crash-safe sweep journal, interchangeable "
        "with\n"
        "                    bench_fig14's ('none' disables; default: "
        "SAVE_JOURNAL)\n"
        "  --max-failures=N  tolerated permanent point failures before "
        "exit 1\n"
        "  --grid/--ksteps/--tiles/--cores/--seed  estimator knobs "
        "(must match\n"
        "                    the daemons' build; defaults match "
        "bench_fig14)\n"
        "  --threads=N       in-process fan-out threads (0 = env/"
        "hardware)\n"
        "  --isolation=M     in-process slice isolation: none | thread "
        "| process\n"
        "  --cache-dir=D     in-process content-addressed store "
        "('none' disables)\n"
        "  --cache-max-mb=N  store size cap (0 = env)\n"
        "  --cache-stats     print in-process store counters to "
        "stderr\n",
        argv0);
}

static int
run(int argc, char **argv)
{
    Flags flags(argc, argv);

    ShardCoordinator::Options o;
    o.sockets = shardParseSockets(flags.getStr("sockets", ""));
    o.inprocLanes = flags.getInt("inproc", 1);
    o.batch = flags.getInt("batch", 4);
    o.maxAttempts = flags.getInt("max-attempts", 3);
    o.stragglerMs = flags.getInt("straggler-ms", 0);
    o.rpcTimeoutMs = flags.getInt("rpc-timeout-ms", 120000);

    o.runtime = runtimeOptions(flags);
    o.knobs = fig14Knobs(flags);

    SweepOptions sw = sweepOptions(flags);
    o.journalPath = sw.journalPath;

    ShardCoordinator coord(std::move(o));
    std::string report = coord.run();
    std::fputs(report.c_str(), stdout);

    const ShardCoordinator::Stats st = coord.stats();
    if (!st.failures.empty() || st.requeues > 0 ||
        st.speculative > 0 || st.backendsExcluded > 0)
        std::fprintf(stderr,
                     "shard: %zu requeue(s), %zu speculative "
                     "re-dispatch(es), %zu backend(s) excluded\n",
                     st.requeues, st.speculative,
                     st.backendsExcluded);
    return coord.ledger().finish(
        sw.maxFailures, cacheStatsLine(flags, coord.resultStore()));
}

int
main(int argc, char **argv)
{
    return benchMain(argc, argv, [&] { return run(argc, argv); },
                     printUsage);
}
