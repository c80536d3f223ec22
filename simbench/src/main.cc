/**
 * @file
 * Benchmark binary: runs one workload and prints its result as the
 * last line of stdout, one JSON object with `correct`, `attempted`,
 * `failed` and `metrics` (end-to-end metrics untraced, per-layer
 * metrics with --trace 1). Human-readable notes go to stderr.
 *
 *   simbench --workload table1-grid|fuzz-diff|figure-sweep
 *            --seed N --seconds S --trace 0|1
 *            [--out-dir DIR] [--setup-only]
 *
 * Exit codes: 0 result printed, 2 bad usage, 1 the program failed
 * before a result could be printed.
 */

#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>

#include "common/logging.hh"
#include "workloads.hh"

namespace simbench
{

namespace
{

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "simbench: %s\n"
                 "usage: simbench --workload "
                 "table1-grid|fuzz-diff|figure-sweep --seed N "
                 "--seconds S --trace 0|1 [--out-dir DIR] "
                 "[--setup-only]\n",
                 why);
    std::exit(2);
}

uint64_t
parseNumber(const char *flag, const char *text)
{
    char *end = nullptr;
    errno = 0;
    unsigned long long value = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0' || errno != 0)
        usage((std::string(flag) + " expects a whole number").c_str());
    return value;
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    bool haveSeconds = false;
    for (int i = 1; i < argc; i++) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                usage((arg + " expects a value").c_str());
            return argv[++i];
        };
        if (arg == "--workload") {
            args.workload = next();
        } else if (arg == "--seed") {
            args.seed = parseNumber("--seed", next());
        } else if (arg == "--seconds") {
            uint64_t s = parseNumber("--seconds", next());
            if (s == 0 || s > 3600)
                usage("--seconds must be in [1, 3600]");
            args.seconds = double(s);
            haveSeconds = true;
        } else if (arg == "--trace") {
            uint64_t t = parseNumber("--trace", next());
            if (t > 1)
                usage("--trace expects 0 or 1");
            args.trace = t == 1;
        } else if (arg == "--out-dir") {
            args.outDir = next();
        } else if (arg == "--setup-only") {
            args.setupOnly = true;
        } else {
            usage(("unknown argument " + arg).c_str());
        }
    }
    if (args.workload.empty())
        usage("--workload is required");
    if (!haveSeconds && !args.setupOnly)
        usage("--seconds is required");
    return args;
}

void
printResult(const Result &result)
{
    std::fflush(stdout);
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                result.correct ? "true" : "false", result.attempted,
                result.failed);
    for (size_t i = 0; i < result.metrics.size(); i++) {
        const Metric &m = result.metrics[i];
        double value = std::isfinite(m.value) ? m.value : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", m.name.c_str(), value,
                    m.unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

/** Self time and count per span, then per layer (the span name's
 * prefix up to the first '.'). */
void
printLayerTable(const Tracer &tracer)
{
    std::map<std::string, Tracer::SelfTime> layers;
    std::fprintf(stderr, "%-28s %10s %14s\n", "span", "count",
                 "self ms");
    for (const auto &[name, t] : tracer.selfTimes()) {
        std::fprintf(stderr, "%-28s %10" PRIu64 " %14.3f\n",
                     name.c_str(), t.count, double(t.selfNs) / 1e6);
        Tracer::SelfTime &layer = layers[name.substr(0, name.find('.'))];
        layer.selfNs += t.selfNs;
        layer.count += t.count;
    }
    std::fprintf(stderr, "%-28s %10s %14s\n", "layer", "count",
                 "self ms");
    for (const auto &[name, t] : layers) {
        std::fprintf(stderr, "%-28s %10" PRIu64 " %14.3f\n",
                     name.c_str(), t.count, double(t.selfNs) / 1e6);
    }
}

} // namespace

bool
anotherRound(unsigned done, unsigned minRounds, double elapsedS,
             double seconds)
{
    if (done < minRounds)
        return true;
    return elapsedS + elapsedS / double(done) <= seconds;
}

double
setupSeconds()
{
    // No sandbox child has run yet, so this is the process's own
    // CPU time since it started: loading, static set-up, inputs.
    return cpuSeconds();
}

Result
setupOnlyResult()
{
    Result out;
    out.attempted = 1;
    out.add("setup_s", setupSeconds(), "s");
    return out;
}

void
addNotExercised(
    Result &out,
    std::initializer_list<std::pair<const char *, const char *>> metrics)
{
    for (const auto &[name, unit] : metrics)
        out.add(name, 0.0, unit);
}

void
addTraceOverhead(Result &out, const std::vector<double> &untraced,
                 const std::vector<double> &traced)
{
    double tracedWall = median(traced);
    double overhead = tracedWall - median(untraced);
    out.add("bench.wall_s", median(untraced), "s");
    out.add("trace.wall_s", tracedWall, "s");
    out.add("trace.overhead_s", overhead, "s");
    char line[160];
    std::snprintf(line, sizeof line,
                  "tracing overhead: traced round %.4f s - untraced "
                  "round %.4f s (wall-clock) = %+.4f s",
                  tracedWall, median(untraced), overhead);
    out.notes.push_back(line);
}

} // namespace simbench

int
main(int argc, char **argv)
{
    using namespace simbench;
    Args args = parseArgs(argc, argv);
    wir::setInformEnabled(false);

    Result (*run)(const Args &, Tracer &) = nullptr;
    if (args.workload == "table1-grid")
        run = runTable1Grid;
    else if (args.workload == "fuzz-diff")
        run = runFuzzDiff;
    else if (args.workload == "figure-sweep")
        run = runFigureSweep;
    else
        usage(("unknown workload " + args.workload).c_str());

    Tracer tracer(false);
    Result result;
    try {
        std::filesystem::create_directories(args.outDir);
        result = run(args, tracer);
    } catch (const std::exception &err) {
        std::fprintf(stderr, "simbench: %s: %s\n",
                     args.workload.c_str(), err.what());
        return 1;
    }

    for (const auto &note : result.notes)
        std::fprintf(stderr, "%s\n", note.c_str());
    if (args.trace && !args.setupOnly) {
        printLayerTable(tracer);
        std::string path =
            args.outDir + "/trace-" + args.workload + ".json";
        if (tracer.writeChrome(path))
            std::fprintf(stderr, "trace written to %s\n", path.c_str());
    }
    printResult(result);
    return 0;
}
