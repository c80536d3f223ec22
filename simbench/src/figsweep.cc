/**
 * @file
 * figure-sweep: the reuse-structure design-space figures (fig20_vsb,
 * fig21_reuse_buffer, abl_assoc) over the quick workload set, driven
 * through the figure registry over sweep::ResultCache as run_all
 * drives them. A round runs them cold -- sandboxed, one worker, into
 * an empty disk cache with a journal -- then replays them warm from
 * that cache in a fresh pool. An operation is one simulated cell of
 * the cold pass; its host time is the CPU time of the worker thread
 * and of the sandbox child it reaped, between the cache's per-task
 * hook calls. One worker keeps that exact: the process accounts its
 * reaped children as one sum, so two workers' children could not be
 * told apart.
 *
 * Traced rounds then re-run each cell the cold pass simulated, as
 * sandboxed attempts on two threads, with the child timing the calls
 * it makes: that splits the cells' host time into the workloads, sim
 * and energy layers and the sandbox's own cost.
 *
 * Checks: every simulated cell completed and its final-memory
 * digest equals its workload's Base digest; the warm replay returns
 * the same stats, digests and energy per cell, the same figure
 * metrics and byte-identical figure text; and in both passes
 * memory_hits + disk_hits + simulated == requests.
 */

#include <sys/mman.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <map>
#include <mutex>
#include <set>
#include <thread>

#include "common/logging.hh"
#include "harness.hh"
#include "sim/designs.hh"
#include "sweep/record.hh"
#include "sweep/sandbox.hh"
#include "workloads.hh"

namespace simbench
{

using namespace wir;

namespace
{

const char *const kFigures[] = {"fig20_vsb", "fig21_reuse_buffer",
                                 "abl_assoc"};
constexpr unsigned kJobs = 1;

struct Cell
{
    std::string key; ///< workload + canonical design and machine
    std::string abbr;
    DesignConfig design;
    MachineConfig machine;
};

/** What a pass keeps of one cell's result. */
struct CellResult
{
    bool present = false;
    bool failed = false;
    std::string error;
    std::vector<std::pair<std::string, u64>> stats;
    SimStats raw;
    EnergyBreakdown energy;
    u64 digest = 0;
    u64 baseDigest = 0;
    bool haveBase = false;
};

struct TaskStart
{
    std::thread::id thread;
    int64_t ns = 0;
    double cpuS = 0; ///< threadCpuSeconds() on the worker
    std::string label; ///< "ABBR/design"; "" for the end sentinel
};

struct Pass
{
    double wallS = 0;
    sweep::SweepStats stats;
    std::map<std::string, std::map<std::string, double>> metrics;
    std::string figureText;
    std::vector<Cell> cells; ///< distinct cells, first-request order
    std::vector<CellResult> results; ///< parallel to `cells`
    std::vector<TaskStart> starts;
    std::vector<sweep::FailedCell> failures;
};

std::string
cellLabel(const std::string &abbr, const std::string &design)
{
    return abbr + "/" + design;
}

/** One pass of the three figures: sandboxed, one worker, over the
 * disk cache in `dir` with a journal. */
Pass
runPass(const std::vector<const bench::FigureInfo *> &figures,
        const std::string &dir, const std::string &textPath)
{
    Pass pass;
    std::mutex mutex; // guards pass.starts, pass.cells, seen
    std::set<std::string> seen;

    auto executor = std::make_shared<sweep::Executor>(kJobs);
    sweep::Options opts;
    opts.jobs = kJobs;
    opts.executor = executor;
    opts.progress = false;
    opts.useDiskCache = true;
    opts.cacheDir = dir;
    opts.isolate = true;
    opts.sandbox.enabled = sweep::sandboxSupported();
    auto journal = std::make_shared<sweep::Journal>();
    std::string error;
    if (!journal->open(dir + "/sweep.journal", false, &error))
        fatal("journal: %s", error.c_str());
    opts.journal = journal;
    opts.taskFaultHook = [&](const std::string &abbr,
                             const std::string &design) {
        int64_t ns = nowNs();
        double cpuS = threadCpuSeconds();
        std::lock_guard<std::mutex> lock(mutex);
        pass.starts.push_back({std::this_thread::get_id(), ns, cpuS,
                               cellLabel(abbr, design)});
    };
    opts.cellMachineHook = [&](const std::string &abbr,
                               const DesignConfig &design,
                               MachineConfig &machine) {
        std::string key = abbr + "\x1f" + canonicalKey(design) +
                          "\x1f" + canonicalKey(machine);
        std::lock_guard<std::mutex> lock(mutex);
        if (seen.insert(key).second)
            pass.cells.push_back({key, abbr, design, machine});
        return false; // observe only; never alters the cell
    };

    sweep::CachePool caches(std::move(opts));
    auto start = Clock::now();
    {
        StdoutToFile redirect(textPath);
        bench::planFigures(caches, figures);
        // Every planned task is queued now. An end marker queued
        // behind them reads the clocks when the worker has run out
        // of cells, ending the last cell's interval.
        std::future<void> marker = executor->submit([&] {
            int64_t ns = nowNs();
            double cpuS = threadCpuSeconds();
            std::lock_guard<std::mutex> lock(mutex);
            pass.starts.push_back(
                {std::this_thread::get_id(), ns, cpuS, ""});
        });
        for (const bench::FigureInfo *figure : figures) {
            bench::FigureContext ctx{caches, caches.defaultCache(),
                                     &pass.metrics[figure->id]};
            figure->run(ctx);
            std::printf("\n");
        }
        marker.get();
    }
    pass.wallS = secondsSince(start);
    pass.stats = caches.totalStats();
    pass.failures = caches.drainNewFailures();
    journal->completed();
    pass.figureText = readFile(textPath);

    // Copy out what the checks need before the pool goes away.
    std::vector<Cell> cells;
    {
        std::lock_guard<std::mutex> lock(mutex);
        cells = pass.cells;
    }
    for (const Cell &cell : cells) {
        sweep::ResultCache &cache = caches.forMachine(cell.machine);
        CellResult out;
        if (const RunResult *r = cache.tryGet(cell.abbr, cell.design)) {
            out.present = true;
            out.failed = r->failed;
            out.error = r->error;
            out.stats = r->stats.items();
            out.raw = r->stats;
            out.energy = r->energy;
            out.digest = r->finalMemoryDigest;
        }
        if (const RunResult *base =
                cache.tryGet(cell.abbr, designBase())) {
            out.haveBase = !base->failed;
            out.baseDigest = base->finalMemoryDigest;
        }
        pass.results.push_back(std::move(out));
    }
    pass.cells = std::move(cells);
    return pass;
}

struct Interval
{
    int64_t startNs = 0;
    int64_t endNs = 0;
    double cpuMs = 0;
    unsigned worker = 0;
};

/** Each cell task's host time: from its start to the next start on
 * the same worker (the next cell or the end marker). */
std::map<std::string, Interval>
taskIntervals(const Pass &pass)
{
    std::map<std::thread::id, std::vector<const TaskStart *>> byThread;
    for (const TaskStart &s : pass.starts)
        byThread[s.thread].push_back(&s);
    std::map<std::string, Interval> out;
    unsigned worker = 0;
    for (auto &[thread, starts] : byThread) {
        worker++;
        std::sort(starts.begin(), starts.end(),
                  [](const TaskStart *a, const TaskStart *b) {
                      return a->ns < b->ns;
                  });
        for (size_t i = 0; i < starts.size(); i++) {
            if (starts[i]->label.empty())
                continue;
            if (i + 1 == starts.size())
                fatal("task %s has no end marker after it",
                      starts[i]->label.c_str());
            const TaskStart &next = *starts[i + 1];
            out[starts[i]->label] = {starts[i]->ns, next.ns,
                                     (next.cpuS - starts[i]->cpuS) * 1e3,
                                     worker};
        }
    }
    return out;
}

u64
accounted(const sweep::SweepStats &s)
{
    return s.memoryHits + s.diskHits + s.simulated;
}

/** Spans a sandbox child hands back to the parent through a shared
 * anonymous mapping: the record codec carries only the result. */
struct ChildSpans
{
    struct Entry
    {
        char name[32];
        int64_t startNs;
        int64_t endNs;
    };
    unsigned count;
    Entry spans[8];
};

/** Threads that re-run cells in a traced round; each waits on one
 * sandbox child at a time. */
constexpr unsigned kRerunLanes = 2;

/** One sandboxed rerun of a cell, filled in by a rerun thread. */
struct Rerun
{
    size_t cell = 0; ///< index into Pass::cells
    unsigned lane = 0;
    int64_t startNs = 0;
    int64_t endNs = 0;
    ChildSpans spans = {};
    bool same = false; ///< result equals the cold pass's
};

/**
 * Re-run every cell the cold pass simulated, on kRerunLanes threads,
 * as a sandboxed attempt like the ones ResultCache::runIsolated makes
 * for the cold pass, except that the child runs runTraced (the calls
 * runWorkloadSafe makes, each in a span) and hands its spans back.
 * Each attempt's span thus splits into the child's workloads, sim
 * and energy spans and a self time: what the sandbox adds to the
 * task (fork, record codec, pipe, wait). A cell whose rerun differs
 * from the cold pass gets a reason in `why`. Returns the number of
 * cells re-run.
 */
unsigned
rerunSandboxed(Tracer &tracer, const Pass &cold,
               const std::map<std::string, Interval> &simulated,
               std::map<std::string, std::string> &why)
{
    std::vector<Rerun> reruns;
    std::set<std::string> done;
    for (size_t i = 0; i < cold.cells.size(); i++) {
        const Cell &cell = cold.cells[i];
        std::string label = cellLabel(cell.abbr, cell.design.name);
        if (simulated.count(label) && done.insert(label).second)
            reruns.push_back({i});
    }
    sweep::SandboxPolicy policy; // the cold pass's policy
    policy.enabled = sweep::sandboxSupported();

    // One shared mapping per thread: its child writes its spans there.
    std::vector<ChildSpans *> mappings;
    for (unsigned lane = 0; lane < kRerunLanes; lane++) {
        void *mapping = mmap(nullptr, sizeof(ChildSpans),
                             PROT_READ | PROT_WRITE,
                             MAP_SHARED | MAP_ANONYMOUS, -1, 0);
        if (mapping == MAP_FAILED)
            fatal("mmap: %s", std::strerror(errno));
        mappings.push_back(static_cast<ChildSpans *>(mapping));
    }

    std::atomic<size_t> next{0};
    auto rerunCells = [&](unsigned lane) {
        ChildSpans *shared = mappings[lane];
        for (size_t k; (k = next++) < reruns.size();) {
            Rerun &rerun = reruns[k];
            const Cell &cell = cold.cells[rerun.cell];
            sweep::SandboxTask task;
            task.key = cellLabel(cell.abbr, cell.design.name);
            task.kind = sweep::RecordKind::Run;
            task.produce = [&cell, shared] {
                Tracer child(true);
                RunResult r;
                try {
                    r = runTraced(child, cell.abbr, cell.design,
                                  cell.machine);
                } catch (const SimError &err) {
                    r.failed = true;
                    r.failKind = FailKind::Sim;
                    r.error = err.what();
                }
                shared->count = 0;
                for (const Tracer::Span &span : child.spans()) {
                    if (shared->count == std::size(shared->spans))
                        break;
                    ChildSpans::Entry &e =
                        shared->spans[shared->count++];
                    std::snprintf(e.name, sizeof e.name, "%s",
                                  span.name.c_str());
                    e.startNs = span.startNs;
                    e.endNs = span.endNs;
                }
                return sweep::encodeRunPayload(r);
            };
            task.classify =
                [](const std::string &payload) -> std::string {
                RunResult probe;
                if (!sweep::decodeRunPayload(payload, probe))
                    return "malformed result payload";
                return probe.failed ? "SimError: " + probe.error : "";
            };

            shared->count = 0;
            std::string payload;
            rerun.lane = lane;
            rerun.startNs = nowNs();
            sweep::SandboxOutcome outcome =
                sweep::runSandboxed(task, policy, payload);
            rerun.endNs = nowNs();
            rerun.spans = *shared;

            RunResult r;
            const CellResult &c = cold.results[rerun.cell];
            rerun.same = outcome.status == sweep::SandboxStatus::Ok &&
                         sweep::decodeRunPayload(payload, r) &&
                         !r.failed && r.stats.items() == c.stats &&
                         r.finalMemoryDigest == c.digest &&
                         r.energy.gpuTotal() == c.energy.gpuTotal();
        }
    };
    std::vector<std::thread> threads;
    for (unsigned lane = 0; lane < kRerunLanes; lane++)
        threads.emplace_back(rerunCells, lane);
    for (std::thread &thread : threads)
        thread.join();
    for (ChildSpans *mapping : mappings)
        munmap(mapping, sizeof(ChildSpans));

    for (const Rerun &rerun : reruns) {
        const Cell &cell = cold.cells[rerun.cell];
        unsigned lane = kJobs + 1 + rerun.lane;
        int attempt = tracer.addSpan("sweep.sandboxed_cell",
                                     rerun.startNs, rerun.endNs, lane);
        for (unsigned k = 0; k < rerun.spans.count; k++) {
            const ChildSpans::Entry &e = rerun.spans.spans[k];
            tracer.addSpan(e.name, e.startNs, e.endNs, lane, attempt);
        }
        std::string &reason = why[cellLabel(cell.abbr, cell.design.name)];
        if (reason.empty() && !rerun.same)
            reason = "sandboxed rerun differs from the cold pass";
    }
    return unsigned(reruns.size());
}

} // namespace

Result
runFigureSweep(const Args &args, Tracer &tracer)
{
    // The figures' quick workload set, as WIR_BENCH_QUICK=1 selects
    // it for run_all.
    setenv("WIR_BENCH_QUICK", "1", 1);
    std::vector<const bench::FigureInfo *> figures;
    for (const char *id : kFigures) {
        const bench::FigureInfo *figure = bench::findFigure(id);
        if (!figure)
            fatal("figure %s is not in the registry", id);
        figures.push_back(figure);
    }
    for (const auto &abbr : bench::benchAbbrs())
        makeWorkload(abbr); // validates the workload set
    namespace fs = std::filesystem;
    const std::string dir = args.outDir + "/figure-sweep";
    const std::string cacheDir = dir + "/cache";
    fs::create_directories(dir);
    if (args.setupOnly)
        return setupOnlyResult();
    double setupS = setupSeconds();

    std::vector<double> opMs, untracedWall, tracedWall, roundCpu;
    ModelTotals model, firstModel;
    Pass cold, warm;
    unsigned reruns = 0;  // cells re-run over the traced rounds
    double coldTaskS = 0; // the traced rounds' cold task time
    Result out;

    auto start = Clock::now();
    unsigned round = 0;
    for (; anotherRound(round, args.trace ? 2 : 1,
                        secondsSince(start), args.seconds);
         round++) {
        bool traced = tracedRound(args, round);
        tracer.setEnabled(traced);
        fs::remove_all(cacheDir);
        fs::create_directories(cacheDir);

        double cpu0 = cpuSeconds();
        {
            ScopedSpan span(tracer, "sweep.cold_pass");
            cold = runPass(figures, cacheDir, dir + "/cold.txt");
        }
        {
            ScopedSpan span(tracer, "sweep.warm_pass");
            warm = runPass(figures, cacheDir, dir + "/warm.txt");
        }
        roundCpu.push_back(cpuSeconds() - cpu0);
        (traced ? tracedWall : untracedWall)
            .push_back(cold.wallS + warm.wallS);

        // Operations: the cold pass's cell tasks.
        auto intervals = taskIntervals(cold);
        std::map<std::string, const CellResult *> warmByKey;
        for (size_t i = 0; i < warm.cells.size(); i++)
            warmByKey[warm.cells[i].key] = &warm.results[i];
        const CellResult missing;
        std::map<std::string, std::string> why;
        for (size_t i = 0; i < cold.cells.size(); i++) {
            const Cell &cell = cold.cells[i];
            const CellResult &c = cold.results[i];
            auto found = warmByKey.find(cell.key);
            const CellResult &w =
                found == warmByKey.end() ? missing : *found->second;
            std::string &reason =
                why[cellLabel(cell.abbr, cell.design.name)];
            if (!c.present || c.failed)
                reason = "cold run failed: " + c.error;
            else if (!c.haveBase || c.digest != c.baseDigest)
                reason = "final memory differs from Base";
            else if (!w.present || w.failed || w.stats != c.stats ||
                     w.digest != c.digest ||
                     w.energy.gpuTotal() != c.energy.gpuTotal())
                reason = "warm replay differs from the cold pass";
        }
        if (traced) {
            reruns += rerunSandboxed(tracer, cold, intervals, why);
            coldTaskS += cold.stats.simSeconds;
        }
        for (const auto &[label, task] : intervals) {
            opMs.push_back(task.cpuMs);
            tracer.addSpan("sweep.task", task.startNs, task.endNs,
                           task.worker);
            out.attempted++;
            auto it = why.find(label);
            std::string reason =
                it == why.end() ? "task without a cell" : it->second;
            if (!reason.empty()) {
                out.failed++;
                out.notes.push_back("FAIL " + label + ": " + reason);
            }
        }

        // Whole-pass properties.
        auto fail = [&](const std::string &what) {
            out.correct = false;
            out.notes.push_back("INCORRECT: " + what);
        };
        if (intervals.size() != cold.stats.simulated)
            fail("cold pass simulated " +
                 std::to_string(cold.stats.simulated) + " cells but " +
                 std::to_string(intervals.size()) + " tasks ran");
        if (!cold.failures.empty() || !warm.failures.empty())
            fail("failed cells in the sweep");
        if (accounted(cold.stats) != cold.stats.requests ||
            accounted(warm.stats) != warm.stats.requests)
            fail("memory_hits + disk_hits + simulated != requests");
        if (warm.stats.simulated != 0 ||
            warm.stats.diskHits != cold.stats.simulated)
            fail("warm pass did not replay every cell from disk");
        if (warm.metrics != cold.metrics)
            fail("warm figure metrics differ from the cold pass");
        if (warm.figureText != cold.figureText)
            fail("warm figure output differs from the cold pass");

        ModelTotals roundModel;
        for (const CellResult &c : cold.results) {
            if (c.present && !c.failed)
                roundModel.add(c.raw, c.energy);
        }
        if (round == 0)
            firstModel = roundModel;
        else if (!(roundModel == firstModel))
            fail("simulated results differ between rounds");
        model = roundModel;
    }
    tracer.setEnabled(false);
    fs::remove_all(cacheDir);

    if (!args.trace) {
        addEndToEnd(out, setupS, median(roundCpu), median(untracedWall),
                    opMs, model);
        return out;
    }

    // Per-layer: counts from the last round's passes, times averaged
    // over the traced rounds.
    double passes = double(tracedWall.size());
    coldTaskS /= passes;
    const sweep::SweepStats &c = cold.stats, &w = warm.stats;
    u64 requests = c.requests + w.requests;
    u64 memoryHits = c.memoryHits + w.memoryHits;
    // Layer times from the sandboxed reruns' child spans, one
    // round's worth (the cold pass's children are out of sight).
    out.add("workloads.build_ms",
            tracer.selfSeconds("workloads.make") * 1e3 / passes, "ms");
    addSimTimes(out, tracer.selfSeconds("sim.gpu_run") / passes,
                tracer.selfSeconds("sim.digest") * 1e3 / passes,
                tracer.selfSeconds("energy.compute") * 1e6 / passes,
                model);
    addModelCounters(out, model);
    out.add("sweep.requests", double(requests), "count");
    out.add("sweep.memory_hits", double(memoryHits), "count");
    out.add("sweep.disk_hits", double(c.diskHits + w.diskHits),
            "count");
    out.add("sweep.simulated", double(c.simulated + w.simulated),
            "count");
    out.add("sweep.disk_stores", double(c.diskStores + w.diskStores),
            "count");
    out.add("sweep.dedup_ratio",
            requests ? double(memoryHits) / double(requests) : 0.0,
            "ratio");
    out.add("sweep.task_s", coldTaskS, "s");
    out.add("sweep.cold_s", tracer.selfSeconds("sweep.cold_pass") / passes,
            "s");
    out.add("sweep.warm_ms",
            tracer.selfSeconds("sweep.warm_pass") * 1e3 / passes, "ms");
    out.add("sweep.sandbox_ms",
            reruns ? tracer.selfSeconds("sweep.sandboxed_cell") * 1e3 /
                         double(reruns)
                   : 0.0,
            "ms");
    addNotExercised(out, {{"gen.generate_ms", "ms"},
                          {"gen.oracle_ms", "ms"},
                          {"gen.specs", "count"},
                          {"gen.statements", "count"},
                          {"gen.design_runs", "count"}});
    addTraceOverhead(out, untracedWall, tracedWall);
    return out;
}

} // namespace simbench
