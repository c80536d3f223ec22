/**
 * @file
 * table1-grid: all 34 Table I workloads under Base and RLPV, serial
 * and in-process on the default Table II machine (fixed memory
 * backend, one simulation thread). An operation is one cell: build
 * the workload, simulate it, digest its final memory. The seed only
 * orders the cells of each round; the inputs are the paper's fixed
 * workloads.
 *
 * Checks per cell: the run completed; RLPV's final global memory
 * equals Base's by digest and on the output region, with the same
 * committed warp-instruction count (reuse must be exact); Base's
 * digest is the same in every round; and where a CPU reference
 * exists (refs.hh) Base's output matches it.
 */

#include <cstdio>
#include <random>

#include "common/hash_h3.hh"
#include "common/logging.hh"
#include "refs.hh"
#include "sim/designs.hh"
#include "sim/runner.hh"
#include "workloads.hh"

namespace simbench
{

using namespace wir;

namespace
{

struct GridInput
{
    std::string abbr;
    Addr outputBase = 0;
    Addr outputBytes = 0;
    std::vector<u32> input; ///< initial memory, for CPU references
};

struct CellOut
{
    bool ran = false;
    std::string error;
    u64 digest = 0;
    u64 committed = 0;
    std::vector<u32> output; ///< the workload's output region
    std::string refMismatch;
    SimStats stats;
    EnergyBreakdown energy;
};

/** Build every workload once, as the tools validate a grid before
 * simulating it, and keep what the checks need. */
std::vector<GridInput>
setUp()
{
    std::vector<GridInput> inputs;
    for (const auto &info : workloadRegistry()) {
        Workload w = makeWorkload(info.abbr);
        GridInput in;
        in.abbr = info.abbr;
        in.outputBase = w.outputBase;
        in.outputBytes = w.outputBytes;
        if (hasReference(in.abbr))
            in.input = w.image.snapshotGlobal();
        inputs.push_back(std::move(in));
    }
    return inputs;
}

std::vector<u32>
outputRegion(const std::vector<u32> &memory, const GridInput &in)
{
    size_t first = in.outputBase / 4;
    size_t last = std::min(memory.size(),
                           size_t((in.outputBase + in.outputBytes) / 4));
    if (first >= last)
        return {};
    return {memory.begin() + long(first), memory.begin() + long(last)};
}

} // namespace

RunResult
runTraced(Tracer &tracer, const std::string &abbr,
          const DesignConfig &design, const MachineConfig &machine)
{
    Workload w = [&] {
        ScopedSpan span(tracer, "workloads.make");
        return makeWorkload(abbr);
    }();
    RunResult out;
    out.workload = w.abbr;
    out.design = design.name;
    {
        ScopedSpan span(tracer, "sim.gpu_run");
        Gpu gpu(machine, design);
        out.stats = gpu.run(w.kernel, w.image);
    }
    {
        ScopedSpan span(tracer, "energy.compute");
        out.energy = computeEnergy(out.stats);
    }
    {
        ScopedSpan span(tracer, "sim.digest");
        out.finalMemory = w.image.snapshotGlobal();
        out.finalMemoryDigest =
            fnv1a64(out.finalMemory.data(),
                    out.finalMemory.size() * sizeof(u32));
    }
    return out;
}

Result
runTable1Grid(const Args &args, Tracer &tracer)
{
    const std::vector<DesignConfig> designs = {designBase(),
                                               designRLPV()};
    MachineConfig machine; // Table II, fixed backend, 1 sim thread
    validateConfig(machine);
    std::vector<GridInput> inputs = setUp();
    if (args.setupOnly)
        return setupOnlyResult();
    double setupS = setupSeconds();

    const size_t nCells = inputs.size() * designs.size();
    std::mt19937_64 order(args.seed);
    std::vector<double> opMs, untracedWall, tracedWall, roundCpu;
    std::vector<u64> baseDigest(inputs.size(), 0);
    ModelTotals model, firstModel;
    Result out;

    // At least two rounds, so op_ms_p90 has more than ten samples
    // beyond it (68 cells a round).
    auto start = Clock::now();
    unsigned round = 0;
    for (; anotherRound(round, 2, secondsSince(start), args.seconds);
         round++) {
        bool traced = tracedRound(args, round);
        tracer.setEnabled(traced);
        // A fresh permutation of the cells each round (Fisher-Yates
        // on the seeded stream, so it is the same on every libc++).
        std::vector<size_t> cells(nCells);
        for (size_t i = 0; i < nCells; i++)
            cells[i] = i;
        for (size_t i = nCells - 1; i > 0; i--)
            std::swap(cells[i], cells[order() % (i + 1)]);

        std::vector<CellOut> outs(nCells);
        double roundS = 0, roundCpuS = 0;
        for (size_t cell : cells) {
            const GridInput &in = inputs[cell / designs.size()];
            const DesignConfig &design = designs[cell % designs.size()];
            CellOut &co = outs[cell];
            RunResult r;
            double cpu0 = cpuSeconds();
            auto t0 = Clock::now();
            try {
                ScopedSpan op(tracer, "bench.op");
                r = traced ? runTraced(tracer, in.abbr, design, machine)
                           : runWorkload(makeWorkload(in.abbr), design,
                                         machine);
                co.ran = true;
            } catch (const SimError &err) {
                co.error = err.what();
            }
            double s = secondsSince(t0);
            double cpuS = cpuSeconds() - cpu0;
            roundS += s;
            roundCpuS += cpuS;
            opMs.push_back(cpuS * 1e3);
            if (!co.ran)
                continue;
            ScopedSpan check(tracer, "bench.check");
            co.digest = r.finalMemoryDigest;
            co.committed = r.stats.warpInstsCommitted;
            co.output = outputRegion(r.finalMemory, in);
            if (cell % designs.size() == 0 && hasReference(in.abbr))
                co.refMismatch =
                    checkReference(in.abbr, in.input, r.finalMemory);
            co.stats = r.stats;
            co.energy = r.energy;
        }
        (traced ? tracedWall : untracedWall).push_back(roundS);
        roundCpu.push_back(roundCpuS);

        // Pair checks, once both cells of a workload have run.
        for (size_t w = 0; w < inputs.size(); w++) {
            const CellOut &base = outs[w * designs.size()];
            if (base.ran && round == 0)
                baseDigest[w] = base.digest;
            for (size_t d = 0; d < designs.size(); d++) {
                const CellOut &co = outs[w * designs.size() + d];
                std::string why;
                if (!co.ran)
                    why = "run failed: " + co.error;
                else if (!co.refMismatch.empty())
                    why = "CPU reference mismatch: " + co.refMismatch;
                else if (d == 0 && co.digest != baseDigest[w])
                    why = "Base digest differs between rounds";
                else if (d > 0 && !base.ran)
                    why = "no Base run to compare with";
                else if (d > 0 && (co.digest != base.digest ||
                                   co.output != base.output))
                    why = "final memory differs from Base";
                else if (d > 0 && co.committed != base.committed)
                    why = "committed warp instructions differ from Base";
                out.attempted++;
                if (!why.empty()) {
                    out.failed++;
                    out.notes.push_back("FAIL " + inputs[w].abbr + "/" +
                                        designs[d].name + ": " + why);
                }
            }
        }
        if (round == 0) {
            // The paper's headline quantities as per-benchmark means
            // (EXPERIMENTS.md compares them with the paper).
            double reuse = 0, gpuSaving = 0, smSaving = 0;
            for (size_t w = 0; w < inputs.size(); w++) {
                const CellOut &b = outs[w * designs.size()];
                const CellOut &r = outs[w * designs.size() + 1];
                if (!b.ran || !r.ran || !r.stats.warpInstsCommitted)
                    continue;
                reuse += double(r.stats.warpInstsReused) /
                         double(r.stats.warpInstsCommitted);
                gpuSaving += 1 - r.energy.gpuTotal() / b.energy.gpuTotal();
                smSaving += 1 - r.energy.smTotal() / b.energy.smTotal();
            }
            double n = double(inputs.size());
            char line[200];
            std::snprintf(line, sizeof line,
                          "RLPV per-benchmark means: %.1f%% of warp "
                          "instructions reused, GPU energy -%.1f%%, SM "
                          "energy -%.1f%%",
                          100 * reuse / n, 100 * gpuSaving / n,
                          100 * smSaving / n);
            out.notes.push_back(line);
        }

        // Summed in cell order, so the floating-point energy total
        // does not depend on the round's permutation.
        ModelTotals roundModel;
        for (const CellOut &co : outs) {
            if (co.ran)
                roundModel.add(co.stats, co.energy);
        }
        if (round == 0)
            firstModel = roundModel;
        else if (!(roundModel == firstModel)) {
            out.correct = false;
            out.notes.push_back("INCORRECT: simulated results differ "
                                "between rounds");
        }
        model = roundModel;
    }
    tracer.setEnabled(false);

    if (!args.trace) {
        addEndToEnd(out, setupS, median(roundCpu), median(untracedWall),
                    opMs, model);
        return out;
    }

    // Per-layer metrics, one pass's worth (traced rounds averaged).
    double passes = double(tracedWall.size());
    out.add("workloads.build_ms",
            tracer.selfSeconds("workloads.make") * 1e3 / passes, "ms");
    addSimTimes(out, tracer.selfSeconds("sim.gpu_run") / passes,
                tracer.selfSeconds("sim.digest") * 1e3 / passes,
                tracer.selfSeconds("energy.compute") * 1e6 / passes,
                model);
    addModelCounters(out, model);
    // The gen and sweep layers do no work here.
    addNotExercised(out, {{"gen.generate_ms", "ms"},
                          {"gen.oracle_ms", "ms"},
                          {"gen.specs", "count"},
                          {"gen.statements", "count"},
                          {"gen.design_runs", "count"},
                          {"sweep.requests", "count"},
                          {"sweep.memory_hits", "count"},
                          {"sweep.disk_hits", "count"},
                          {"sweep.simulated", "count"},
                          {"sweep.disk_stores", "count"},
                          {"sweep.dedup_ratio", "ratio"},
                          {"sweep.task_s", "s"},
                          {"sweep.cold_s", "s"},
                          {"sweep.warm_ms", "ms"},
                          {"sweep.sandbox_ms", "ms"}});
    addTraceOverhead(out, untracedWall, tracedWall);
    return out;
}

} // namespace simbench
