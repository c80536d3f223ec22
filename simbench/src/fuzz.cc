/**
 * @file
 * fuzz-diff: a seeded differential campaign as `wirsim fuzz` runs
 * it: `mixed` family, divergence 2, Base against every reuse design
 * on 2 SMs, each kernel's oracle in a sandbox child, one job. An operation is one spec: generate it and
 * evaluate it with gen::evaluateSpec. Each kernel simulates only a
 * few thousand cycles, so per-run fixed costs dominate.
 *
 * Check per spec: the oracle reports every design's full
 * architectural state equal to Base's.
 *
 * The oracle's simulations happen in the children, out of the
 * parent's sight, so after the timed rounds one untimed in-process
 * pass runs each kernel under the same designs to collect the
 * modelled totals and counters (the same simulations, without arch
 * capture).
 */

#include "common/hash_h3.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "gen/campaign.hh"
#include "sim/designs.hh"
#include "sim/runner.hh"
#include "workloads.hh"

namespace simbench
{

using namespace wir;

namespace
{

/** Kernels per round: a few hundred, so one round takes seconds. */
constexpr unsigned kSpecs = 200;

gen::FuzzOptions
campaignOptions(u64 seed)
{
    gen::FuzzOptions opts;
    opts.seed = seed;
    opts.runs = kSpecs;
    opts.diff.numSms = 2;
    opts.sandbox = true;
    return opts;
}

/**
 * Generator parameters of kernel i. Left to the seed, block size,
 * grid size, input quantization and statement budget make the
 * campaign's total work and reuse swing by 15% between seeds; here
 * they cycle through the generator's own ranges as a function of i,
 * the same for every seed, so the seed picks each kernel's
 * statements and data and two seeds do comparable work.
 */
gen::GenParams
specParams(unsigned i)
{
    static const unsigned threads[] = {32, 64, 96, 128, 48};
    static const unsigned levels[] = {2, 3, 4, 4, 6, 8, 11, 15};
    gen::GenParams params;
    params.family = gen::Family::Mixed;
    params.divergence = 2;
    params.blockThreads = threads[i % 5];
    params.gridBlocks = 1 + (i / 5) % 3;
    params.levels = levels[(i / 15) % 8];
    params.statements = 24 + (i * 7) % 24;
    return params;
}

/** Per-run generator seeds, derived as gen::runFuzz derives them. */
std::vector<u64>
specSeeds(const gen::FuzzOptions &opts)
{
    Rng master(opts.seed);
    std::vector<u64> seeds(opts.runs);
    for (unsigned i = 0; i < opts.runs; i++)
        seeds[i] = master.split(i).next();
    return seeds;
}

gen::KernelSpec
makeSpec(u64 seed, unsigned index)
{
    gen::KernelSpec spec = gen::generate(seed, specParams(index));
    spec.name = "fuzz" + std::to_string(index);
    return spec;
}

} // namespace

Result
runFuzzDiff(const Args &args, Tracer &tracer)
{
    gen::FuzzOptions opts = campaignOptions(args.seed);
    // The oracle's candidate set: every design but Base.
    std::vector<DesignConfig> designs = {designBase()};
    for (const auto &d : allDesigns()) {
        if (d.name != "Base")
            designs.push_back(d);
    }
    MachineConfig machine;
    machine.numSms = opts.diff.numSms;
    machine.maxCycles = opts.diff.maxCycles;
    validateConfig(machine);

    // Set-up: derive and lower every kernel of the campaign once, so
    // a bad seed or spec fails before the first timed operation.
    std::vector<u64> seeds = specSeeds(opts);
    u64 statements = 0;
    for (unsigned i = 0; i < opts.runs; i++) {
        gen::KernelSpec spec = makeSpec(seeds[i], i);
        statements += gen::countStmts(spec);
        gen::buildWorkload(spec);
    }
    if (args.setupOnly)
        return setupOnlyResult();
    double setupS = setupSeconds();

    gen::FuzzOptions inProcess = opts;
    inProcess.sandbox = false;

    std::vector<double> opMs, untracedWall, tracedWall, roundCpu;
    double inProcessS = 0, sandboxedS = 0;
    Result out;

    auto start = Clock::now();
    unsigned round = 0;
    for (; anotherRound(round, args.trace ? 2 : 1,
                        secondsSince(start), args.seconds);
         round++) {
        bool traced = tracedRound(args, round);
        tracer.setEnabled(traced);
        double roundS = 0, roundCpuS = 0;
        for (unsigned i = 0; i < opts.runs; i++) {
            std::pair<std::string, std::string> verdict;
            double oracleS = 0;
            double cpu0 = cpuSeconds();
            auto t0 = Clock::now();
            {
                ScopedSpan op(tracer, "bench.op");
                int span = tracer.begin("gen.generate");
                gen::KernelSpec spec = makeSpec(seeds[i], i);
                tracer.end(span);
                ScopedSpan oracle(tracer, "gen.evaluate_spec");
                auto t1 = Clock::now();
                verdict = gen::evaluateSpec(spec, opts);
                oracleS = secondsSince(t1);
            }
            double s = secondsSince(t0);
            double cpuS = cpuSeconds() - cpu0;
            roundS += s;
            roundCpuS += cpuS;
            opMs.push_back(cpuS * 1e3);
            out.attempted++;
            if (!verdict.first.empty()) {
                out.failed++;
                out.notes.push_back("FAIL spec " + std::to_string(i) +
                                    ": " + verdict.first + " " +
                                    verdict.second);
            }
            if (traced) {
                // The same oracle in-process, outside the timed
                // operation: what the sandbox adds per attempt.
                gen::KernelSpec spec = makeSpec(seeds[i], i);
                auto t1 = Clock::now();
                gen::evaluateSpec(spec, inProcess);
                inProcessS += secondsSince(t1);
                sandboxedS += oracleS;
            }
        }
        (traced ? tracedWall : untracedWall).push_back(roundS);
        roundCpu.push_back(roundCpuS);
    }
    tracer.setEnabled(args.trace);

    // Untimed pass for the modelled totals: every kernel under Base
    // and every candidate design, in-process.
    ModelTotals model;
    for (unsigned i = 0; i < opts.runs; i++) {
        gen::KernelSpec spec = makeSpec(seeds[i], i);
        for (const auto &design : designs) {
            RunResult r;
            try {
                Workload w = [&] {
                    ScopedSpan span(tracer, "gen.lower");
                    return gen::buildWorkload(spec);
                }();
                int span = tracer.begin("sim.gpu_run");
                Gpu gpu(machine, design);
                r.stats = gpu.run(w.kernel, w.image);
                tracer.end(span);
                span = tracer.begin("energy.compute");
                r.energy = computeEnergy(r.stats);
                tracer.end(span);
                // The digest runWorkloadArch() takes of every run.
                ScopedSpan digest(tracer, "sim.digest");
                std::vector<u32> memory = w.image.snapshotGlobal();
                fnv1a64(memory.data(), memory.size() * sizeof(u32));
            } catch (const SimError &err) {
                out.correct = false;
                out.notes.push_back("spec " + std::to_string(i) + " " +
                                    design.name + " failed in-process: " +
                                    err.what());
                continue;
            }
            model.add(r.stats, r.energy);
        }
    }
    tracer.setEnabled(false);

    if (!args.trace) {
        addEndToEnd(out, setupS, median(roundCpu), median(untracedWall),
                    opMs, model);
        return out;
    }

    double passes = double(tracedWall.size());
    out.add("gen.generate_ms",
            tracer.selfSeconds("gen.generate") * 1e3 / passes, "ms");
    out.add("gen.oracle_ms",
            tracer.selfSeconds("gen.evaluate_spec") * 1e3 / passes,
            "ms");
    out.add("gen.specs", opts.runs, "count");
    out.add("gen.statements", double(statements), "count");
    out.add("gen.design_runs", double(opts.runs * designs.size()),
            "count");
    // The collect pass runs once, so its times are one pass's worth.
    addSimTimes(out, tracer.selfSeconds("sim.gpu_run"),
                tracer.selfSeconds("sim.digest") * 1e3,
                tracer.selfSeconds("energy.compute") * 1e6, model);
    addModelCounters(out, model);
    out.add("sweep.sandbox_ms",
            (sandboxedS - inProcessS) * 1e3 /
                (passes * double(opts.runs)),
            "ms");
    // Kernels are lowered by gen::buildWorkload, not makeWorkload,
    // and no result cache is involved.
    addNotExercised(out, {{"workloads.build_ms", "ms"},
                          {"sweep.requests", "count"},
                          {"sweep.memory_hits", "count"},
                          {"sweep.disk_hits", "count"},
                          {"sweep.simulated", "count"},
                          {"sweep.disk_stores", "count"},
                          {"sweep.dedup_ratio", "ratio"},
                          {"sweep.task_s", "s"},
                          {"sweep.cold_s", "s"},
                          {"sweep.warm_ms", "ms"}});
    addTraceOverhead(out, untracedWall, tracedWall);
    return out;
}

} // namespace simbench
