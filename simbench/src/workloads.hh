/**
 * @file
 * The benchmark's three workloads. Each one sets up, then runs
 * whole rounds of the same operations until --seconds is used up,
 * checks every operation's output, and returns its metrics: the
 * end-to-end ones untraced, the per-layer ones traced.
 */

#ifndef SIMBENCH_WORKLOADS_HH
#define SIMBENCH_WORKLOADS_HH

#include <initializer_list>
#include <utility>

#include "common.hh"
#include "sim/runner.hh"
#include "trace.hh"

namespace simbench
{

Result runTable1Grid(const Args &args, Tracer &tracer);
Result runFuzzDiff(const Args &args, Tracer &tracer);
Result runFigureSweep(const Args &args, Tracer &tracer);

/**
 * Round policy shared by the workloads: always run `minRounds`;
 * after that, start another round only while it is expected (at the
 * mean round time so far) to end within `seconds` of the first
 * round's start. A run therefore attempts a whole number of rounds.
 */
bool anotherRound(unsigned done, unsigned minRounds, double elapsedS,
                  double seconds);

/** Traced runs alternate untraced and traced rounds (untraced
 * first), so the tracing overhead is measured within one process. */
inline bool
tracedRound(const Args &args, unsigned round)
{
    return args.trace && round % 2 == 1;
}

/**
 * The traced form of runWorkload() (src/sim/runner.cc): the same
 * public calls in the same order, each inside its own span
 * (workloads.make, sim.gpu_run, energy.compute, sim.digest). If
 * runWorkload changes shape, this must follow.
 */
wir::RunResult runTraced(Tracer &tracer, const std::string &abbr,
                         const wir::DesignConfig &design,
                         const wir::MachineConfig &machine);

/**
 * Report per-layer metrics (name, unit) of a layer the workload does
 * not exercise as an explicit 0, so a traced run names every
 * per-layer metric and a missing one is an error.
 */
void addNotExercised(
    Result &out,
    std::initializer_list<std::pair<const char *, const char *>> metrics);

/** Set-up time: this process's CPU time so far. */
double setupSeconds();

/** Result of a --setup-only run. */
Result setupOnlyResult();

/** Untraced and traced rounds' wall-clock time and the tracing
 * overhead (their difference). */
void addTraceOverhead(Result &out, const std::vector<double> &untraced,
                      const std::vector<double> &traced);

} // namespace simbench

#endif // SIMBENCH_WORKLOADS_HH
