/**
 * @file
 * Shared pieces of the benchmark binary: command-line options, the
 * result every workload returns, timing and order statistics, and
 * the modelled-GPU totals that all three workloads report.
 */

#ifndef SIMBENCH_COMMON_HH
#define SIMBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "energy/energy_model.hh"

namespace simbench
{

using Clock = std::chrono::steady_clock;

/** Nanoseconds on the steady clock. */
int64_t nowNs();

double secondsSince(Clock::time_point start);

/**
 * CPU time used so far by this process and its reaped children
 * (sandbox children), user + system, in seconds. The guest kernel
 * leaves out the time the VM was descheduled (steal), which wall
 * time counts.
 */
double cpuSeconds();

/**
 * CPU time used so far by the calling thread plus every child the
 * process has reaped, user + system, in seconds. When one thread is
 * the only one that forks and reaps, the difference of two readings
 * on it is its own work plus that of the children it reaped between
 * them, whatever the other threads do.
 */
double threadCpuSeconds();

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Scratch directory for disk caches, figure output and traces. */
    std::string outDir = ".bench_build/run";
    /** Stop after set-up and report only setup_s. */
    bool setupOnly = false;
};

/** One named metric value with its unit. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** What one workload run reports. */
struct Result
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<Metric> metrics;
    /** Human-readable lines printed to stderr after the run. */
    std::vector<std::string> notes;

    void add(const std::string &name, double value,
             const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }
};

/** Linear-interpolated quantile q in [0, 1] (NumPy's default). */
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

/** Peak resident set of this process and of its largest waited-for
 * child (sandbox children), in MB. */
double peakRssMb();

/**
 * Modelled-GPU totals over a set of simulations: what the simulated
 * machine did, independent of host speed. They repeat exactly for a
 * given workload and seed.
 */
struct ModelTotals
{
    wir::SimStats stats; ///< counters summed over the runs
    double gpuEnergyPj = 0;
    uint64_t runs = 0;

    void add(const wir::SimStats &s, const wir::EnergyBreakdown &e);
    bool operator==(const ModelTotals &o) const;
};

/** End-to-end metrics shared by all workloads, in BENCHMARK.json
 * order. `cpuS` is the host CPU time of one round (median over the
 * rounds), `opMs` every operation's host time, `setupS` the CPU time
 * from process start to the first timed operation. `wallS`, the
 * round's wall-clock time, goes to the notes. */
void addEndToEnd(Result &out, double setupS, double cpuS, double wallS,
                 const std::vector<double> &opMs,
                 const ModelTotals &model);

/**
 * Per-layer counters of the simulated machine (timing, reuse, func,
 * mem, and the sim run/cycle counts), one pass's worth.
 */
void addModelCounters(Result &out, const ModelTotals &model);

/** Host time of the sim layer for one pass, with its per-event
 * rates. */
void addSimTimes(Result &out, double gpuRunS, double digestMs,
                 double energyUs, const ModelTotals &model);

/** Redirect stdout (fd 1) into a file for the lifetime of the
 * object, so figure tables do not mix with the result line. */
class StdoutToFile
{
  public:
    explicit StdoutToFile(const std::string &path);
    ~StdoutToFile();
    StdoutToFile(const StdoutToFile &) = delete;
    StdoutToFile &operator=(const StdoutToFile &) = delete;

  private:
    int saved = -1;
};

std::string readFile(const std::string &path);

} // namespace simbench

#endif // SIMBENCH_COMMON_HH
