#include "common.hh"

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <ctime>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace simbench
{

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
cpuSeconds()
{
    struct rusage self = {}, children = {};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &children);
    auto seconds = [](const struct timeval &tv) {
        return double(tv.tv_sec) + double(tv.tv_usec) / 1e6;
    };
    return seconds(self.ru_utime) + seconds(self.ru_stime) +
           seconds(children.ru_utime) + seconds(children.ru_stime);
}

double
threadCpuSeconds()
{
    struct timespec thread = {};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &thread);
    struct rusage children = {};
    getrusage(RUSAGE_CHILDREN, &children);
    auto seconds = [](const struct timeval &tv) {
        return double(tv.tv_sec) + double(tv.tv_usec) / 1e6;
    };
    return double(thread.tv_sec) + double(thread.tv_nsec) / 1e9 +
           seconds(children.ru_utime) + seconds(children.ru_stime);
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    double pos = q * double(values.size() - 1);
    size_t lo = size_t(std::floor(pos));
    size_t hi = std::min(lo + 1, values.size() - 1);
    double frac = pos - double(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

double
peakRssMb()
{
    struct rusage self = {}, children = {};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &children);
    long kb = std::max(self.ru_maxrss, children.ru_maxrss);
    return double(kb) / 1024.0;
}

void
ModelTotals::add(const wir::SimStats &s, const wir::EnergyBreakdown &e)
{
    // SimStats::operator+= merges cycles with max() (one GPU's SMs);
    // across separate runs the cycles add up.
    uint64_t cycles = stats.cycles + s.cycles;
    stats += s;
    stats.cycles = cycles;
    gpuEnergyPj += e.gpuTotal();
    runs++;
}

bool
ModelTotals::operator==(const ModelTotals &o) const
{
    return stats.items() == o.stats.items() &&
           gpuEnergyPj == o.gpuEnergyPj && runs == o.runs;
}

void
addEndToEnd(Result &out, double setupS, double cpuS, double wallS,
            const std::vector<double> &opMs, const ModelTotals &model)
{
    const wir::SimStats &s = model.stats;
    out.add("cpu_s", cpuS, "s");
    out.add("setup_s", setupS, "s");
    out.add("op_ms_p50", quantile(opMs, 0.5), "ms");
    out.add("op_ms_p90", quantile(opMs, 0.9), "ms");
    out.add("sim_kcycles_per_s", double(s.cycles) / 1e3 / cpuS,
            "Kcycles/s");
    out.add("sim_kinstrs_per_s",
            double(s.warpInstsCommitted) / 1e3 / cpuS, "Kinstrs/s");
    out.add("peak_rss_mb", peakRssMb(), "MB");
    out.add("sim_cycles", double(s.cycles), "cycles");
    out.add("reused_warp_insts", double(s.warpInstsReused), "count");
    out.add("gpu_energy_uj", model.gpuEnergyPj / 1e6, "uJ");

    char line[160];
    std::snprintf(line, sizeof line,
                  "%zu operation samples (p90 has %zu beyond it); "
                  "round wall-clock time %.4f s",
                  opMs.size(), opMs.size() / 10, wallS);
    out.notes.push_back(line);
}

void
addModelCounters(Result &out, const ModelTotals &model)
{
    const wir::SimStats &s = model.stats;
    auto count = [&](const char *name, uint64_t v) {
        out.add(name, double(v), "count");
    };
    out.add("sim.sm_cycles", double(s.smCyclesTotal), "cycles");
    count("sim.runs", model.runs);
    count("timing.warp_insts_issued", s.warpInstsCommitted);
    count("timing.rf_bank_requests", s.rfBankRequests);
    count("timing.rf_bank_retries", s.rfBankRetries);
    count("timing.divergent_insts", s.divergentInsts);
    count("reuse.rb_lookups", s.reuseBufLookups);
    count("reuse.rb_hits", s.reuseBufHits);
    out.add("reuse.rb_hit_ratio",
            s.reuseBufLookups
                ? double(s.reuseBufHits) / double(s.reuseBufLookups)
                : 0.0,
            "ratio");
    count("reuse.pending_hits", s.reuseHitsPending);
    count("reuse.pending_queue_full", s.pendingQueueFull);
    count("reuse.vsb_lookups", s.vsbLookups);
    count("reuse.vsb_shares", s.vsbShares);
    count("reuse.verify_reads", s.verifyReads);
    count("reuse.refcount_ops", s.refcountOps);
    count("reuse.low_reg_evictions", s.lowRegEvictions);
    count("func.sp_activations", s.spActivations);
    count("func.sfu_activations", s.sfuActivations);
    count("func.mem_activations", s.memActivations);
    count("mem.l1_accesses", s.l1Accesses);
    count("mem.l1_misses", s.l1Misses);
    count("mem.l2_accesses", s.l2Accesses);
    count("mem.l2_misses", s.l2Misses);
    count("mem.dram_accesses", s.dramAccesses);
    count("mem.noc_flits", s.nocFlits);
}

void
addSimTimes(Result &out, double gpuRunS, double digestMs,
            double energyUs, const ModelTotals &model)
{
    const wir::SimStats &s = model.stats;
    out.add("sim.gpu_run_s", gpuRunS, "s");
    out.add("sim.ns_per_sm_cycle",
            s.smCyclesTotal ? gpuRunS * 1e9 / double(s.smCyclesTotal)
                            : 0.0,
            "ns");
    out.add("sim.ns_per_warp_inst",
            s.warpInstsCommitted
                ? gpuRunS * 1e9 / double(s.warpInstsCommitted)
                : 0.0,
            "ns");
    out.add("sim.digest_ms", digestMs, "ms");
    out.add("energy.compute_us", energyUs, "us");
}

StdoutToFile::StdoutToFile(const std::string &path)
{
    std::fflush(stdout);
    int fd = open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0)
        return;
    saved = dup(STDOUT_FILENO);
    if (saved >= 0)
        dup2(fd, STDOUT_FILENO);
    close(fd);
}

StdoutToFile::~StdoutToFile()
{
    if (saved < 0)
        return;
    std::fflush(stdout);
    dup2(saved, STDOUT_FILENO);
    close(saved);
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

} // namespace simbench
