/**
 * @file
 * In-memory span recorder for the traced run.
 *
 * Spans are recorded by the benchmark around its calls into the
 * simulator's public functions (no tracing lives inside src/). Each
 * span has a name "<layer>.<what>", a start and end on the steady
 * clock, the span that was open when it began (its parent), and a
 * thread lane. Spans stay in memory until the run ends, then are
 * written as Chrome trace_event JSON and summarised as per-name
 * self time (duration minus the time its direct children cover).
 */

#ifndef SIMBENCH_TRACE_HH
#define SIMBENCH_TRACE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace simbench
{

class Tracer
{
  public:
    struct Span
    {
        std::string name;
        int64_t startNs = 0;
        int64_t endNs = 0;
        int parent = -1; ///< index of the parent span, -1 = root
        unsigned lane = 0; ///< trace thread id (0 = main thread)
    };

    struct SelfTime
    {
        int64_t selfNs = 0;
        uint64_t count = 0;
    };

    /** A disabled tracer records nothing; every call is a no-op. */
    explicit Tracer(bool enabled) : on(enabled) {}

    void setEnabled(bool enabled) { on = enabled; }

    /** Open a span on the main thread; returns its index or -1. */
    int begin(const char *name);
    void end(int index);

    /** Record a finished span on another lane (worker threads or
     * sandbox children whose intervals the benchmark reconstructs
     * after the fact), under `parent` (an index begin() or addSpan()
     * returned). Returns its index, or -1 when disabled. */
    int addSpan(const std::string &name, int64_t startNs,
                 int64_t endNs, unsigned lane, int parent = -1);

    /** Every span recorded so far, in the order they began. */
    const std::vector<Span> &spans() const { return all; }

    /** Self time and count per span name. */
    std::map<std::string, SelfTime> selfTimes() const;

    /** Self time of one name, in seconds (0 when never recorded). */
    double selfSeconds(const std::string &name) const;

    /** Write Chrome trace_event JSON ("X" events, microseconds). */
    bool writeChrome(const std::string &path) const;

  private:
    bool on;
    std::vector<Span> all;
    std::vector<int> stack;
};

/** RAII span on the main thread. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &tracer, const char *name)
        : tracer(tracer), index(tracer.begin(name))
    {
    }
    ~ScopedSpan() { tracer.end(index); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer &tracer;
    int index;
};

} // namespace simbench

#endif // SIMBENCH_TRACE_HH
