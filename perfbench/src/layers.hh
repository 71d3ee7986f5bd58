/**
 * @file
 * Outside-in layer tracing for the simulator benchmark.
 *
 * The traced run wraps the two per-call layers a cell's System drives
 * from outside — the RowHammer mitigation (installed through the
 * MitigationFactory) and each core's TraceSource (passed to setTrace) —
 * in decorators that count every call and time one call in
 * kSampleEvery. Coarse phases (workload, cell, build, warm-up,
 * measure) are recorded as spans in an in-memory SpanLog that is
 * written out once, when the benchmark ends. Per-call layers are only
 * aggregated: no span is ever written per call.
 *
 * Both decorators are transparent: every virtual is forwarded, so a
 * traced cell's simulated results equal the untraced cell's exactly
 * (the benchmark checks this on every traced run).
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/trace.hh"
#include "mem/mitigation.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Host seconds since the first call in this process. */
double nowS();

/**
 * One decorated call in this many is timed. Timing every call doubles
 * the cost of the cheapest hooks (the clock read is most of it); every
 * call is still counted.
 */
constexpr std::uint64_t kSampleEvery = 64;

/**
 * Apparent duration of an empty timed region (median of back-to-back
 * clock reads), measured once per process and subtracted from every
 * timed call: on a virtual machine the clock read can cost more than
 * the hook it times.
 */
double clockOverheadNs();

/** Calls through one decorated entry point. */
struct CallStat
{
    std::uint64_t calls = 0;
    std::uint64_t timed = 0;
    std::uint64_t timedNs = 0;

    /**
     * Estimated host ns over all calls: the timed mean, less the clock
     * overhead, times calls.
     */
    double estNs() const;

    void add(const CallStat &other);
};

/** Scoped timer of one decorated call; times 1 in kSampleEvery. */
class SampledCall
{
  public:
    explicit SampledCall(CallStat &s)
        : stat(s), on(s.calls++ % kSampleEvery == 0)
    {
        if (on)
            t0 = Clock::now();
    }

    ~SampledCall()
    {
        if (!on)
            return;
        stat.timedNs += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - t0).count());
        ++stat.timed;
    }

    SampledCall(const SampledCall &) = delete;
    SampledCall &operator=(const SampledCall &) = delete;

  private:
    CallStat &stat;
    bool on;
    Clock::time_point t0;
};

/** Per-call layer counters of one traced cell. */
struct LayerCalls
{
    CallStat safe;  ///< Mitigation::isActSafe
    CallStat act;   ///< Mitigation::onActivate
    CallStat tick;  ///< Mitigation::tick
    CallStat next;  ///< TraceSource::next (the workloads layer)

    /** Estimated host ns inside the mitigation hooks. */
    double mitigNs() const;

    void add(const LayerCalls &other);
};

/**
 * Mitigation decorator: forwards every Mitigation virtual to the
 * wrapped mechanism and counts (and samples the time of) the per-ACT
 * and per-tick hooks.
 */
class TracedMitigation : public bh::Mitigation
{
  public:
    TracedMitigation(std::unique_ptr<bh::Mitigation> inner_mech,
                     LayerCalls &calls);

    std::string name() const override { return inner->name(); }

    bool
    isActSafe(unsigned bank, bh::RowId row, bh::ThreadId thread,
              bh::Cycle now) override
    {
        SampledCall timer(counts.safe);
        return inner->isActSafe(bank, row, thread, now);
    }

    void
    onActivate(unsigned bank, bh::RowId row, bh::ThreadId thread,
               bh::Cycle now) override
    {
        SampledCall timer(counts.act);
        inner->onActivate(bank, row, thread, now);
    }

    void
    tick(bh::Cycle now) override
    {
        SampledCall timer(counts.tick);
        inner->tick(now);
    }

    void
    onAutoRefresh(bh::RowId first_row, unsigned num_rows,
                  bh::Cycle now) override
    {
        inner->onAutoRefresh(first_row, num_rows, now);
    }

    bh::Cycle
    nextHousekeepingAt(bh::Cycle now) const override
    {
        return inner->nextHousekeepingAt(now);
    }

    bh::Cycle
    nextVerdictChangeAt(bh::Cycle now) const override
    {
        return inner->nextVerdictChangeAt(now);
    }

    void
    noteSkippedTicks(std::uint64_t n) override
    {
        inner->noteSkippedTicks(n);
    }

    int
    quota(bh::ThreadId thread, unsigned bank) const override
    {
        return inner->quota(thread, bank);
    }

    int
    threadQuota(bh::ThreadId thread) const override
    {
        return inner->threadQuota(thread);
    }

    void setController(bh::MemController *mc) override;
    void syncStats() override;

  private:
    std::unique_ptr<bh::Mitigation> inner;
    LayerCalls &counts;
};

/** TraceSource decorator counting (and sampling) next() calls. */
class TracedTrace : public bh::TraceSource
{
  public:
    TracedTrace(std::unique_ptr<bh::TraceSource> inner_trace,
                LayerCalls &calls)
        : inner(std::move(inner_trace)), counts(calls)
    {
    }

    bool
    next(bh::TraceEntry &entry) override
    {
        SampledCall timer(counts.next);
        return inner->next(entry);
    }

    void reset() override { inner->reset(); }

  private:
    std::unique_ptr<bh::TraceSource> inner;
    LayerCalls &counts;
};

/** One recorded interval; parent -1 marks a root. */
struct Span
{
    std::string name;
    int id = 0;
    int parent = -1;
    double startS = 0.0;
    double endS = 0.0;

    double durS() const { return endS - startS; }
};

/** In-memory span log shared by worker threads. */
class SpanLog
{
  public:
    /** Open a span now; returns its id. */
    int begin(const std::string &name, int parent);

    /** Close span `id` now. */
    void end(int id);

    /** Copy of every span, in opening order. */
    std::vector<Span> spans() const;

    /**
     * Chrome trace-event JSON of the log (one row per root-level cell,
     * so concurrently running cells do not overlap in a viewer).
     */
    std::string chromeJson() const;

  private:
    mutable std::mutex mtx;
    std::vector<Span> log;
};

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
