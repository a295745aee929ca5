/**
 * @file
 * Outside-in benchmark harness: the workload interface the driver
 * runs and harness-side spans.
 *
 * Every workload calls only the simulator's public entry points. An
 * op is one call chain with one op in flight (closed loop); its
 * inputs come from the op's seed and are made before its timer
 * starts. Traced runs wrap harness spans around those same public
 * calls and replay the layer calls an op makes internally (token
 * synthesis, gate routing, trace generation, quantization), so the
 * per-layer split needs no instrumentation inside src/.
 */

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

namespace dsv3::obs {
class Timeline;
}

namespace perfbench {

using Clock = std::chrono::steady_clock;

/**
 * What a traced op records: host milliseconds per harness span name
 * (summed when a name repeats within the op) and per-op values a
 * workload reads off its own output. Spans also go to the run's
 * Chrome trace when one is attached.
 */
struct OpTrace
{
    dsv3::obs::Timeline *timeline = nullptr;
    Clock::time_point epoch;   //!< timeline time zero
    std::map<std::string, double> values;
};

/** Scoped harness span; a no-op when @p trace is null. */
class Span
{
  public:
    Span(OpTrace *trace, const char *name);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    OpTrace *trace_;
    const char *name_;
    Clock::time_point start_;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** The op, e.g. "one simulateDeepEp round". */
    virtual std::string opName() const = 0;
    /** Items one op processes, e.g. 8192. */
    virtual double itemsPerOp() const = 0;
    /** Unit of itemsPerOp(), e.g. "tokens". */
    virtual std::string itemUnit() const = 0;

    /** Builds the op-independent inputs (cluster, fleet shape). */
    virtual void setup() = 0;
    /** Makes the op's inputs from @p seed; untimed. */
    virtual void prepare(std::uint64_t seed) = 0;
    /** The timed op. @p trace is null in untraced runs. */
    virtual void run(OpTrace *trace) = 0;
    /**
     * Traced runs only, after the op's timer stopped: replay the
     * layer calls the op made internally under harness spans.
     */
    virtual void replay(OpTrace &) {}
    /**
     * Invariants of the last op's output that hold for every seed.
     * @p thorough adds the costly reference comparisons. Returns an
     * empty string when they hold, else what failed.
     */
    virtual std::string check(bool thorough) = 0;
    /** Digest of every simulated statistic of the last output. */
    virtual std::uint64_t digest() const = 0;
};

/** The named workload, or nullptr when @p name is unknown. */
std::unique_ptr<Workload> makeWorkload(const std::string &name);

} // namespace perfbench
