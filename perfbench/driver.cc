/**
 * @file
 * Benchmark driver: runs one workload as a closed loop with one op in
 * flight and prints the end-to-end metrics (untraced run) or the
 * per-layer metrics (traced run) as the last line of stdout.
 *
 *   perfbench_driver --workload <name> --seed <n> --seconds <s>
 *                    --trace <0|1> [--golden <file>]
 *                    [--chrome-trace <file>]
 *   perfbench_driver --workload <name> --record-golden <count>
 *
 * Op i of a run uses seed n + i. Set-up (inputs plus one untimed
 * warm-up op, cold route cache) is repeated and its median reported.
 * Every op's output is checked outside its timer: invariants that
 * hold for any seed, plus a bitwise digest comparison against the
 * values recorded in the golden file for the seeds it covers; the
 * first op is also compared against the scalar reference where the
 * workload has one. An untraced run turns the stats registry off; a
 * traced run measures half its time untraced and half traced, and
 * reads per-op counter deltas from obs::Registry.
 */

#include "harness.hh"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>
#include <vector>

#include "common/thread_pool.hh"
#include "net/route_cache.hh"
#include "numerics/dispatch.hh"
#include "obs/registry.hh"
#include "obs/timeline.hh"

namespace perfbench {

Span::Span(OpTrace *trace, const char *name)
    : trace_(trace), name_(name)
{
    if (trace_)
        start_ = Clock::now();
}

Span::~Span()
{
    if (!trace_)
        return;
    const Clock::time_point end = Clock::now();
    trace_->values[name_] +=
        std::chrono::duration<double, std::milli>(end - start_).count();
    if (trace_->timeline) {
        auto since = [&](Clock::time_point t) {
            return std::chrono::duration<double>(t - trace_->epoch)
                .count();
        };
        trace_->timeline->duration(1, 1, name_, since(start_),
                                   since(end));
    }
}

} // namespace perfbench

namespace {

using namespace perfbench;

/** Host seconds elapsed since @p t0. */
double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Registry counters read as per-op deltas in traced runs. */
const char *const kCounters[] = {
    "moe.gate.tokens_routed",
    "net.flow.epochs",
    "net.flow.solver_iterations",
    "net.flow.heap_pops",
    "net.flow.heap_stale_pops",
    "net.flow.flows_retired",
    "net.route_cache.hits",
    "net.route_cache.misses",
    "inference.serving.decode_steps",
    "inference.serving.decode_tokens",
    "inference.serving.completed",
    "inference.serving.preemptions",
    "inference.serving.retries",
    "inference.serving.failovers",
    "inference.serving.engine_deaths",
    "inference.serving.sheds",
    "inference.serving.retry_exhausted",
    "inference.serving.step_cache.hits",
    "inference.serving.step_cache.misses",
    "numerics.gemm.tiles",
    "numerics.gemm.elements",
};

constexpr std::size_t kSetupReps = 9;
constexpr double kSetupBudgetSeconds = 5.0;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string golden;
    std::string chromeTrace;
    long recordGolden = -1;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench_driver: " << why << "\n"
              << "usage: perfbench_driver --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--golden <file>] "
                 "[--chrome-trace <file>]\n"
                 "       perfbench_driver --workload <name> "
                 "--record-golden <count>\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        std::string v = argv[++i];
        try {
            if (flag == "--workload")
                a.workload = v;
            else if (flag == "--seed")
                a.seed = std::stoull(v);
            else if (flag == "--seconds")
                a.seconds = std::stod(v);
            else if (flag == "--trace")
                a.trace = std::stoi(v) != 0;
            else if (flag == "--golden")
                a.golden = v;
            else if (flag == "--chrome-trace")
                a.chromeTrace = v;
            else if (flag == "--record-golden")
                a.recordGolden = std::stol(v);
            else
                usage("unknown flag " + flag);
        } catch (const std::logic_error &) {
            usage("bad value for " + flag + ": " + v);
        }
    }
    if (a.workload.empty())
        usage("--workload is required");
    if (!(a.seconds > 0.0))
        usage("--seconds must be positive");
    return a;
}

/** Golden digests of one workload, keyed by op seed. */
std::map<std::uint64_t, std::uint64_t>
loadGolden(const std::string &path, const std::string &workload)
{
    std::map<std::uint64_t, std::uint64_t> out;
    if (path.empty())
        return out;
    std::ifstream in(path);
    if (!in) {
        std::cerr << "perfbench_driver: cannot read " << path << "\n";
        std::exit(2);
    }
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream s(line);
        std::string name, hex;
        std::uint64_t seed = 0;
        if (!(s >> name >> seed >> hex)) {
            std::cerr << "perfbench_driver: bad golden line: " << line
                      << "\n";
            std::exit(2);
        }
        if (name == workload)
            out[seed] = std::stoull(hex, nullptr, 16);
    }
    return out;
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * (double)(v.size() - 1);
    const std::size_t lo = (std::size_t)pos;
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - (double)lo) * (v[hi] - v[lo]);
}

double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return (double)ts.tv_sec + 1e-9 * (double)ts.tv_nsec;
}

/** Summed seconds pool helpers spent running parallelFor bodies. */
double
poolHelperSeconds()
{
    const dsv3::obs::Distribution &d =
        dsv3::obs::Registry::global().distribution(
            "common.pool.task_seconds", 0.0, 1.0, 20);
    return d.mean() * (double)d.count();
}

/**
 * Pin the calling thread to the last CPU it may run on. Host speed on
 * a shared VM drifts per CPU; a thread that migrates samples every
 * CPU's drift, while a pinned one sees a steadier single CPU. Returns
 * the CPU, or -1 when the mask cannot be read or set.
 */
int
pinCallerThread()
{
    cpu_set_t mask;
    CPU_ZERO(&mask);
    if (pthread_getaffinity_np(pthread_self(), sizeof mask, &mask) != 0)
        return -1;
    int cpu = -1;
    for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &mask))
            cpu = c;
    if (cpu < 0)
        return -1;
    CPU_ZERO(&mask);
    CPU_SET(cpu, &mask);
    return pthread_setaffinity_np(pthread_self(), sizeof mask, &mask) == 0
        ? cpu : -1;
}

struct Phase
{
    std::size_t attempted = 0;
    std::vector<double> opMs;
    std::vector<std::map<std::string, double>> traced; // per op
    std::size_t failed = 0;
    std::size_t goldenChecked = 0;
};

/**
 * Closed loop for @p seconds of host time from op seed @p first_seed.
 * Returns the ops' host times and, when @p traced, their layer data.
 */
Phase
runPhase(Workload &w, std::uint64_t first_seed, double seconds,
         bool traced, bool thorough_first,
         const std::map<std::uint64_t, std::uint64_t> &golden,
         dsv3::obs::Timeline *timeline, Clock::time_point epoch)
{
    dsv3::obs::setStatsEnabled(traced);
    dsv3::obs::Registry &reg = dsv3::obs::Registry::global();
    Phase p;
    const Clock::time_point start = Clock::now();
    for (std::uint64_t i = 0; i == 0 || secondsSince(start) < seconds;
         ++i) {
        const std::uint64_t seed = first_seed + i;
        ++p.attempted;
        std::string err;
        try {
            w.prepare(seed);
            OpTrace trace;
            trace.timeline = timeline;
            trace.epoch = epoch;
            std::uint64_t before[std::size(kCounters)] = {};
            double helper0 = 0.0, cpu0 = 0.0;
            if (traced) {
                for (std::size_t c = 0; c < std::size(kCounters); ++c)
                    before[c] = reg.counter(kCounters[c]).value();
                helper0 = poolHelperSeconds();
                cpu0 = threadCpuSeconds();
            }
            const Clock::time_point t0 = Clock::now();
            w.run(traced ? &trace : nullptr);
            const double ms =
                std::chrono::duration<double, std::milli>(Clock::now() -
                                                          t0)
                    .count();
            p.opMs.push_back(ms);
            if (traced) {
                auto &v = trace.values;
                v["op"] = ms;
                v["pool.busy_s"] = threadCpuSeconds() - cpu0 +
                                   poolHelperSeconds() - helper0;
                for (std::size_t c = 0; c < std::size(kCounters); ++c)
                    v[kCounters[c]] =
                        (double)(reg.counter(kCounters[c]).value() -
                                 before[c]);
                w.replay(trace);
                if (v.count("ep.round"))
                    v["ep.traffic_flow"] = v["ep.round"] -
                                           v["moe.token_gen"] -
                                           v["moe.gate_route"];
                p.traced.push_back(std::move(v));
            }
            err = w.check(thorough_first && i == 0);
            auto g = golden.find(seed);
            if (g != golden.end()) {
                ++p.goldenChecked;
                if (g->second != w.digest()) {
                    char buf[96];
                    std::snprintf(buf, sizeof buf,
                                  "digest %016" PRIx64
                                  " != recorded %016" PRIx64,
                                  w.digest(), g->second);
                    err += buf;
                }
            }
        } catch (const std::exception &e) {
            err = std::string("exception: ") + e.what();
        }
        if (!err.empty()) {
            ++p.failed;
            std::cout << "FAILED op seed " << seed << ": " << err
                      << "\n";
        }
    }
    return p;
}

/** Per-layer metrics of a traced phase (see NOTES.md for the map). */
std::vector<std::pair<std::string, std::pair<double, const char *>>>
layerMetrics(const Phase &traced, double untraced_p50,
             std::size_t width)
{
    auto col = [&](const char *key) {
        std::vector<double> v;
        for (const auto &op : traced.traced) {
            auto it = op.find(key);
            v.push_back(it == op.end() ? 0.0 : it->second);
        }
        return v;
    };
    auto sum = [&](const char *key) {
        double s = 0.0;
        for (double x : col(key))
            s += x;
        return s;
    };
    auto med = [&](const char *key) { return quantile(col(key), 0.5); };
    const double ops = (double)std::max<std::size_t>(
        traced.traced.size(), 1);
    auto mean = [&](const char *key) { return sum(key) / ops; };
    auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    const double hits = sum("net.route_cache.hits");
    const double step_hits = sum("inference.serving.step_cache.hits");
    return {
        {"moe.token_gen_ms", {med("moe.token_gen"), "ms"}},
        {"moe.gate_route_ms", {med("moe.gate_route"), "ms"}},
        {"moe.share",
         {ratio(sum("moe.token_gen") + sum("moe.gate_route"),
                sum("ep.round")),
          "ratio"}},
        {"moe.tokens_routed", {mean("moe.gate.tokens_routed"), "count"}},
        {"ep.round_ms", {med("ep.round"), "ms"}},
        {"ep.traffic_flow_ms", {med("ep.traffic_flow"), "ms"}},
        {"net.flow.epochs", {mean("net.flow.epochs"), "count"}},
        {"net.flow.solver_iterations",
         {mean("net.flow.solver_iterations"), "count"}},
        {"net.flow.heap_pops", {mean("net.flow.heap_pops"), "count"}},
        {"net.flow.flows_retired",
         {mean("net.flow.flows_retired"), "count"}},
        {"net.flow.stale_pop_ratio",
         {ratio(sum("net.flow.heap_stale_pops"),
                sum("net.flow.heap_pops")),
          "ratio"}},
        {"net.flow.us_per_epoch",
         {ratio(1e3 * sum("ep.traffic_flow"), sum("net.flow.epochs")),
          "us"}},
        {"net.route_cache.hit_ratio",
         {ratio(hits, hits + sum("net.route_cache.misses")), "ratio"}},
        {"serving.simulate_ms", {med("serving.simulate"), "ms"}},
        {"serving.traffic_ms", {med("serving.traffic"), "ms"}},
        {"serving.decode_steps",
         {mean("inference.serving.decode_steps"), "count"}},
        {"serving.decode_tokens",
         {mean("inference.serving.decode_tokens"), "count"}},
        {"serving.completed",
         {mean("inference.serving.completed"), "count"}},
        {"serving.ns_per_decode_step",
         {ratio(1e6 * sum("serving.simulate"),
                sum("inference.serving.decode_steps")),
          "ns"}},
        {"serving.step_cache_hit_ratio",
         {ratio(step_hits,
                step_hits +
                    sum("inference.serving.step_cache.misses")),
          "ratio"}},
        {"serving.preemptions",
         {mean("inference.serving.preemptions"), "count"}},
        {"serving.kv_high_water_blocks",
         {mean("serving.kv_high_water_blocks"), "count"}},
        {"serving.retries", {mean("inference.serving.retries"), "count"}},
        {"serving.failovers",
         {mean("inference.serving.failovers"), "count"}},
        {"serving.engine_deaths",
         {mean("inference.serving.engine_deaths"), "count"}},
        {"serving.sheds", {mean("inference.serving.sheds"), "count"}},
        {"serving.failed",
         {mean("inference.serving.retry_exhausted"), "count"}},
        {"numerics.quantize_ms", {med("numerics.quantize"), "ms"}},
        {"numerics.gemm_ms", {med("numerics.gemm"), "ms"}},
        {"numerics.logfmt_ms", {med("numerics.logfmt"), "ms"}},
        {"numerics.gemm_tiles", {mean("numerics.gemm.tiles"), "count"}},
        {"numerics.gemm_elements",
         {mean("numerics.gemm.elements"), "count"}},
        {"common.pool.busy_ratio",
         {ratio(1e3 * sum("pool.busy_s"), sum("op") * (double)width),
          "ratio"}},
        {"obs.trace_overhead_ratio",
         {ratio(quantile(traced.opMs, 0.5), untraced_p50), "ratio"}},
    };
}

std::string
jsonNumber(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

int
recordGolden(Workload &w, const Args &a)
{
    w.setup();
    std::cout << "# " << a.workload << ": " << w.opName() << "\n";
    for (long s = 0; s < a.recordGolden; ++s) {
        w.prepare((std::uint64_t)s);
        w.run(nullptr);
        std::string err = w.check(false);
        if (!err.empty()) {
            std::cerr << "seed " << s << " fails its check: " << err
                      << "\n";
            return 1;
        }
        std::printf("%s %ld %016" PRIx64 "\n", a.workload.c_str(), s,
                    w.digest());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Clock::time_point t_start = Clock::now();
    const Args a = parseArgs(argc, argv);
    if (!makeWorkload(a.workload))
        usage("unknown workload " + a.workload);

    const std::size_t nproc =
        std::max(1u, std::thread::hardware_concurrency());
    // parallelFor runs serially. On the 4-vCPU VM the benchmark was
    // defined on, pool helpers stall for seconds at a time, so widths
    // 2 and 4 spread fp8_gemm's per-run medians by 17-100% (NOTES.md).
    const std::size_t width = 1;
    dsv3::setParallelForWidth(width);
    dsv3::obs::setStatsEnabled(false);
    const int cpu = pinCallerThread();

    if (a.recordGolden >= 0) {
        auto w = makeWorkload(a.workload);
        return recordGolden(*w, a);
    }
    const auto golden = loadGolden(a.golden, a.workload);

    // Set-up: inputs + one untimed warm-up op from a cold route cache,
    // repeated; the first repetition also covers process start-up.
    std::unique_ptr<Workload> w;
    std::vector<double> setup_s;
    const Clock::time_point setup_start = Clock::now();
    while (setup_s.size() < kSetupReps &&
           (setup_s.empty() ||
            secondsSince(setup_start) < kSetupBudgetSeconds)) {
        const Clock::time_point t0 =
            setup_s.empty() ? t_start : Clock::now();
        dsv3::net::RouteCache::global().clear();
        w = makeWorkload(a.workload);
        w->setup();
        w->prepare(a.seed);
        w->run(nullptr);
        setup_s.push_back(secondsSince(t0));
    }

    std::cout << "workload " << a.workload << ": " << w->opName()
              << "; " << w->itemsPerOp() << " " << w->itemUnit()
              << "/op; closed loop, 1 op in flight\n"
              << "host: isa " << dsv3::numerics::isaName(
                                     dsv3::numerics::activeIsa())
              << ", parallelFor width " << width << ", nproc " << nproc
              << ", caller pinned to cpu " << cpu
              << "; seeds " << a.seed << "+i\n";

    std::unique_ptr<dsv3::obs::Timeline> timeline;
    if (a.trace && !a.chromeTrace.empty())
        timeline = std::make_unique<dsv3::obs::Timeline>();

    // Untraced phase (all of an untraced run, half of a traced one).
    const double untraced_s = a.trace ? a.seconds / 2 : a.seconds;
    Phase plain = runPhase(*w, a.seed, untraced_s, false, true, golden,
                           nullptr, t_start);
    Phase traced;
    if (a.trace)
        traced = runPhase(*w, a.seed, a.seconds / 2, true, false,
                          golden, timeline.get(), t_start);

    const std::size_t attempted = plain.attempted + traced.attempted;
    const std::size_t failed = plain.failed + traced.failed;
    double total_ms = 0.0;
    for (double ms : plain.opMs)
        total_ms += ms;
    const double p50 = quantile(plain.opMs, 0.5);
    const double p90 = quantile(plain.opMs, 0.9);
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);

    std::cout << "untraced ops " << plain.opMs.size() << " (p90 has "
              << plain.opMs.size() - (std::size_t)(0.9 *
                                                   plain.opMs.size())
              << " samples above it)";
    if (a.trace)
        std::cout << ", traced ops " << traced.opMs.size();
    std::cout << "; golden-checked " << plain.goldenChecked +
                                            traced.goldenChecked
              << "; failed " << failed << "; error_ratio "
              << (double)failed / (double)attempted << "\n";

    std::vector<std::pair<std::string, std::pair<double, const char *>>>
        metrics;
    if (a.trace) {
        metrics = layerMetrics(traced, p50, width);
        if (timeline)
            timeline->writeChromeJson(a.chromeTrace);
    } else {
        metrics = {
            {"setup_s", {quantile(setup_s, 0.5), "s"}},
            {"ops_per_s", {1e3 * (double)plain.opMs.size() / total_ms,
                           "1/s"}},
            {"op_ms_p50", {p50, "ms"}},
            {"op_ms_p90", {p90, "ms"}},
            {"peak_rss_mb", {(double)ru.ru_maxrss / 1024.0, "MB"}},
        };
        std::cout << "setup_s samples:";
        for (double s : setup_s)
            std::cout << " " << s;
        std::cout << "\n";
    }

    std::ostringstream out;
    out << "{\"correct\": " << (failed == 0 ? "true" : "false")
        << ", \"attempted\": " << attempted << ", \"failed\": " << failed
        << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        out << (i ? ", " : "") << "\"" << metrics[i].first
            << "\": {\"value\": " << jsonNumber(metrics[i].second.first)
            << ", \"unit\": \"" << metrics[i].second.second << "\"}";
    }
    out << "}}";
    std::cout << out.str() << std::endl;
    return 0;
}
