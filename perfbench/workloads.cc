/**
 * @file
 * The benchmark's workloads. Why each exists, which layers it
 * stresses and which it bypasses is recorded in NOTES.md; the shapes
 * here are the single source of those numbers.
 */

#include "harness.hh"

#include <bit>
#include <cmath>
#include <sstream>

#include "common/rng.hh"
#include "ep/deepep.hh"
#include "fault/schedule.hh"
#include "inference/serving/chaos.hh"
#include "inference/serving/simulator.hh"
#include "inference/serving/traffic.hh"
#include "model/config.hh"
#include "model/kv_cache.hh"
#include "moe/gate.hh"
#include "moe/token_gen.hh"
#include "net/cluster.hh"
#include "numerics/gemm.hh"
#include "numerics/logfmt.hh"
#include "numerics/quantize.hh"

namespace perfbench {

using namespace dsv3;
namespace sv = dsv3::inference::serving;

namespace {

/** FNV-1a over the bit patterns of every statistic fed in. */
class Digest
{
  public:
    void add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xffu;
            h_ *= 0x100000001b3ULL;
        }
    }
    void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// --------------------------------------------------------------- EP

/**
 * One DeepEP dispatch+combine round on an MPFT cluster with the
 * paper's Fig 7 gate (256 experts, top-8, 8 groups, node-limited to
 * 4). The op seed is the token-synthesis seed.
 */
class DeepEpRound : public Workload
{
  public:
    DeepEpRound(std::size_t hosts, std::size_t tokens_per_gpu)
        : hosts_(hosts), tokensPerGpu_(tokens_per_gpu)
    {}

    std::string opName() const override
    {
        std::ostringstream s;
        s << "one simulateDeepEp round, " << hosts_ * 8 << " GPUs x "
          << tokensPerGpu_ << " tokens/GPU";
        return s.str();
    }
    double itemsPerOp() const override
    {
        return (double)(hosts_ * 8 * tokensPerGpu_);
    }
    std::string itemUnit() const override { return "tokens"; }

    void setup() override
    {
        net::ClusterConfig cc;
        cc.fabric = net::Fabric::MPFT;
        cc.hosts = hosts_;
        cluster_ = net::buildCluster(cc);
        work_ = ep::EpWorkload{};
        work_.tokensPerGpu = tokensPerGpu_;
        work_.gate.experts = 256;
        work_.gate.topK = 8;
        work_.gate.groups = 8;
        work_.gate.topKGroups = 4;
    }

    void prepare(std::uint64_t seed) override { work_.seed = seed; }

    void run(OpTrace *trace) override
    {
        Span span(trace, "ep.round");
        result_ = ep::simulateDeepEp(cluster_, work_);
    }

    /** The token synthesis and gate calls routeAllTokens() makes. */
    void replay(OpTrace &trace) override
    {
        const moe::GateConfig &g = work_.gate;
        moe::TopKGate gate(g);
        std::vector<std::vector<double>> logits(work_.tokensPerGpu);
        for (std::size_t src = 0; src < cluster_.gpus.size(); ++src) {
            moe::TokenScoreGenerator gen(g.experts,
                                         work_.popularitySkew,
                                         work_.seed + src);
            {
                Span span(&trace, "moe.token_gen");
                for (auto &l : logits)
                    l = gen.next();
            }
            Span span(&trace, "moe.gate_route");
            for (const auto &l : logits)
                gate.route(l);
        }
    }

    std::string check(bool) override
    {
        const ep::EpResult &r = result_;
        const double nic = cluster_.config.nic.bandwidth;
        std::ostringstream err;
        // A saturated NIC runs exactly at line rate; the tolerance
        // only absorbs the fluid model's rounding.
        for (double bw : {r.dispatchGBsPerGpu, r.combineGBsPerGpu}) {
            if (!std::isfinite(bw) || bw <= 0.0 ||
                bw > nic * (1.0 + 1e-9))
                err << "NIC rate " << bw << " B/s outside (0, " << nic
                    << "]; ";
        }
        const double max_nodes =
            (double)std::min(hosts_, work_.gate.topK);
        if (!(r.meanNodesTouched >= 1.0 &&
              r.meanNodesTouched <= max_nodes))
            err << "meanNodesTouched " << r.meanNodesTouched << "; ";
        if (!(r.meanGpusTouched >= r.meanNodesTouched &&
              r.meanGpusTouched <= (double)work_.gate.topK))
            err << "meanGpusTouched " << r.meanGpusTouched << "; ";
        if (r.droppedDeliveries != 0.0 || r.relayFallbacks != 0 ||
            r.stalledTransfers != 0 || r.dispatchRetrySeconds != 0.0 ||
            r.combineRetrySeconds != 0.0)
            err << "healthy round reports degradation; ";
        return err.str();
    }

    std::uint64_t digest() const override
    {
        const ep::EpResult &r = result_;
        Digest d;
        for (double v : {r.dispatchSeconds, r.combineSeconds,
                         r.dispatchNicBytesPerGpu, r.dispatchGBsPerGpu,
                         r.combineNicBytesPerGpu, r.combineGBsPerGpu,
                         r.meanNodesTouched, r.meanGpusTouched,
                         r.dispatchRetrySeconds, r.combineRetrySeconds,
                         r.droppedDeliveries})
            d.add(v);
        d.add(r.relayFallbacks);
        d.add(r.stalledTransfers);
        return d.value();
    }

  private:
    std::size_t hosts_;
    std::size_t tokensPerGpu_;
    net::Cluster cluster_;
    ep::EpWorkload work_;
    ep::EpResult result_;
};

// ---------------------------------------------------------- serving

/** Comm-bound DeepSeek-V3 decode fleet (the DSV3_STRESS shape). */
sv::ServingFleetConfig
commBoundFleet(std::size_t engines)
{
    sv::ServingFleetConfig fleet;
    fleet.modelConfig = model::deepSeekV3();
    fleet.memBytesPerSec = 1e30;
    fleet.computeFlopsPerSec = 0.0;
    fleet.comm.bandwidthBytesPerSec = 50e9;
    fleet.decodeEngines = engines;
    fleet.maxBatchPerEngine = 64;
    fleet.prefillServers = 64;
    fleet.prefillTokensPerSecPerServer = 1e9;
    fleet.kvHandoffSeconds = 0.0;
    return fleet;
}

/** One simulateServing run; the op seed is the simulator's seed. */
class ServingRun : public Workload
{
  public:
    std::string opName() const override
    {
        std::ostringstream s;
        s << "one simulateServing run, " << fleet_.decodeEngines
          << " engines, " << sv::arrivalProcessName(traffic_.process)
          << (fleet_.chaos.enabled() ? ", with faults" : "");
        return s.str();
    }
    double itemsPerOp() const override
    {
        return (double)traffic_.requests;
    }
    std::string itemUnit() const override { return "requests"; }

    void prepare(std::uint64_t seed) override { seed_ = seed; }

    void run(OpTrace *trace) override
    {
        {
            Span span(trace, "serving.simulate");
            m_ = sv::simulateServing(fleet_, traffic_, seed_);
        }
        if (trace) {
            trace->values["serving.kv_high_water_blocks"] =
                (double)m_.kvHighWaterBlocks;
        }
    }

    /**
     * The trace generation simulateServing() starts with, seeded the
     * way the simulator seeds it, so the replay draws the same trace.
     */
    void replay(OpTrace &trace) override
    {
        Rng rng(hashCombine(hashU64(seed_), 0x7a44ffu));
        Span span(&trace, "serving.traffic");
        sv::generateTrace(traffic_, rng);
    }

    std::string check(bool) override
    {
        std::ostringstream err;
        const std::size_t outcomes =
            m_.requestsCompleted + m_.requestsRejected +
            m_.requestsShed + m_.requestsFailed + m_.requestsStranded;
        if (outcomes != traffic_.requests)
            err << "outcomes sum to " << outcomes << " of "
                << traffic_.requests << " requests; ";
        double state_sum = 0.0;
        for (double s : m_.stateSeconds)
            state_sum += s;
        if (!(std::abs(state_sum - m_.totalLatencySeconds) <=
              1e-6 * std::max(1.0, m_.totalLatencySeconds)))
            err << "state seconds " << state_sum << " != latency "
                << m_.totalLatencySeconds << "; ";
        if (m_.requestsCompleted == 0 || !(m_.simSeconds > 0.0) ||
            !std::isfinite(m_.tokensPerSecond))
            err << "no progress; ";
        if (!fleet_.chaos.enabled() &&
            (m_.requestsCompleted != traffic_.requests ||
             m_.preemptions != 0 || m_.retries != 0))
            err << "healthy unlimited-KV run lost work; ";
        return err.str();
    }

    std::uint64_t digest() const override
    {
        Digest d;
        for (std::size_t v :
             {m_.requestsCompleted, m_.requestsRejected, m_.decodeSteps,
              m_.decodeTokens, m_.preemptions, m_.requestsShed,
              m_.requestsFailed, m_.requestsStranded, m_.retries,
              m_.failovers, m_.engineDeaths, m_.minLiveEngines,
              m_.kvTotalBlocks, m_.kvHighWaterBlocks})
            d.add(v);
        for (double v : {m_.simSeconds, m_.engineDowntimeSeconds,
                         m_.availability, m_.tokensPerSecond,
                         m_.sloGoodputTokensPerSecond,
                         m_.totalLatencySeconds})
            d.add(v);
        auto summary = [&d](const sv::PercentileSummary &p) {
            d.add(p.count);
            for (double v : {p.mean, p.p50, p.p95, p.p99, p.max})
                d.add(v);
        };
        summary(m_.ttft);
        summary(m_.tpot);
        summary(m_.goodput);
        for (std::size_t s = 0; s < sv::kNumRequestStates; ++s) {
            d.add(m_.stateSeconds[s]);
            summary(m_.statePerRequest[s]);
        }
        d.add((std::size_t)m_.bottleneck);
        return d.value();
    }

  protected:
    sv::ServingFleetConfig fleet_;
    sv::TrafficConfig traffic_;
    std::uint64_t seed_ = 0;
    sv::ServingMetrics m_;
};

/**
 * Closed loop, no faults, unlimited KV: the event calendar, step-cost
 * memo and batching do all the work.
 */
class ServingSteady : public ServingRun
{
  public:
    void setup() override
    {
        fleet_ = commBoundFleet(kEngines);
        traffic_ = sv::TrafficConfig{};
        traffic_.process = sv::ArrivalProcess::CLOSED_LOOP;
        traffic_.requests = 32768;
        traffic_.closedLoopConcurrency = kEngines * 64;
        traffic_.promptTokensMin = traffic_.promptTokensMax = 128;
        traffic_.genTokensMin = traffic_.genTokensMax = 16;
    }

  private:
    static constexpr std::size_t kEngines = 8;
};

/**
 * Open-loop Poisson arrivals at ~70% of the healthy fleet's sustained
 * rate (275 req/s), a generated crash + NIC-degrade schedule drawn
 * from the op seed, a KV budget tight enough to preempt and a shed
 * cap: the health machine, failover/backoff, load shedding, pager
 * preemption and degraded step-cost misses.
 */
class ServingChaos : public ServingRun
{
  public:
    void setup() override
    {
        fleet_ = commBoundFleet(kEngines);
        fleet_.sloTtftSeconds = 2.0;
        fleet_.sloTpotSeconds = 0.05;
        fleet_.kvBudgetBytesPerEngine =
            model::kvCacheBytesPerToken(fleet_.modelConfig) *
            kKvBudgetTokens;
        fleet_.chaos.shedMaxOutstanding = kShedMaxOutstanding;
        traffic_ = sv::TrafficConfig{};
        traffic_.process = sv::ArrivalProcess::POISSON;
        traffic_.requests = kRequests;
        traffic_.requestsPerSecond = kRate;
        traffic_.promptTokensMin = 128;
        traffic_.promptTokensMax = 512;
        traffic_.genTokensMin = traffic_.genTokensMax = 64;
    }

    void prepare(std::uint64_t seed) override
    {
        ServingRun::prepare(seed);
        fault::FaultRates rates;
        rates.rankFailPerHour = 3600.0 / kMtbfSeconds;
        rates.rankRepairSec = kRepairSeconds;
        rates.linkDegradePerHour = 3600.0 / kMtbfSeconds;
        rates.degradeFactor = 0.6;
        rates.linkRepairSec = kRepairSeconds;
        fleet_.chaos.schedule = fault::FaultSchedule::generate(
            sv::servingFaultDomain(kEngines), rates,
            2.0 * (double)kRequests / kRate, seed);
    }

  private:
    static constexpr std::size_t kEngines = 4;
    static constexpr std::size_t kRequests = 4000;
    static constexpr double kRate = 190.0;
    static constexpr double kKvBudgetTokens = 64.0 * 300.0;
    static constexpr double kMtbfSeconds = 40.0;
    static constexpr double kRepairSeconds = 4.0;
    static constexpr std::size_t kShedMaxOutstanding = 256;
};

// --------------------------------------------------------- numerics

/**
 * E4M3 fine-grained (1x128 activations, 128x128 weights) GEMM with
 * FP22 promoted accumulation, then a LogFMT-8 round trip of the
 * activation. The op seed draws both operands.
 */
class Fp8Gemm : public Workload
{
  public:
    std::string opName() const override
    {
        return "one gemmQuantized E4M3/FP22 64x4096x64 + LogFMT-8 "
               "round trip of the 64x4096 activation";
    }
    double itemsPerOp() const override { return (double)(kM * kK * kN); }
    std::string itemUnit() const override { return "MACs"; }

    void setup() override {}

    void prepare(std::uint64_t seed) override
    {
        Rng rng(seed);
        a_ = numerics::Matrix(kM, kK);
        a_.fillActivationLike(rng);
        b_ = numerics::Matrix(kK, kN);
        b_.fillNormal(rng, 0.0, 0.02);
    }

    void run(OpTrace *trace) override
    {
        {
            Span span(trace, "numerics.gemm");
            c_ = numerics::gemmQuantized(a_, b_, options_);
        }
        Span span(trace, "numerics.logfmt");
        rt_ = codec_.roundTrip(std::span<const double>(a_.data()));
    }

    /** The two operand quantizations gemmQuantized() starts with. */
    void replay(OpTrace &trace) override
    {
        Span span(&trace, "numerics.quantize");
        numerics::QuantizedMatrix aq(a_, *options_.fmt,
                                     numerics::Granularity::TILE_1X128,
                                     options_.tileK);
        numerics::QuantizedMatrix bq(
            b_, *options_.fmt, numerics::Granularity::BLOCK_128X128,
            options_.tileK);
    }

    std::string check(bool thorough) override
    {
        std::ostringstream err;
        for (double v : c_.data())
            if (!std::isfinite(v)) {
                err << "non-finite GEMM output; ";
                break;
            }
        for (double v : rt_)
            if (!std::isfinite(v)) {
                err << "non-finite LogFMT output; ";
                break;
            }
        if (thorough) {
            numerics::Matrix ref =
                numerics::gemmQuantizedRef(a_, b_, options_);
            const auto &x = c_.data(), &y = ref.data();
            bool same = x.size() == y.size();
            for (std::size_t i = 0; same && i < x.size(); ++i)
                same = std::bit_cast<std::uint64_t>(x[i]) ==
                       std::bit_cast<std::uint64_t>(y[i]);
            if (!same)
                err << "gemmQuantized differs from gemmQuantizedRef; ";
        }
        return err.str();
    }

    std::uint64_t digest() const override
    {
        Digest d;
        for (double v : c_.data())
            d.add(v);
        for (double v : rt_)
            d.add(v);
        return d.value();
    }

  private:
    static constexpr std::size_t kM = 64, kK = 4096, kN = 64;
    numerics::GemmOptions options_; // E4M3, fine-grained, FP22
    numerics::LogFmtCodec codec_{8};
    numerics::Matrix a_, b_, c_;
    std::vector<double> rt_;
};

} // namespace

std::unique_ptr<Workload>
makeWorkload(const std::string &name)
{
    if (name == "ep_paper")
        return std::make_unique<DeepEpRound>(2, 512);
    if (name == "ep_wide")
        return std::make_unique<DeepEpRound>(8, 32);
    if (name == "serving_steady")
        return std::make_unique<ServingSteady>();
    if (name == "serving_chaos")
        return std::make_unique<ServingChaos>();
    if (name == "fp8_gemm")
        return std::make_unique<Fp8Gemm>();
    // Paper-scale Fig 7 round (128 GPUs x 4096 tokens, ~9 s per op):
    // a sizing probe for the moe vs traffic+flow split, not a
    // benchmark workload.
    if (name == "ep_fig7")
        return std::make_unique<DeepEpRound>(16, 4096);
    return nullptr;
}

} // namespace perfbench
