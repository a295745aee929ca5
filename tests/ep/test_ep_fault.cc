/**
 * @file
 * DeepEP fault degradation: relay-rank selection hardening (dead and
 * missing GPUs), cross-plane fallback accounting, dropped deliveries
 * on crashed expert ranks, and retry penalties on degraded links.
 */

#include <gtest/gtest.h>

#include <bit>
#include <iterator>
#include <string>

#include "ep/deepep.hh"
#include "net/cluster.hh"
#include "numerics/dispatch.hh"
#include "obs/registry.hh"

namespace dsv3::ep {
namespace {

net::Cluster
mpft(std::size_t hosts, std::size_t gpus_per_host = 4)
{
    net::ClusterConfig cc;
    cc.fabric = net::Fabric::MPFT;
    cc.hosts = hosts;
    cc.gpusPerHost = gpus_per_host;
    cc.planes = gpus_per_host;
    cc.switchRadix = 8;
    return buildCluster(cc);
}

EpWorkload
smallWorkload()
{
    EpWorkload w;
    w.tokensPerGpu = 128;
    w.gate.experts = 64;
    w.gate.topK = 4;
    return w;
}

TEST(ChooseRelay, PrefersSamePlaneGpu)
{
    net::Cluster c = mpft(4);
    for (std::size_t plane = 0; plane < 4; ++plane)
        EXPECT_EQ(chooseRelayRank(c, 2, plane), 2 * 4 + plane);
}

TEST(ChooseRelay, FallsBackToNearestLivePlane)
{
    net::Cluster c = mpft(4);
    std::vector<bool> dead(c.gpus.size(), false);
    dead[2 * 4 + 1] = true; // host 2, plane 1
    EXPECT_EQ(chooseRelayRank(c, 2, 1, &dead), 2 * 4 + 2);
    dead[2 * 4 + 2] = true;
    EXPECT_EQ(chooseRelayRank(c, 2, 1, &dead), 2 * 4 + 3);
}

TEST(ChooseRelay, WrapsAroundPlaneIndex)
{
    net::Cluster c = mpft(4);
    std::vector<bool> dead(c.gpus.size(), false);
    dead[1 * 4 + 3] = true; // host 1, last plane
    EXPECT_EQ(chooseRelayRank(c, 1, 3, &dead), 1 * 4 + 0);
}

TEST(ChooseRelay, ValidatesMissingGpusOnShortHost)
{
    // Satellite (c): heterogeneous per-host GPU counts. Truncate the
    // rank list so the last host only has 2 of its 4 GPUs; the naive
    // h * per_host + src_plane index would run off the end.
    net::Cluster c = mpft(2);
    c.gpus.pop_back();
    c.gpus.pop_back(); // host 1 keeps ranks 4 and 5 (planes 0, 1)
    EXPECT_EQ(chooseRelayRank(c, 1, 0), 4u);
    EXPECT_EQ(chooseRelayRank(c, 1, 1), 5u);
    EXPECT_EQ(chooseRelayRank(c, 1, 3), 4u); // wraps past the gap
    EXPECT_EQ(chooseRelayRank(c, 1, 2), 4u); // 6, 7 missing -> wrap
}

TEST(ChooseRelay, ReturnsNoRelayWhenHostFullyDead)
{
    net::Cluster c = mpft(2);
    std::vector<bool> dead(c.gpus.size(), false);
    for (std::size_t p = 0; p < 4; ++p)
        dead[1 * 4 + p] = true;
    EXPECT_EQ(chooseRelayRank(c, 1, 0, &dead), kNoRelay);
    EXPECT_EQ(chooseRelayRank(c, 0, 0, &dead), 0u); // host 0 fine
}

TEST(DeepEpFault, DeadExpertRankDropsDeliveries)
{
    net::Cluster c = mpft(4);
    EpWorkload w = smallWorkload();
    std::vector<bool> dead(c.gpus.size(), false);
    dead[5] = true;
    EpFaultModel fm;
    fm.deadRanks = &dead;

    EpResult r = simulateDeepEp(c, w, fm);
    EXPECT_GT(r.droppedDeliveries, 0.0);
    EXPECT_GT(r.dispatchSeconds, 0.0);
    EXPECT_GT(r.combineSeconds, 0.0);
}

TEST(DeepEpFault, DeadRelayForcesCrossPlaneFallback)
{
    net::Cluster c = mpft(4);
    EpWorkload w = smallWorkload();
    std::vector<bool> dead(c.gpus.size(), false);
    dead[2 * 4 + 0] = true; // host 2's plane-0 GPU
    EpFaultModel fm;
    fm.deadRanks = &dead;

    EpResult r = simulateDeepEp(c, w, fm);
    // Plane-0 senders on other hosts must relay host-2 traffic
    // through another plane.
    EXPECT_GT(r.relayFallbacks, 0u);
    EXPECT_EQ(r.stalledTransfers, 0u);
}

TEST(DeepEpFault, DegradedLinkAddsRetryPenalty)
{
    net::Cluster healthy_cluster = mpft(2);
    EpWorkload w = smallWorkload();
    EpResult healthy = simulateDeepEp(healthy_cluster, w);

    net::Cluster c = mpft(2);
    // Degrade every GPU NIC uplink so inter-host transfers see a
    // link below the degradedThreshold.
    for (net::EdgeId e = 0; e < c.graph.edgeCount(); ++e) {
        const net::Edge &edge = c.graph.edge(e);
        if (c.graph.node(edge.from).kind == net::NodeKind::GPU &&
            c.graph.node(edge.to).kind == net::NodeKind::LEAF)
            c.degradeLink(edge.from, edge.to, 0.5);
    }
    EpResult degraded = simulateDeepEp(c, w, EpFaultModel{});

    EXPECT_GT(degraded.dispatchRetrySeconds, 0.0);
    EXPECT_GT(degraded.dispatchSeconds, healthy.dispatchSeconds);
    EXPECT_GT(degraded.combineSeconds, healthy.combineSeconds);
}

/** Bitwise equality of every EpResult field. */
::testing::AssertionResult
sameResult(const EpResult &a, const EpResult &b)
{
    auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
    const double fa[] = {a.dispatchSeconds, a.combineSeconds,
                         a.dispatchNicBytesPerGpu, a.dispatchGBsPerGpu,
                         a.combineNicBytesPerGpu, a.combineGBsPerGpu,
                         a.meanNodesTouched, a.meanGpusTouched,
                         a.dispatchRetrySeconds, a.combineRetrySeconds,
                         a.droppedDeliveries};
    const double fb[] = {b.dispatchSeconds, b.combineSeconds,
                         b.dispatchNicBytesPerGpu, b.dispatchGBsPerGpu,
                         b.combineNicBytesPerGpu, b.combineGBsPerGpu,
                         b.meanNodesTouched, b.meanGpusTouched,
                         b.dispatchRetrySeconds, b.combineRetrySeconds,
                         b.droppedDeliveries};
    for (std::size_t i = 0; i < std::size(fa); ++i)
        if (bits(fa[i]) != bits(fb[i]))
            return ::testing::AssertionFailure()
                   << "field " << i << ": " << fa[i] << " vs " << fb[i];
    if (a.relayFallbacks != b.relayFallbacks ||
        a.stalledTransfers != b.stalledTransfers)
        return ::testing::AssertionFailure() << "fallback counts differ";
    return ::testing::AssertionSuccess();
}

// The gate's bound passes run on the dispatched KernelTable: every
// table must give the same round, and the same moe.gate.* counts,
// with and without crashed ranks, ungrouped and node-limited.
TEST(DeepEp, IdenticalAcrossKernelTables)
{
    using numerics::KernelIsa;
    net::Cluster c = mpft(4);
    std::vector<bool> dead(c.gpus.size(), false);
    dead[5] = true;
    dead[2 * 4 + 0] = true;
    obs::Registry &reg = obs::Registry::global();
    obs::Counter &evals = reg.counter("moe.gate.exact_evals");
    obs::Counter &fallbacks = reg.counter("moe.gate.fallbacks");

    for (bool grouped : {false, true}) {
        EpWorkload w = smallWorkload();
        if (grouped) {
            w.gate.groups = 4;
            w.gate.topKGroups = 2;
        }
        const std::vector<bool> *masks[] = {nullptr, &dead};
        for (const std::vector<bool> *mask : masks) {
            EpFaultModel fm;
            fm.deadRanks = mask;
            auto run = [&](KernelIsa isa, std::uint64_t *d_evals,
                           std::uint64_t *d_fallbacks) {
                numerics::ScopedKernelOverride o(
                    *numerics::kernelTable(isa));
                const std::uint64_t e0 = evals.value();
                const std::uint64_t f0 = fallbacks.value();
                EpResult r = simulateDeepEp(c, w, fm);
                *d_evals = evals.value() - e0;
                *d_fallbacks = fallbacks.value() - f0;
                return r;
            };
            std::uint64_t want_evals = 0, want_fallbacks = 0;
            const EpResult want =
                run(KernelIsa::SCALAR, &want_evals, &want_fallbacks);
            EXPECT_GT(want_evals, 0u);
            EXPECT_EQ(want.droppedDeliveries > 0.0, mask != nullptr);
            for (KernelIsa isa : {KernelIsa::AVX2, KernelIsa::AVX512}) {
                if (!numerics::kernelTable(isa))
                    continue;
                SCOPED_TRACE(std::string(numerics::isaName(isa)) +
                             (grouped ? " grouped" : " ungrouped") +
                             (mask ? " dead ranks" : " healthy"));
                std::uint64_t got_evals = 0, got_fallbacks = 0;
                EXPECT_TRUE(sameResult(
                    run(isa, &got_evals, &got_fallbacks), want));
                EXPECT_EQ(got_evals, want_evals);
                EXPECT_EQ(got_fallbacks, want_fallbacks);
            }
        }
    }
}

} // namespace
} // namespace dsv3::ep
