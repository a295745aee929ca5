/**
 * @file
 * Tests for TopK gating and node-limited (group-limited) routing.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <vector>

#include "common/rng.hh"
#include "moe/gate.hh"

namespace dsv3::moe {
namespace {

GateConfig
v3Gate()
{
    GateConfig cfg;
    cfg.experts = 256;
    cfg.topK = 8;
    cfg.groups = 8;
    cfg.topKGroups = 4;
    return cfg;
}

std::vector<double>
randomLogits(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<double> logits(n);
    for (auto &l : logits)
        l = rng.normal();
    return logits;
}

TEST(Gate, SelectsExactlyTopK)
{
    TopKGate gate(v3Gate());
    auto d = gate.route(randomLogits(256, 1));
    EXPECT_EQ(d.experts.size(), 8u);
    EXPECT_EQ(d.weights.size(), 8u);
}

TEST(Gate, ExpertsAreUnique)
{
    TopKGate gate(v3Gate());
    for (int t = 0; t < 50; ++t) {
        auto d = gate.route(randomLogits(256, 10 + t));
        std::set<std::uint32_t> unique(d.experts.begin(),
                                       d.experts.end());
        EXPECT_EQ(unique.size(), d.experts.size());
    }
}

TEST(Gate, WeightsNormalizedAndPositive)
{
    TopKGate gate(v3Gate());
    for (int t = 0; t < 50; ++t) {
        auto d = gate.route(randomLogits(256, 100 + t));
        double sum = 0.0;
        for (double w : d.weights) {
            EXPECT_GT(w, 0.0);
            sum += w;
        }
        EXPECT_NEAR(sum, 1.0, 1e-9);
    }
}

TEST(Gate, WeightsDescendWithScores)
{
    TopKGate gate(v3Gate());
    auto d = gate.route(randomLogits(256, 3));
    for (std::size_t i = 1; i < d.weights.size(); ++i)
        EXPECT_GE(d.weights[i - 1], d.weights[i]);
}

TEST(Gate, PlainTopKPicksGlobalMaxima)
{
    GateConfig cfg;
    cfg.experts = 16;
    cfg.topK = 3;
    TopKGate gate(cfg);
    std::vector<double> logits(16, 0.0);
    logits[5] = 10.0;
    logits[11] = 9.0;
    logits[2] = 8.0;
    auto d = gate.route(logits);
    EXPECT_EQ(d.experts[0], 5u);
    EXPECT_EQ(d.experts[1], 11u);
    EXPECT_EQ(d.experts[2], 2u);
}

TEST(Gate, NodeLimitBoundsGroupsTouched)
{
    TopKGate gate(v3Gate());
    for (int t = 0; t < 200; ++t) {
        auto d = gate.route(randomLogits(256, 1000 + t));
        auto groups = gate.groupsTouched(d);
        EXPECT_LE(groups.size(), 4u);
    }
}

TEST(Gate, UnrestrictedTouchesMoreGroups)
{
    GateConfig restricted = v3Gate();
    GateConfig open = v3Gate();
    open.topKGroups = 8;
    TopKGate g_restricted(restricted), g_open(open);
    double sum_restricted = 0.0, sum_open = 0.0;
    for (int t = 0; t < 500; ++t) {
        auto logits = randomLogits(256, 2000 + t);
        sum_restricted +=
            (double)g_restricted.groupsTouched(
                g_restricted.route(logits)).size();
        sum_open +=
            (double)g_open.groupsTouched(g_open.route(logits)).size();
    }
    EXPECT_LT(sum_restricted, sum_open);
}

TEST(Gate, GroupSelectionPrefersStrongGroups)
{
    // Put the 8 highest logits all in group 2: routing must stay
    // entirely inside group 2 plus whatever else survives.
    GateConfig cfg = v3Gate();
    cfg.topKGroups = 1;
    TopKGate gate(cfg);
    std::vector<double> logits(256, 0.0);
    for (int i = 0; i < 8; ++i)
        logits[64 + i] = 5.0 + i; // group 2 = experts [64, 96)
    auto d = gate.route(logits);
    for (std::uint32_t e : d.experts) {
        EXPECT_GE(e, 64u);
        EXPECT_LT(e, 96u);
    }
}

TEST(Gate, SigmoidVsSoftmaxSameSelectionOrder)
{
    // Monotone transforms preserve plain TopK membership. (With
    // group limiting this need not hold: group scores are *sums* of
    // member scores, which monotone transforms do not preserve.)
    GateConfig sig = v3Gate();
    sig.groups = 1;
    sig.topKGroups = 1;
    GateConfig soft = sig;
    soft.scoring = GateScoring::SOFTMAX;
    TopKGate g_sig(sig), g_soft(soft);
    for (int t = 0; t < 20; ++t) {
        auto logits = randomLogits(256, 3000 + t);
        auto d1 = g_sig.route(logits);
        auto d2 = g_soft.route(logits);
        EXPECT_EQ(d1.experts, d2.experts);
    }
}

TEST(Gate, DeterministicTieBreak)
{
    GateConfig cfg;
    cfg.experts = 8;
    cfg.topK = 2;
    TopKGate gate(cfg);
    std::vector<double> logits(8, 1.0); // all tied
    auto d = gate.route(logits);
    EXPECT_EQ(d.experts[0], 0u);
    EXPECT_EQ(d.experts[1], 1u);
}

TEST(Gate, GroupsTouchedSortedUnique)
{
    TopKGate gate(v3Gate());
    auto d = gate.route(randomLogits(256, 5));
    auto groups = gate.groupsTouched(d);
    EXPECT_TRUE(std::is_sorted(groups.begin(), groups.end()));
    EXPECT_EQ(std::adjacent_find(groups.begin(), groups.end()),
              groups.end());
}

TEST(GateDeath, RejectsBadConfigs)
{
    // Each message names the GateConfig field at fault.
    GateConfig bad = v3Gate();
    bad.experts = 255; // not divisible by 8 groups
    EXPECT_DEATH(TopKGate{bad},
                 "GateConfig.experts must divide evenly into "
                 "GateConfig.groups");
    GateConfig too_few = v3Gate();
    too_few.topKGroups = 4;
    too_few.groups = 128;         // 2 experts per group
    too_few.topK = 16;            // 4 groups x 2 experts < 16
    EXPECT_DEATH(TopKGate{too_few},
                 "GateConfig.topKGroups selected groups must hold at "
                 "least topK experts");
    GateConfig none = v3Gate();
    none.experts = 0;
    EXPECT_DEATH(TopKGate{none}, "GateConfig.experts must be positive");
    GateConfig no_k = v3Gate();
    no_k.topK = 0;
    EXPECT_DEATH(TopKGate{no_k}, "GateConfig.topK must be in 1..experts");
    GateConfig big_k = v3Gate();
    big_k.topK = 257;
    EXPECT_DEATH(TopKGate{big_k}, "GateConfig.topK must be in 1..experts");
    GateConfig no_groups = v3Gate();
    no_groups.groups = 0;
    EXPECT_DEATH(TopKGate{no_groups},
                 "GateConfig.groups must be at least 1");
    GateConfig no_limit = v3Gate();
    no_limit.topKGroups = 0;
    EXPECT_DEATH(TopKGate{no_limit},
                 "GateConfig.topKGroups must be in 1..groups");
    GateConfig over_limit = v3Gate();
    over_limit.topKGroups = 9;
    EXPECT_DEATH(TopKGate{over_limit},
                 "GateConfig.topKGroups must be in 1..groups");
}

TEST(GateDeath, RejectsNaNLogit)
{
    // NaN has no place in (score desc, index asc): route() names the
    // expert instead of ranking it.
    TopKGate gate(v3Gate());
    std::vector<double> logits = randomLogits(256, 9);
    logits[37] = std::numeric_limits<double>::quiet_NaN();
    EXPECT_DEATH(gate.route(logits), "the logit of expert 37 is NaN");
}

/** The node-limit sweep must monotonically reduce groups touched. */
class GateLimitTest : public ::testing::TestWithParam<std::size_t>
{};

TEST_P(GateLimitTest, GroupsTouchedWithinLimit)
{
    GateConfig cfg = v3Gate();
    cfg.topKGroups = GetParam();
    TopKGate gate(cfg);
    for (int t = 0; t < 100; ++t) {
        auto d = gate.route(randomLogits(256, 4000 + t));
        EXPECT_LE(gate.groupsTouched(d).size(), GetParam());
        EXPECT_EQ(d.experts.size(), 8u);
    }
}

INSTANTIATE_TEST_SUITE_P(Limits, GateLimitTest,
                         ::testing::Values(1, 2, 3, 4, 6, 8));

} // namespace
} // namespace dsv3::moe
