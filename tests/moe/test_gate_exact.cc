/**
 * @file
 * Exactness of the gate's filter-and-refine selection: routeNext() and
 * route() against the full-evaluation oracle, bit for bit, under every
 * kernel table the host can run (the bound passes are KernelTable
 * slots), and the Gumbel bracket table against the exact formula.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <sstream>
#include <vector>

#include "common/rng.hh"
#include "gate_oracle.hh"
#include "moe/gate.hh"
#include "moe/token_gen.hh"
#include "numerics/dispatch.hh"
#include "obs/registry.hh"

namespace dsv3::moe {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/** Bitwise equality of two decisions; describes the first mismatch. */
::testing::AssertionResult
sameDecision(const RoutingDecision &got, const RoutingDecision &want)
{
    if (got.experts != want.experts)
        return ::testing::AssertionFailure() << "experts differ";
    if (got.weights.size() != want.weights.size())
        return ::testing::AssertionFailure() << "weight count differs";
    for (std::size_t i = 0; i < got.weights.size(); ++i)
        if (std::bit_cast<std::uint64_t>(got.weights[i]) !=
            std::bit_cast<std::uint64_t>(want.weights[i]))
            return ::testing::AssertionFailure()
                   << "weight " << i << ": " << got.weights[i]
                   << " vs " << want.weights[i];
    return ::testing::AssertionSuccess();
}

std::string
describe(const GateConfig &c, double skew)
{
    std::ostringstream s;
    s << (c.scoring == GateScoring::SIGMOID ? "sigmoid" : "softmax")
      << " E=" << c.experts << " topK=" << c.topK << " groups=" << c.groups
      << " topKGroups=" << c.topKGroups
      << " groupTop=" << c.groupTopScores << " skew=" << skew;
    return s.str();
}

/** Run @p f once under each kernel table this host can run. */
template <class F>
void
underEveryTable(F &&f)
{
    using numerics::KernelIsa;
    for (KernelIsa isa :
         {KernelIsa::SCALAR, KernelIsa::AVX2, KernelIsa::AVX512}) {
        const numerics::KernelTable *t = numerics::kernelTable(isa);
        if (!t)
            continue;
        SCOPED_TRACE(std::string("kernel table ") + numerics::isaName(isa));
        numerics::ScopedKernelOverride o(*t);
        f();
        if (::testing::Test::HasFailure())
            return;
    }
}

/**
 * Route @p tokens tokens of one stream through routeNext() and, from an
 * identically seeded stream, through next() + the oracle; then require
 * the two streams to be in the same state. Returns tokens routed.
 */
std::size_t
checkStream(const GateConfig &cfg, double skew, std::uint64_t seed,
            std::size_t tokens)
{
    TopKGate gate(cfg);
    TokenScoreGenerator fused(cfg.experts, skew, seed);
    TokenScoreGenerator plain(cfg.experts, skew, seed);
    for (std::size_t t = 0; t < tokens; ++t) {
        RoutingDecision got = gate.routeNext(fused);
        RoutingDecision want = test::routeOracle(cfg, plain.next());
        EXPECT_TRUE(sameDecision(got, want))
            << describe(cfg, skew) << " seed=" << seed << " token=" << t;
        if (::testing::Test::HasFailure())
            return t;
    }
    std::vector<double> a = fused.next(), b = plain.next();
    EXPECT_EQ(a, b) << "stream state diverged: " << describe(cfg, skew);
    return tokens;
}

/**
 * The Fig 7 / Sec 4.3 gate shape (256 experts in 8 groups of 32) over
 * every topK and topKGroups in 1..8, plus the ungrouped gate, for one
 * popularity skew. SIGMOID gets the bulk of the tokens; SOFTMAX takes
 * the eager path through the same core.
 */
std::size_t
sweepPaperShape(double skew, std::size_t sigmoid_tokens,
                std::size_t softmax_tokens)
{
    std::size_t routed = 0;
    std::uint64_t seed = 1;
    for (GateScoring scoring : {GateScoring::SIGMOID, GateScoring::SOFTMAX}) {
        const std::size_t tokens = scoring == GateScoring::SIGMOID
                                       ? sigmoid_tokens
                                       : softmax_tokens;
        for (std::size_t groups : {1, 8}) {
            for (std::size_t limit = 1; limit <= groups; ++limit) {
                for (std::size_t k = 1; k <= 8; ++k) {
                    GateConfig cfg;
                    cfg.experts = 256;
                    cfg.topK = k;
                    cfg.scoring = scoring;
                    cfg.groups = groups;
                    cfg.topKGroups = limit;
                    routed += checkStream(cfg, skew, seed++, tokens);
                    if (::testing::Test::HasFailure())
                        return routed;
                }
            }
        }
    }
    return routed;
}

// 72 gate shapes x (4,096 SIGMOID + 512 SOFTMAX tokens) per skew:
// ~330k tokens each, ~1M over the three skews.
TEST(GateExact, RouteNextMatchesOracleSkew0)
{
    underEveryTable(
        [] { EXPECT_GE(sweepPaperShape(0.0, 4096, 512), 330000u); });
}

TEST(GateExact, RouteNextMatchesOracleSkew03)
{
    underEveryTable(
        [] { EXPECT_GE(sweepPaperShape(0.3, 4096, 512), 330000u); });
}

TEST(GateExact, RouteNextMatchesOracleSkew3)
{
    underEveryTable(
        [] { EXPECT_GE(sweepPaperShape(3.0, 4096, 512), 330000u); });
}

/**
 * Few experts per group make near-ties, -inf lower brackets and
 * group-score ties far more frequent than at 256 experts.
 */
void
checkSmallGates()
{
    std::uint64_t seed = 100;
    for (double skew : {0.0, 0.3, 3.0}) {
        for (std::size_t group_top : {1, 2, 3}) {
            GateConfig cfg;
            cfg.experts = 16;
            cfg.groups = 4;
            cfg.topKGroups = 2;
            cfg.topK = 3;
            cfg.groupTopScores = group_top;
            checkStream(cfg, skew, seed++, 20000);
            cfg.experts = 2;
            cfg.groups = 1;
            cfg.topKGroups = 1;
            cfg.topK = 1;
            checkStream(cfg, skew, seed++, 20000);
            ASSERT_FALSE(::testing::Test::HasFailure());
        }
    }
}

TEST(GateExact, RouteNextMatchesOracleOnSmallGates)
{
    underEveryTable(checkSmallGates);
}

/**
 * route() on @p logits against the oracle, for several gate shapes,
 * under every kernel table.
 */
void
checkCrafted(const std::vector<double> &logits, const char *what)
{
    underEveryTable([&] {
        for (GateScoring scoring :
             {GateScoring::SIGMOID, GateScoring::SOFTMAX}) {
            for (std::size_t groups : {1, 4}) {
                for (std::size_t k : {1, 3, 5}) {
                    GateConfig cfg;
                    cfg.experts = logits.size();
                    cfg.topK = k;
                    cfg.scoring = scoring;
                    cfg.groups = groups;
                    cfg.topKGroups = groups == 1 ? 1 : 2;
                    TopKGate gate(cfg);
                    RoutingDecision want = test::routeOracle(cfg, logits);
                    // The oracle's own division is undefined when every
                    // selected score is zero; the gate asserts there.
                    double denom = 0.0;
                    for (double w : want.weights)
                        denom += w;
                    if (!(denom > 0.0))
                        continue;
                    EXPECT_TRUE(sameDecision(gate.route(logits), want))
                        << what << ": " << describe(cfg, 0.0);
                }
            }
        }
    });
}

TEST(GateExact, RouteMatchesOracleOnExactTies)
{
    // Equal logits give equal scores: the lower index must win, within
    // a group, across groups and between tied groups.
    checkCrafted(std::vector<double>(16, 0.5), "all equal");
    std::vector<double> l(16);
    for (std::size_t i = 0; i < l.size(); ++i)
        l[i] = (double)(i % 3);
    checkCrafted(l, "three levels");
    for (std::size_t i = 0; i < l.size(); ++i)
        l[i] = (double)((l.size() - i) % 4) * 0.25;
    checkCrafted(l, "four levels, descending");
}

TEST(GateExact, RouteMatchesOracleWhereSigmoidSaturates)
{
    // From logit ~37 up the sigmoid is exactly 1.0, so logit order and
    // score order disagree on ties: only the fall-back gets this right.
    std::vector<double> l(16, 0.0);
    l[3] = 40.0;
    l[9] = 38.0;
    l[12] = 50.0;
    l[14] = 20.0;
    l[1] = 19.999999;
    checkCrafted(l, "saturated");
    l[5] = kInf;
    checkCrafted(l, "+inf");
    l.assign(16, -kInf);
    l[2] = -1.0;
    l[7] = 0.0;
    checkCrafted(l, "-inf below the top");
    l.assign(16, 1.0);
    l[0] = -kInf;
    l[15] = kInf;
    checkCrafted(l, "-inf and +inf");
    l.assign(16, -720.0);
    l[4] = -705.0;
    l[6] = -750.0;
    checkCrafted(l, "near underflow");
}

TEST(GateExact, RouteMatchesOracleWithinMarginOfTheKth)
{
    // Logits a hair apart around the selection boundary: closer than
    // the filter's 1e-6 margin, at it, and a few ulps apart.
    Rng rng(7);
    for (int trial = 0; trial < 2000; ++trial) {
        const double v = rng.uniform(-30.0, 19.0);
        std::vector<double> l(16);
        for (auto &x : l) {
            switch (rng.nextBounded(6)) {
            case 0: x = v; break;
            case 1: x = v + 1e-6 * rng.uniform(-2.0, 2.0); break;
            case 2: x = std::nextafter(v, kInf); break;
            case 3: x = std::nextafter(v, -kInf); break;
            case 4: x = v + (rng.bernoulli(0.5) ? 1e-6 : -1e-6); break;
            default: x = v + rng.normal(); break;
            }
        }
        checkCrafted(l, "near the k-th");
        ASSERT_FALSE(::testing::Test::HasFailure()) << "trial " << trial;
    }
}

TEST(GateExact, GumbelBracketHoldsOnEveryBin)
{
    // Bin k of binade j covers [a, b) with a = 2^-j (1 + k/64).
    std::size_t bins = 0;
    Rng rng(11);
    double prev_hi = kInf;
    for (int j = 53; j >= 1; --j) {
        for (int k = 0; k < 64; ++k, ++bins) {
            const double a = std::ldexp(1.0 + k / 64.0, -j);
            const double b = std::ldexp(1.0 + (k + 1) / 64.0, -j);
            const GumbelBracket br = gumbelBracket(a);
            ASSERT_LE(br.lo, br.hi);
            // Brackets descend with x and tile without gaps.
            ASSERT_LE(br.hi, prev_hi);
            prev_hi = br.hi;
            auto inside = [&](double x) {
                const GumbelBracket bx = gumbelBracket(x);
                EXPECT_EQ(bx.lo, br.lo) << "x=" << x << " left its bin";
                const double g = gumbelOfUniform(x);
                EXPECT_LE(br.lo, g) << "j=" << j << " k=" << k << " x=" << x;
                EXPECT_GE(br.hi, g) << "j=" << j << " k=" << k << " x=" << x;
            };
            inside(a);
            inside(std::nextafter(b, 0.0));
            // Interior draws: multiples of 2^-53, as nextDouble() makes.
            for (int s = 0; s < 16; ++s) {
                double x = std::floor(rng.uniform(a, b) * 0x1p53) * 0x1p-53;
                if (x >= a && x < b)
                    inside(x);
            }
        }
    }
    EXPECT_EQ(bins, kGumbelBins);
    // x = 0 is Gumbel +inf.
    EXPECT_EQ(gumbelBracket(0.0).lo, kInf);
    EXPECT_EQ(gumbelOfUniform(0.0), kInf);
}

TEST(GateExact, TallyCountsLikePerCallRouting)
{
    obs::Registry &reg = obs::Registry::global();
    obs::Counter &tokens = reg.counter("moe.gate.tokens_routed");
    obs::Counter &experts = reg.counter("moe.gate.experts_selected");
    obs::Counter &evals = reg.counter("moe.gate.exact_evals");
    GateConfig cfg;
    cfg.groups = 8;
    cfg.topKGroups = 4;
    TopKGate gate(cfg);
    TokenScoreGenerator gen(256, 0.3, 5);

    const std::uint64_t t0 = tokens.value(), e0 = experts.value();
    gate.route(gen.next());
    gate.routeNext(gen);
    EXPECT_EQ(tokens.value() - t0, 2u);
    EXPECT_EQ(experts.value() - e0, 16u);

    const std::uint64_t t1 = tokens.value(), e1 = experts.value(),
                        v1 = evals.value();
    {
        GateTally tally;
        for (int t = 0; t < 100; ++t)
            gate.routeNext(gen, &tally);
        EXPECT_EQ(tokens.value(), t1) << "tally must batch";
    }
    EXPECT_EQ(tokens.value() - t1, 100u);
    EXPECT_EQ(experts.value() - e1, 800u);
    // The filter refines a few dozen experts per token, never all 256.
    EXPECT_GT(evals.value() - v1, 100u * 8u);
    EXPECT_LT(evals.value() - v1, 100u * 64u);
}

} // namespace
} // namespace dsv3::moe
