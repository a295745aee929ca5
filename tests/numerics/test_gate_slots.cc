/**
 * @file
 * The MoE gate's KernelTable slots, topNPerSegment and maskAtLeast:
 * every available table against the scalar entry and a sort-based
 * oracle, on crafted inputs -- ties at the top, equal values across
 * lanes, +-inf lanes, segment lengths that are not a multiple of any
 * lane width, and cuts exactly equal to a lane value.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "numerics/dispatch.hh"

namespace dsv3::numerics {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/** Kinds of segment content, each aimed at one way a lane kernel can
 *  go wrong. */
enum class Shape
{
    RANDOM,        //!< continuous values: the ordinary case
    LEVELS,        //!< few distinct values, +-0 and +-inf among them
    MAX_TWICE,     //!< the maximum at two positions, never adjacent
    MAX_SAME_LANE, //!< the maximum at i and i + 8 (same lane mod 4, 8)
    ALL_EQUAL,     //!< one value everywhere
    LANE_PATTERN,  //!< v[i] depends only on i % 4: equal across lanes
    INF_LANES,     //!< +inf and -inf at random positions
    ALL_NEG_INF,   //!< nothing but -inf
    COUNT,
};

std::vector<double>
craft(Rng &rng, std::size_t len, Shape shape)
{
    static const double levels[] = {-kInf, -1.0, -0.0, 0.0, 0.5, 2.0,
                                    kInf};
    std::vector<double> v(len);
    for (double &x : v)
        x = rng.normal();
    switch (shape) {
      case Shape::RANDOM:
        break;
      case Shape::LEVELS:
        for (double &x : v)
            x = levels[rng.nextBounded(std::size(levels))];
        break;
      case Shape::MAX_TWICE:
        if (len >= 3) {
            const std::size_t a = rng.nextBounded(len - 2);
            const std::size_t b = a + 2 + rng.nextBounded(len - a - 2);
            v[a] = v[b] = 10.0;
        }
        break;
      case Shape::MAX_SAME_LANE:
        if (len > 8) {
            const std::size_t a = rng.nextBounded(len - 8);
            v[a] = v[a + 8] = 10.0;
        }
        break;
      case Shape::ALL_EQUAL:
        std::fill(v.begin(), v.end(), 1.25);
        break;
      case Shape::LANE_PATTERN:
        for (std::size_t i = 0; i < len; ++i)
            v[i] = (double)(i % 4 == 1) - (double)(i % 4 == 3);
        break;
      case Shape::INF_LANES:
        for (double &x : v)
            if (rng.bernoulli(0.3))
                x = rng.bernoulli(0.5) ? kInf : -kInf;
        break;
      case Shape::ALL_NEG_INF:
        std::fill(v.begin(), v.end(), -kInf);
        break;
      case Shape::COUNT:
        break;
    }
    return v;
}

class GateBoundSlotTest : public ::testing::TestWithParam<KernelIsa>
{
  protected:
    const KernelTable *table() const { return kernelTable(GetParam()); }
};

TEST_P(GateBoundSlotTest, TopNPerSegmentMatchesScalarEntry)
{
    const KernelTable *t = table();
    if (!t)
        GTEST_SKIP() << isaName(GetParam())
                     << " not available on this host";
    const KernelTable &scalar = *kernelTable(KernelIsa::SCALAR);
    Rng rng(0x70b + (int)GetParam());
    std::size_t cases = 0;
    for (std::size_t len : {1, 3, 7, 24, 32, 33, 256}) {
        // n beyond 8 takes the SIMD tables' scalar fall-back.
        for (std::size_t n : {1, 2, 3, 4, 8, 9}) {
            if (n > len)
                continue;
            for (std::size_t segments : {1, 3}) {
                for (int s = 0; s < (int)Shape::COUNT; ++s) {
                    for (int trial = 0; trial < 4; ++trial, ++cases) {
                        std::vector<double> v;
                        for (std::size_t g = 0; g < segments; ++g) {
                            std::vector<double> seg =
                                craft(rng, len, (Shape)s);
                            v.insert(v.end(), seg.begin(), seg.end());
                        }
                        std::vector<double> got(segments * n, 42.0),
                            want(segments * n, -42.0);
                        t->topNPerSegment(v.data(), segments, len, n,
                                          got.data());
                        scalar.topNPerSegment(v.data(), segments, len, n,
                                              want.data());
                        for (std::size_t g = 0; g < segments; ++g) {
                            // The oracle: sort the segment descending.
                            std::vector<double> sorted(
                                v.begin() + g * len,
                                v.begin() + (g + 1) * len);
                            std::sort(sorted.begin(), sorted.end(),
                                      std::greater<>());
                            for (std::size_t j = 0; j < n; ++j) {
                                SCOPED_TRACE(
                                    "len=" + std::to_string(len) +
                                    " n=" + std::to_string(n) +
                                    " shape=" + std::to_string(s) +
                                    " segment=" + std::to_string(g) +
                                    " j=" + std::to_string(j));
                                // Values, so +0 and -0 are one value.
                                ASSERT_EQ(got[g * n + j], want[g * n + j]);
                                ASSERT_EQ(want[g * n + j], sorted[j]);
                            }
                        }
                    }
                }
            }
        }
    }
    EXPECT_GT(cases, 1000u);
}

TEST_P(GateBoundSlotTest, MaskAtLeastMatchesScalarEntry)
{
    const KernelTable *t = table();
    if (!t)
        GTEST_SKIP() << isaName(GetParam())
                     << " not available on this host";
    const KernelTable &scalar = *kernelTable(KernelIsa::SCALAR);
    Rng rng(0x3a5c + (int)GetParam());
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (std::size_t n : {1, 3, 7, 24, 32, 63, 64, 65, 129, 256}) {
        for (int s = 0; s < (int)Shape::COUNT; ++s) {
            for (int trial = 0; trial < 8; ++trial) {
                std::vector<double> v = craft(rng, n, (Shape)s);
                if (trial == 7)
                    v[rng.nextBounded(n)] = nan; // compares false
                // Cuts exactly at a value (ties must count), around
                // it, and at the infinities.
                const double at = v[rng.nextBounded(n)];
                for (double cut : {at, std::nextafter(at, kInf),
                                   std::nextafter(at, -kInf), -kInf,
                                   kInf, 0.0, -0.0}) {
                    if (std::isnan(cut))
                        continue;
                    const std::size_t words = (n + 63) / 64;
                    // A sentinel word past the end must survive.
                    std::vector<std::uint64_t> got(words + 1, ~0ull),
                        want(words + 1, ~0ull);
                    t->maskAtLeast(v.data(), n, cut, got.data());
                    scalar.maskAtLeast(v.data(), n, cut, want.data());
                    SCOPED_TRACE("n=" + std::to_string(n) + " shape=" +
                                 std::to_string(s) + " cut=" +
                                 std::to_string(cut));
                    ASSERT_EQ(got, want);
                    ASSERT_EQ(want[words], ~0ull);
                    for (std::size_t i = 0; i < words * 64; ++i) {
                        const bool bit = want[i / 64] >> (i % 64) & 1;
                        ASSERT_EQ(bit, i < n && v[i] >= cut) << "i=" << i;
                    }
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Isa, GateBoundSlotTest,
    ::testing::Values(KernelIsa::SCALAR, KernelIsa::AVX2,
                      KernelIsa::AVX512),
    [](const ::testing::TestParamInfo<KernelIsa> &info) {
        return std::string(isaName(info.param));
    });

} // namespace
} // namespace dsv3::numerics
