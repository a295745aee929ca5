/**
 * @file
 * Golden tests for the FP22 panel slot (KernelTable::fp22Panel) that
 * gemmQuantized's FP22 arms run on.
 *
 * Pipeline level: gemmQuantized under every available kernel table at
 * parallelFor widths {1, 2, hw} must equal gemmQuantizedRef bit for
 * bit, over ragged shapes, every group size class, both FP22 modes,
 * and data that drives the panel out of its fast gate (non-finite
 * products, subnormal quanta, inv_e overflow, FP22 overflow and
 * subnormals, signed zeros).
 *
 * Slot level: each SIMD slot is run directly on crafted raw operands
 * whose group maxima sit on both sides of every gate boundary, and
 * compared with the scalar entry: lanes it reports as misses must be
 * untouched, every other lane must match bit for bit, and all-zero
 * or ordinary groups must never miss.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "numerics/dispatch.hh"
#include "numerics/gemm.hh"

namespace dsv3::numerics {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

std::uint64_t
dbits(double x)
{
    return std::bit_cast<std::uint64_t>(x);
}

struct WidthGuard
{
    explicit WidthGuard(std::size_t w) { setParallelForWidth(w); }
    ~WidthGuard() { setParallelForWidth(0); }
};

GemmOptions
fp22Options(AccumMode mode, std::size_t group, bool fine_grained,
            const FloatFormat *fmt = &kE4M3)
{
    GemmOptions opt;
    opt.fmt = fmt;
    opt.accum = mode;
    opt.fineGrained = fine_grained;
    opt.groupSize = group;
    return opt;
}

/**
 * The first cell where gemmQuantized, under any available table at
 * any of the widths {1, 2, hw}, differs from gemmQuantizedRef; "" when
 * none does.
 */
std::string
firstMismatch(const Matrix &a, const Matrix &b, const GemmOptions &opt)
{
    const Matrix want = gemmQuantizedRef(a, b, opt);
    for (KernelIsa isa :
         {KernelIsa::SCALAR, KernelIsa::AVX2, KernelIsa::AVX512}) {
        const KernelTable *t = kernelTable(isa);
        if (!t)
            continue;
        ScopedKernelOverride o(*t);
        for (std::size_t w : {std::size_t{1}, std::size_t{2},
                              std::size_t{0}}) {
            WidthGuard guard(w);
            const Matrix got = gemmQuantized(a, b, opt);
            for (std::size_t r = 0; r < want.rows(); ++r)
                for (std::size_t c = 0; c < want.cols(); ++c)
                    if (dbits(got.at(r, c)) != dbits(want.at(r, c))) {
                        std::ostringstream os;
                        os << isaName(isa) << " w=" << w << " "
                           << accumModeName(opt.accum)
                           << " group=" << opt.groupSize << " ("
                           << r << "," << c << "): got "
                           << got.at(r, c) << " want "
                           << want.at(r, c);
                        return os.str();
                    }
        }
    }
    return "";
}

/** Both FP22 modes: promoted fine-grained, unpromoted per-tensor. */
std::string
firstMismatchBothModes(const Matrix &a, const Matrix &b,
                       std::size_t group,
                       const FloatFormat *fmt = &kE4M3,
                       bool fine_grained = true)
{
    for (const GemmOptions &opt :
         {fp22Options(AccumMode::FP22, group, fine_grained, fmt),
          fp22Options(AccumMode::FP22_NO_PROMOTION, group, false,
                      fmt)}) {
        const std::string miss = firstMismatch(a, b, opt);
        if (!miss.empty())
            return miss;
    }
    return "";
}

TEST(Fp22PanelGolden, RaggedShapesAndGroupSizesMatchRef)
{
    Rng rng(0xf22);
    for (std::size_t n : {1, 3, 5, 9, 17}) {
        for (std::size_t k : {1, 31, 33, 129, 200}) {
            Matrix a(9, k), b(k, n);
            a.fillActivationLike(rng);
            b.fillNormal(rng, 0.0, 0.02);
            for (std::size_t group : {1, 7, 32, 64, 100, 128}) {
                SCOPED_TRACE("n=" + std::to_string(n) +
                             " k=" + std::to_string(k));
                ASSERT_EQ(firstMismatchBothModes(a, b, group), "");
            }
        }
    }
}

TEST(Fp22PanelGolden, NonFiniteProductsMatchRef)
{
    // NaN inputs stay NaN codes (amax ignores NaN); an infinite input
    // makes its tile's scale infinite. E5M2 keeps inf codes, E4M3
    // saturates them.
    Rng rng(31);
    Matrix a(9, 200), b(200, 17);
    a.fillActivationLike(rng);
    b.fillNormal(rng, 0.0, 0.02);
    a.at(0, 5) = kNaN;
    a.at(3, 140) = -kNaN;
    a.at(7, 199) = kInf;
    b.at(40, 2) = kNaN;
    b.at(150, 9) = -kInf;
    for (const FloatFormat *fmt : {&kE4M3, &kE5M2})
        for (std::size_t group : {7, 32, 128})
            ASSERT_EQ(firstMismatchBothModes(a, b, group, fmt), "")
                << fmt->name;
}

TEST(Fp22PanelGolden, AllZeroAndSignedZeroGroupsMatchRef)
{
    Rng rng(32);
    Matrix a(9, 200), b(200, 17);
    a.fillActivationLike(rng);
    b.fillNormal(rng, 0.0, 0.02);
    for (std::size_t kk = 32; kk < 64; ++kk) {
        a.at(1, kk) = 0.0;  // an all-zero group in every column
        a.at(2, kk) = -0.0; // ... of signed zeros
    }
    for (std::size_t kk = 0; kk < 200; ++kk) {
        b.at(kk, 4) = 0.0;   // all-zero column
        b.at(kk, 11) = -0.0; // signed-zero column
    }
    for (std::size_t group : {1, 7, 32, 64})
        ASSERT_EQ(firstMismatchBothModes(a, b, group), "");
}

TEST(Fp22PanelGolden, SignedZeroRegisterThenZeroGroupMatchesRef)
{
    // BF16 per-tensor: the amax entries pin the scale, so the 2^-103
    // entries decode to raw 2^-75 and the products (-2^-150) of the
    // last group of row 0's first tile sum to an FP22 subnormal that
    // truncates to -0 (through the fallback). The unpromoted register
    // carries that -0 into the second tile, whose groups are all
    // zeros and take the fast path: -0 + (+0) must give +0, as
    // Fp22Register::add does.
    Matrix a(2, 256), b(256, 9);
    a.at(1, 0) = 0x1p100;
    b.at(0, 8) = 0x1p100;
    for (std::size_t kk = 96; kk < 128; ++kk)
        a.at(0, kk) = -0x1p-103;
    for (std::size_t kk = 0; kk < 256; ++kk)
        for (std::size_t j = 0; j < 8; ++j)
            b.at(kk, j) = 0x1p-103;
    for (std::size_t group : {32, 16})
        ASSERT_EQ(firstMismatchBothModes(a, b, group, &kBF16, false),
                  "");
}

TEST(Fp22PanelGolden, Fp22OverflowSaturationMatchesRef)
{
    // BF16 raw values reach ~2^128, so group sums overflow FP22's
    // range and the register saturates to +-maxFinite.
    Rng rng(33);
    Matrix a(9, 200), b(200, 17);
    a.fillActivationLike(rng);
    b.fillNormal(rng);
    for (std::size_t group : {7, 32})
        ASSERT_EQ(firstMismatchBothModes(a, b, group, &kBF16), "");
}

TEST(Fp22PanelGolden, WideFormatGateExtremesMatchRef)
{
    // A 10-bit-exponent element format (bias 510) reaches raw values
    // from ~2^-512 to ~2^513, so per-tensor GEMMs see group maxima
    // below the normal-quantum gate (e < 13), above the inv_e gate
    // (e > 2005), and infinite products. The amax 2^501 maps raw ~=
    // x * 2^12; row r of A holds magnitudes ~2^kRowExp[r], column c
    // of B ~2^kColExp[c].
    static const FloatFormat kE10M3 = {"E10M3", 10, 3, 510, false};
    static const int kRowExp[] = {500, -517, -519, -521, -300, 0};
    static const int kColExp[] = {500, -517, -519, 468, 458,
                                  -300, 0,    -120, -521};
    Rng rng(34);
    Matrix a(6, 160), b(160, 9);
    for (std::size_t r = 0; r < 6; ++r)
        for (std::size_t kk = 0; kk < 160; ++kk)
            a.at(r, kk) = std::ldexp(rng.uniform(-2.0, 2.0), kRowExp[r]);
    for (std::size_t kk = 0; kk < 160; ++kk)
        for (std::size_t c = 0; c < 9; ++c)
            b.at(kk, c) = std::ldexp(rng.uniform(-2.0, 2.0), kColExp[c]);
    a.at(0, 0) = 0x1p501;
    b.at(0, 0) = 0x1p501;
    for (std::size_t group : {1, 7, 32, 100})
        ASSERT_EQ(firstMismatchBothModes(a, b, group, &kE10M3, false),
                  "");
}

// ---------------------------------------------------------------
// Slot level: each SIMD fp22Panel against the scalar entry
// ---------------------------------------------------------------

/** How a test column's raw B values are drawn (see slotCase). */
enum class Regime
{
    ORDINARY,    //!< moderate normals: always the fast path
    ZERO,        //!< +0 column: all-zero groups, fast path
    SIGNED_ZERO, //!< -0 column: signed-zero products, fast path
    NON_FINITE,  //!< one NaN or inf among moderate values
    TINY,        //!< group maxima from subnormal to past e = 13
    HUGE,        //!< group maxima around the inv_e edge
    FP22_OVER,   //!< sums beyond FP22's range
    FP22_UNDER,  //!< sums in FP22's subnormal range
    COUNT,
};

double
regimeValue(Rng &rng, Regime regime)
{
    const double sign = rng.bernoulli(0.5) ? -1.0 : 1.0;
    const double frac = 1.0 + rng.nextDouble();
    switch (regime) {
      case Regime::ORDINARY:
      case Regime::NON_FINITE:
        return sign * std::ldexp(frac, (int)rng.nextBounded(17) - 8);
      case Regime::ZERO:
        return 0.0;
      case Regime::SIGNED_ZERO:
        return -0.0;
      case Regime::TINY: // products 2^-1025..2^-1007: e in 0..16
        return sign * std::ldexp(frac, -1025 + (int)rng.nextBounded(16));
      case Regime::HUGE: // products 2^978..2^990: e in 2001..2014
        return sign * std::ldexp(frac, 978 + (int)rng.nextBounded(10));
      case Regime::FP22_OVER:
        return sign * std::ldexp(frac, 124);
      case Regime::FP22_UNDER:
        return -std::ldexp(frac, -140);
      case Regime::COUNT:
        break;
    }
    return 0.0;
}

class Fp22PanelSlotTest : public ::testing::TestWithParam<KernelIsa>
{};

TEST_P(Fp22PanelSlotTest, MatchesScalarEntryAcrossGates)
{
    const KernelTable *t = kernelTable(GetParam());
    if (!t)
        GTEST_SKIP() << isaName(GetParam())
                     << " not available on this host";
    const KernelTable &scalar = *kernelTable(KernelIsa::SCALAR);
    const std::size_t nr = t->fp22PanelCols;
    ASSERT_LE(nr, 32u);
    const std::size_t ldb = nr + 3; // a stride that is not the panel

    Rng rng(0x5107 + (int)GetParam());
    std::size_t misses = 0, panels = 0;
    for (std::size_t kcnt : {1, 31, 33, 128, 129, 200}) {
        for (std::size_t group : {1, 7, 32, 64, 100, 128}) {
            for (int trial = 0; trial < 8; ++trial) {
                std::vector<double> a(kcnt), b(kcnt * ldb);
                for (double &x : a) // |a| in [1, 8): moderate
                    x = (rng.bernoulli(0.5) ? -1.0 : 1.0) *
                        std::ldexp(1.0 + rng.nextDouble(),
                                   (int)rng.nextBounded(3));
                std::vector<Regime> regime(nr);
                std::vector<double> seed(nr);
                for (std::size_t c = 0; c < nr; ++c) {
                    regime[c] =
                        (Regime)rng.nextBounded((int)Regime::COUNT);
                    for (std::size_t kk = 0; kk < kcnt; ++kk)
                        b[kk * ldb + c] = regimeValue(rng, regime[c]);
                    if (regime[c] == Regime::NON_FINITE)
                        b[rng.nextBounded(kcnt) * ldb + c] =
                            rng.bernoulli(0.5) ? kNaN : -kInf;
                    // Registers: +-0 or an FP22 value (13-bit
                    // mantissa) of ordinary size.
                    switch (rng.nextBounded(3)) {
                      case 0:
                        seed[c] = 0.0;
                        break;
                      case 1:
                        seed[c] = -0.0;
                        break;
                      default:
                        seed[c] = std::ldexp(
                            (double)(8192 + rng.nextBounded(8192)),
                            (int)rng.nextBounded(20) - 20);
                    }
                }

                std::vector<double> got = seed;
                const std::uint32_t miss = t->fp22Panel(
                    a.data(), b.data(), ldb, kcnt, group, got.data());
                ++panels;
                for (std::size_t c = 0; c < nr; ++c) {
                    SCOPED_TRACE("kcnt=" + std::to_string(kcnt) +
                                 " group=" + std::to_string(group) +
                                 " col=" + std::to_string(c) +
                                 " regime=" +
                                 std::to_string((int)regime[c]));
                    double want = seed[c];
                    ASSERT_EQ(scalar.fp22Panel(a.data(), b.data() + c,
                                               ldb, kcnt, group, &want),
                              0u);
                    if (miss >> c & 1) {
                        ++misses;
                        ASSERT_EQ(dbits(got[c]), dbits(seed[c]))
                            << "missed lane was overwritten";
                        continue;
                    }
                    ASSERT_EQ(dbits(got[c]), dbits(want))
                        << "got " << got[c] << " want " << want;
                }
                // Ordinary and zero groups are the fast path's whole
                // point: they must never fall back.
                for (std::size_t c = 0; c < nr; ++c) {
                    if (regime[c] == Regime::ORDINARY ||
                        regime[c] == Regime::ZERO ||
                        regime[c] == Regime::SIGNED_ZERO) {
                        ASSERT_EQ(miss >> c & 1, 0u)
                            << "fast-path column " << c << " regime "
                            << (int)regime[c] << " kcnt=" << kcnt
                            << " group=" << group;
                    }
                }
                ASSERT_EQ(miss >> nr, 0u) << "mask past the panel";
            }
        }
    }
    // The gate regimes must actually exercise the fallback.
    EXPECT_GT(misses, panels / 8);
}

INSTANTIATE_TEST_SUITE_P(
    Isa, Fp22PanelSlotTest,
    ::testing::Values(KernelIsa::AVX2, KernelIsa::AVX512),
    [](const ::testing::TestParamInfo<KernelIsa> &info) {
        return std::string(isaName(info.param));
    });

} // namespace
} // namespace dsv3::numerics
