/**
 * @file
 * Bit-exactness fuzz suite for the runtime-dispatched SIMD kernel
 * tables (numerics/dispatch.hh).
 *
 * Every available SIMD table (AVX2, AVX-512) is compared entry
 * by entry against the scalar oracle table over adversarial inputs:
 * every minifloat format, ragged tail lengths covering n mod width in
 * {0..width-1} for every lane width in use, denormals, NaNs (payload
 * included), +-inf, signed zeros, rounding-tie midpoints, and raw
 * random bit patterns. Results must match bit for bit -- including
 * NaN payloads, tally counters, and reduction results -- because the
 * dispatcher may pick any table and the repo's golden suites assume
 * byte-identical output under every DSV3_KERNEL_DISPATCH choice.
 *
 * Tables the host cannot run are explicitly GTEST_SKIPped, never
 * silently passed. The pure DSV3_KERNEL_DISPATCH resolution logic
 * (detail::chooseIsa) is unit-tested directly.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "numerics/dispatch.hh"
#include "numerics/gemm.hh"
#include "numerics/logfmt.hh"
#include "numerics/kernels.hh"
#include "numerics/minifloat.hh"

namespace dsv3::numerics {
namespace {

const FloatFormat *const kAllFormats[] = {&kE4M3, &kE5M2, &kE5M6,
                                          &kBF16, &kFP16, &kFP22};

constexpr double kInf = std::numeric_limits<double>::infinity();

std::uint64_t
dbits(double x)
{
    return std::bit_cast<std::uint64_t>(x);
}

/**
 * Adversarial doubles: IEEE specials, denormals, exact powers of two,
 * values around minifloat rounding ties, and raw random bit patterns
 * (which cover NaN payloads and extreme exponents on their own).
 */
std::vector<double>
fuzzInputs(Rng &rng, std::size_t n)
{
    static const double kSpecials[] = {
        0.0,
        -0.0,
        kInf,
        -kInf,
        std::numeric_limits<double>::quiet_NaN(),
        -std::numeric_limits<double>::quiet_NaN(),
        std::bit_cast<double>(0x7ff800000000beefULL), // NaN payload
        std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(),
        std::bit_cast<double>(0x000fffffffffffffULL), // max denormal
        std::numeric_limits<double>::min(),
        -std::numeric_limits<double>::min(),
        std::numeric_limits<double>::max(),
        -std::numeric_limits<double>::max(),
        1.0,
        -1.0,
        0.5,
        448.0,    // E4M3 maxFinite
        -448.0,
        57344.0,  // E5M2 maxFinite
        0x1p-6,
        0x1p-9,   // around FP8 subnormal ranges
        3.0 * 0x1p-10,
        0x1.8p-9, // halfway patterns
        0x1.1p0,
    };
    std::vector<double> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        switch (rng.nextBounded(4)) {
          case 0:
            out.push_back(
                kSpecials[rng.nextBounded(std::size(kSpecials))]);
            break;
          case 1: // raw bits: any double, NaNs/denormals included
            out.push_back(std::bit_cast<double>(rng.nextU64()));
            break;
          case 2: { // moderate-exponent normals (codec hot range)
            const double mag = std::ldexp(
                1.0 + rng.nextDouble(),
                (int)rng.nextBounded(41) - 20);
            out.push_back(rng.bernoulli(0.5) ? -mag : mag);
            break;
          }
          default: { // near-tie values on a coarse grid
            const double q = std::ldexp(
                (double)rng.nextBounded(1 << 10),
                (int)rng.nextBounded(8) - 11);
            const double eps =
                std::ldexp(1.0, -(int)rng.nextBounded(30) - 20);
            out.push_back((rng.bernoulli(0.5) ? -q : q) *
                          (1.0 + eps));
            break;
          }
        }
    }
    return out;
}

/** Lengths covering every n mod width for widths up to 8, plus big. */
const std::size_t kLengths[] = {0, 1,  2,  3,  4,  5,  6,  7,
                                8, 9,  15, 16, 17, 31, 64, 257};

class DispatchTest : public ::testing::TestWithParam<KernelIsa>
{
  protected:
    const KernelTable &oracle()
    {
        return *kernelTable(KernelIsa::SCALAR);
    }
};

/**
 * Bind the table under test, or GTEST_SKIP (never silently pass) when
 * this host can't run it. Must expand in the test body: GTEST_SKIP
 * returns from the enclosing void TestBody.
 */
#define DSV3_REQUIRE_ISA_TABLE(t)                                    \
    const KernelTable *t = kernelTable(GetParam());                  \
    if (!t)                                                          \
        GTEST_SKIP() << isaName(GetParam())                          \
                     << " not available on this host"

TEST_P(DispatchTest, CodecSpansMatchScalar)
{
    DSV3_REQUIRE_ISA_TABLE(t);
    Rng rng(0xc0dec);
    for (const FloatFormat *fmt : kAllFormats) {
        const FormatKernels &k = formatKernels(*fmt);
        SCOPED_TRACE(fmt->name);
        for (std::size_t n : kLengths) {
            const std::vector<double> in = fuzzInputs(rng, n);
            std::vector<std::uint32_t> code_s(n + 1, 0xabababab);
            std::vector<std::uint32_t> code_v(n + 1, 0xabababab);
            oracle().encodeSpan(k, in.data(), code_s.data(), n);
            t->encodeSpan(k, in.data(), code_v.data(), n);
            for (std::size_t i = 0; i <= n; ++i)
                ASSERT_EQ(code_v[i], code_s[i]) << "encode n=" << n
                                                << " i=" << i;

            std::vector<double> q_s(n + 1, -7.0), q_v(n + 1, -7.0);
            oracle().quantizeSpan(k, in.data(), q_s.data(), n);
            t->quantizeSpan(k, in.data(), q_v.data(), n);
            for (std::size_t i = 0; i <= n; ++i)
                ASSERT_EQ(dbits(q_v[i]), dbits(q_s[i]))
                    << "quantize n=" << n << " i=" << i
                    << " in=" << (i < n ? in[i] : 0.0);

            if (k.hasLut()) {
                std::vector<std::uint32_t> codes(n);
                for (auto &c : codes)
                    c = (std::uint32_t)rng.nextBounded(
                        k.decodeLut.size());
                std::vector<double> d_s(n + 1, -7.0), d_v(n + 1, -7.0);
                oracle().decodeLutSpan(k.decodeLut.data(),
                                       codes.data(), d_s.data(), n);
                t->decodeLutSpan(k.decodeLut.data(), codes.data(),
                                 d_v.data(), n);
                for (std::size_t i = 0; i <= n; ++i)
                    ASSERT_EQ(dbits(d_v[i]), dbits(d_s[i]))
                        << "decode n=" << n << " i=" << i;
            }
        }
    }
}

TEST_P(DispatchTest, EncodeScaledSpanMatchesScalarWithTallies)
{
    DSV3_REQUIRE_ISA_TABLE(t);
    Rng rng(0x5ca1ed);
    const double scales[] = {1.0, 0.25, 3.7e-3, 1.9e4, 1e200};
    for (const FloatFormat *fmt : kAllFormats) {
        const FormatKernels &k = formatKernels(*fmt);
        const std::uint32_t mag_mask =
            (1u << k.signShift) - 1;
        SCOPED_TRACE(fmt->name);
        for (std::size_t n : kLengths) {
            const std::vector<double> in = fuzzInputs(rng, n);
            const double s =
                scales[rng.nextBounded(std::size(scales))];
            std::vector<std::uint32_t> code_s(n + 1, 0xabababab);
            std::vector<std::uint32_t> code_v(n + 1, 0xabababab);
            std::uint64_t sat_s = 3, flush_s = 5;
            std::uint64_t sat_v = 3, flush_v = 5;
            oracle().encodeScaledSpan(k, in.data(), s, code_s.data(),
                                      n, k.maxFinite, mag_mask,
                                      &sat_s, &flush_s);
            t->encodeScaledSpan(k, in.data(), s, code_v.data(), n,
                                k.maxFinite, mag_mask, &sat_v,
                                &flush_v);
            for (std::size_t i = 0; i <= n; ++i)
                ASSERT_EQ(code_v[i], code_s[i])
                    << "n=" << n << " i=" << i << " s=" << s;
            ASSERT_EQ(sat_v, sat_s) << "n=" << n;
            ASSERT_EQ(flush_v, flush_s) << "n=" << n;

            // Tally-free variant must also match.
            oracle().encodeScaledSpan(k, in.data(), s, code_s.data(),
                                      n, k.maxFinite, mag_mask,
                                      nullptr, nullptr);
            t->encodeScaledSpan(k, in.data(), s, code_v.data(), n,
                                k.maxFinite, mag_mask, nullptr,
                                nullptr);
            for (std::size_t i = 0; i <= n; ++i)
                ASSERT_EQ(code_v[i], code_s[i])
                    << "no-tally n=" << n << " i=" << i;
        }
    }
}

TEST_P(DispatchTest, AbsMaxAndScaleSpanMatchScalar)
{
    DSV3_REQUIRE_ISA_TABLE(t);
    Rng rng(0xab5);
    const double inits[] = {0.0, 1.5, 1e300, 1e-300};
    for (std::size_t n : kLengths) {
        const std::vector<double> in = fuzzInputs(rng, n);
        for (double init : inits) {
            ASSERT_EQ(dbits(t->absMax(in.data(), n, init)),
                      dbits(oracle().absMax(in.data(), n, init)))
                << "absMax n=" << n << " init=" << init;
        }
        std::vector<double> a = in, b = in;
        const double s = rng.uniform(-3.0, 3.0);
        oracle().scaleSpan(a.data(), s, n);
        t->scaleSpan(b.data(), s, n);
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(dbits(b[i]), dbits(a[i]))
                << "scaleSpan n=" << n << " i=" << i;
    }
}

TEST_P(DispatchTest, LogFamilyMatchesScalar)
{
    DSV3_REQUIRE_ISA_TABLE(t);
    Rng rng(0x109f37);
    for (std::size_t n : kLengths) {
        const std::vector<double> in = fuzzInputs(rng, n);
        std::vector<double> logs_s(n + 1, -7.0), logs_v(n + 1, -7.0);
        double min_s = -1, max_s = -1, min_v = -1, max_v = -1;
        const bool any_s = oracle().logAbsStats(
            in.data(), logs_s.data(), n, &min_s, &max_s);
        const bool any_v = t->logAbsStats(in.data(), logs_v.data(), n,
                                          &min_v, &max_v);
        ASSERT_EQ(any_v, any_s) << "n=" << n;
        ASSERT_EQ(dbits(min_v), dbits(min_s)) << "n=" << n;
        ASSERT_EQ(dbits(max_v), dbits(max_s)) << "n=" << n;
        for (std::size_t i = 0; i <= n; ++i)
            ASSERT_EQ(dbits(logs_v[i]), dbits(logs_s[i]))
                << "logs n=" << n << " i=" << i
                << " in=" << (i < n ? in[i] : 0.0);
        if (!any_s || n == 0)
            continue;

        for (int bits : {4, 8, 10}) {
            const std::uint32_t sign_bit = 1u << (bits - 1);
            const std::uint32_t k_max = sign_bit - 1;
            const double step =
                k_max > 1 ? (max_s - min_s) / (double)(k_max - 1)
                          : 0.0;
            if (step == 0.0)
                continue; // degenerate tiles stay on the scalar path
            std::vector<double> mag_s(k_max + 1, -7.0);
            std::vector<double> mag_v(k_max + 1, -7.0);
            oracle().magTable(min_s, step, k_max, mag_s.data());
            t->magTable(min_s, step, k_max, mag_v.data());
            for (std::size_t j = 0; j <= k_max; ++j)
                ASSERT_EQ(dbits(mag_v[j]), dbits(mag_s[j]))
                    << "mag bits=" << bits << " j=" << j;

            std::vector<std::uint32_t> c_s(n, 0), c_v(n, 0);
            const std::uint64_t b_s = oracle().logfmtEncodeLog(
                in.data(), logs_s.data(), n, min_s, step, k_max,
                sign_bit, c_s.data());
            const std::uint64_t b_v = t->logfmtEncodeLog(
                in.data(), logs_s.data(), n, min_s, step, k_max,
                sign_bit, c_v.data());
            ASSERT_EQ(b_v, b_s) << "bits=" << bits << " n=" << n;
            for (std::size_t i = 0; i < n; ++i)
                ASSERT_EQ(c_v[i], c_s[i])
                    << "encodeLog bits=" << bits << " i=" << i;

            std::fill(c_s.begin(), c_s.end(), 0u);
            std::fill(c_v.begin(), c_v.end(), 0u);
            const std::uint64_t lb_s = oracle().logfmtEncodeLinear(
                in.data(), logs_s.data(), n, min_s, step, k_max,
                sign_bit, mag_s.data(), c_s.data());
            const std::uint64_t lb_v = t->logfmtEncodeLinear(
                in.data(), logs_s.data(), n, min_s, step, k_max,
                sign_bit, mag_s.data(), c_v.data());
            ASSERT_EQ(lb_v, lb_s) << "bits=" << bits << " n=" << n;
            for (std::size_t i = 0; i < n; ++i)
                ASSERT_EQ(c_v[i], c_s[i])
                    << "encodeLinear bits=" << bits << " i=" << i;

            std::vector<std::uint32_t> codes(n);
            for (auto &c : codes)
                c = (std::uint32_t)rng.nextBounded(k_max + 1) |
                    (rng.bernoulli(0.5) ? sign_bit : 0u);
            std::vector<double> d_s(n + 1, -7.0), d_v(n + 1, -7.0);
            oracle().logfmtDecode(codes.data(), n, sign_bit,
                                  mag_s.data(), d_s.data());
            t->logfmtDecode(codes.data(), n, sign_bit, mag_s.data(),
                            d_v.data());
            for (std::size_t i = 0; i <= n; ++i)
                ASSERT_EQ(dbits(d_v[i]), dbits(d_s[i]))
                    << "decode bits=" << bits << " i=" << i;
        }
    }
}

TEST_P(DispatchTest, GemmFamilyMatchesScalar)
{
    DSV3_REQUIRE_ISA_TABLE(t);
    Rng rng(0x93e);
    for (std::size_t n : kLengths) {
        // Finite operands: tile dots feed FP32/BF16 accumulation.
        std::vector<double> a(n), b(n);
        for (std::size_t i = 0; i < n; ++i) {
            a[i] = rng.normal();
            b[i] = rng.normal();
        }
        ASSERT_EQ(dbits(t->dotTile(a.data(), b.data(), n)),
                  dbits(oracle().dotTile(a.data(), b.data(), n)))
            << "dotTile n=" << n;
        const float f_v = t->dotTileF32(a.data(), b.data(), n);
        const float f_s = oracle().dotTileF32(a.data(), b.data(), n);
        ASSERT_EQ(std::bit_cast<std::uint32_t>(f_v),
                  std::bit_cast<std::uint32_t>(f_s))
            << "dotTileF32 n=" << n;

        const std::vector<double> wild = fuzzInputs(rng, n);
        ASSERT_EQ(t->absBitsMax(wild.data(), n),
                  oracle().absBitsMax(wild.data(), n))
            << "absBitsMax n=" << n;

        // truncSum under its exactness contract: products bounded so
        // every term is an exact multiple of quantum and the sum has
        // < 2^53 quanta.
        const double quantum = 0x1p-10;
        const double inv_quantum = 0x1p10;
        std::vector<double> prod(n);
        for (std::size_t i = 0; i < n; ++i)
            prod[i] = rng.uniform(-1000.0, 1000.0);
        ASSERT_EQ(dbits(t->truncSum(prod.data(), n, inv_quantum,
                                    quantum)),
                  dbits(oracle().truncSum(prod.data(), n, inv_quantum,
                                          quantum)))
            << "truncSum n=" << n;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Isa, DispatchTest,
    ::testing::Values(KernelIsa::AVX2, KernelIsa::AVX512),
    [](const ::testing::TestParamInfo<KernelIsa> &info) {
        return std::string(isaName(info.param));
    });

// ---------------------------------------------------------------
// DSV3_KERNEL_DISPATCH resolution logic (pure, unit-tested)
// ---------------------------------------------------------------

unsigned
maskOf(std::initializer_list<KernelIsa> isas)
{
    unsigned m = 0;
    for (KernelIsa isa : isas)
        m |= 1u << (int)isa;
    return m;
}

TEST(DispatchChoice, UnsetPicksBestAvailable)
{
    using detail::chooseIsa;
    EXPECT_EQ(chooseIsa(nullptr, maskOf({KernelIsa::AVX2,
                                         KernelIsa::AVX512}))
                  .isa,
              KernelIsa::AVX512);
    EXPECT_EQ(chooseIsa("", maskOf({KernelIsa::AVX2})).isa,
              KernelIsa::AVX2);
    EXPECT_EQ(chooseIsa(nullptr, 0).isa, KernelIsa::SCALAR);
    EXPECT_FALSE(chooseIsa(nullptr, 0).forced);
}

TEST(DispatchChoice, ForcedIsaIsHonoredCaseInsensitively)
{
    using detail::chooseIsa;
    const unsigned mask =
        maskOf({KernelIsa::AVX2, KernelIsa::AVX512});
    const detail::DispatchChoice c = chooseIsa("avx2", mask);
    EXPECT_EQ(c.isa, KernelIsa::AVX2);
    EXPECT_TRUE(c.forced);
    EXPECT_FALSE(c.unsupported);
    EXPECT_FALSE(c.unknown);
    EXPECT_EQ(chooseIsa("AVX512", mask).isa, KernelIsa::AVX512);
    EXPECT_EQ(chooseIsa("Scalar", mask).isa, KernelIsa::SCALAR);
    EXPECT_TRUE(chooseIsa("Scalar", mask).forced);
}

TEST(DispatchChoice, UnsupportedIsaFallsBackToBestAvailable)
{
    using detail::chooseIsa;
    const detail::DispatchChoice c =
        detail::chooseIsa("avx512", maskOf({KernelIsa::AVX2}));
    EXPECT_EQ(c.isa, KernelIsa::AVX2);
    EXPECT_FALSE(c.forced);
    EXPECT_TRUE(c.unsupported);
    EXPECT_FALSE(c.unknown);
}

TEST(DispatchChoice, UnknownNameFallsBackToBestAvailable)
{
    using detail::chooseIsa;
    const detail::DispatchChoice c =
        detail::chooseIsa("sse9", maskOf({KernelIsa::AVX2}));
    EXPECT_EQ(c.isa, KernelIsa::AVX2);
    EXPECT_FALSE(c.forced);
    EXPECT_FALSE(c.unsupported);
    EXPECT_TRUE(c.unknown);
}

TEST(Dispatch, ScalarTableAlwaysAvailableAndComplete)
{
    const KernelTable *s = kernelTable(KernelIsa::SCALAR);
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->isa, KernelIsa::SCALAR);
    EXPECT_NE(s->encodeSpan, nullptr);
    EXPECT_NE(s->truncSum, nullptr);
}

TEST(Dispatch, ActiveTableIsAvailableAndGapFilled)
{
    const KernelTable &kt = kernels();
    EXPECT_EQ(kt.isa, activeIsa());
    EXPECT_NE(kernelTable(activeIsa()), nullptr);
    // Gap-filling: every entry of every available table is non-null.
    for (KernelIsa isa :
         {KernelIsa::SCALAR, KernelIsa::AVX2, KernelIsa::AVX512}) {
        const KernelTable *t = kernelTable(isa);
        if (!t)
            continue;
        EXPECT_NE(t->encodeSpan, nullptr) << isaName(isa);
        EXPECT_NE(t->quantizeSpan, nullptr) << isaName(isa);
        EXPECT_NE(t->decodeLutSpan, nullptr) << isaName(isa);
        EXPECT_NE(t->encodeScaledSpan, nullptr) << isaName(isa);
        EXPECT_NE(t->absMax, nullptr) << isaName(isa);
        EXPECT_NE(t->scaleSpan, nullptr) << isaName(isa);
        EXPECT_NE(t->logAbsStats, nullptr) << isaName(isa);
        EXPECT_NE(t->magTable, nullptr) << isaName(isa);
        EXPECT_NE(t->logfmtEncodeLog, nullptr) << isaName(isa);
        EXPECT_NE(t->logfmtEncodeLinear, nullptr) << isaName(isa);
        EXPECT_NE(t->logfmtDecode, nullptr) << isaName(isa);
        EXPECT_NE(t->dotTile, nullptr) << isaName(isa);
        EXPECT_NE(t->dotTileF32, nullptr) << isaName(isa);
        EXPECT_NE(t->absBitsMax, nullptr) << isaName(isa);
        EXPECT_NE(t->truncSum, nullptr) << isaName(isa);
        EXPECT_NE(t->fp22Panel, nullptr) << isaName(isa);
        EXPECT_GE(t->fp22PanelCols, 1u) << isaName(isa);
    }
}

/**
 * End-to-end: the full quantized-GEMM and LogFMT pipelines produce
 * byte-identical results under every available dispatch table, at
 * thread widths 1, 2, and the hardware default. This is the
 * product-level version of the per-entry fuzz above -- it exercises
 * the real call sites (quantize passes, packed panels, magnitude
 * cache, FP22 group sums) rather than the kernel entries in
 * isolation.
 */
TEST(Dispatch, PipelinesBitIdenticalAcrossTablesAndWidths)
{
    struct WidthGuard
    {
        explicit WidthGuard(std::size_t w) { setParallelForWidth(w); }
        ~WidthGuard() { setParallelForWidth(0); }
    };

    Rng rng(77);
    Matrix a(33, 160), b(160, 21);
    a.fillActivationLike(rng, 1.0, 0.02, 50.0);
    b.fillNormal(rng);
    std::vector<double> tile(300);
    for (auto &x : tile)
        x = rng.normal();
    tile[7] = 0.0;
    tile[13] = -0.0;

    GemmOptions opt;
    opt.fmt = &kE4M3;
    opt.tileK = 64;

    for (AccumMode mode : {AccumMode::FP32, AccumMode::FP22}) {
        opt.accum = mode;
        opt.fineGrained = true;
        Matrix want_q = gemmQuantizedRef(a, b, opt);
        Matrix want_bf16 = gemmBf16Ref(a, b);
        LogFmtCodec codec(8, LogFmtRounding::LINEAR_SPACE);
        const std::vector<double> want_rt = codec.roundTrip(tile);

        for (KernelIsa isa : {KernelIsa::SCALAR, KernelIsa::AVX2,
                              KernelIsa::AVX512}) {
            const KernelTable *t = kernelTable(isa);
            if (!t)
                continue; // per-entry suites GTEST_SKIP loudly
            ScopedKernelOverride o(*t);
            for (std::size_t w : {std::size_t{1}, std::size_t{2},
                                  std::size_t{0}}) {
                WidthGuard guard(w);
                SCOPED_TRACE(std::string(isaName(isa)) + " w=" +
                             std::to_string(w));
                Matrix got = gemmQuantized(a, b, opt);
                ASSERT_EQ(got.rows(), want_q.rows());
                for (std::size_t r = 0; r < got.rows(); ++r)
                    for (std::size_t c = 0; c < got.cols(); ++c)
                        ASSERT_EQ(dbits(got.at(r, c)),
                                  dbits(want_q.at(r, c)))
                            << "gemmQuantized (" << r << "," << c
                            << ")";
                Matrix gotb = gemmBf16(a, b);
                for (std::size_t r = 0; r < gotb.rows(); ++r)
                    for (std::size_t c = 0; c < gotb.cols(); ++c)
                        ASSERT_EQ(dbits(gotb.at(r, c)),
                                  dbits(want_bf16.at(r, c)))
                            << "gemmBf16 (" << r << "," << c << ")";
                const std::vector<double> rt = codec.roundTrip(tile);
                for (std::size_t i = 0; i < rt.size(); ++i)
                    ASSERT_EQ(dbits(rt[i]), dbits(want_rt[i]))
                        << "roundTrip i=" << i;
            }
        }
    }
}

TEST(Dispatch, ScopedOverrideSwapsActiveTable)
{
    const KernelIsa before = activeIsa();
    {
        ScopedKernelOverride o(*kernelTable(KernelIsa::SCALAR));
        EXPECT_EQ(activeIsa(), KernelIsa::SCALAR);
        EXPECT_EQ(kernels().isa, KernelIsa::SCALAR);
    }
    EXPECT_EQ(activeIsa(), before);
}

} // namespace
} // namespace dsv3::numerics
