/**
 * @file
 * Scalar KernelTable: the oracle every SIMD table is fuzzed against.
 *
 * These entries are the pinned-order scalar implementations -- the
 * codec family routes through detail::quantizeCore (bit-identical to
 * the minifloat.cc reference codec), the float families through
 * numerics/fastmath.hh. Everything here must stay straightforward and
 * readable; speed comes from the SIMD tables, correctness arguments
 * come from here.
 */

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "numerics/dispatch.hh"
#include "numerics/fastmath.hh"
#include "numerics/fp22.hh"
#include "numerics/kernels.hh"

namespace dsv3::numerics {
namespace {

void
encodeSpanScalar(const FormatKernels &k, const double *in,
                 std::uint32_t *out, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        out[i] = detail::quantizeCore(k, in[i], false).code;
}

void
quantizeSpanScalar(const FormatKernels &k, const double *in, double *out,
                   std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        out[i] = detail::quantizeCore(k, in[i], false).value;
}

void
decodeLutSpanScalar(const double *lut, const std::uint32_t *in,
                    double *out, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        out[i] = lut[in[i]];
}

void
encodeScaledSpanScalar(const FormatKernels &k, const double *in,
                       double s, std::uint32_t *out, std::size_t n,
                       double fmt_max, std::uint32_t mag_mask,
                       std::uint64_t *saturated, std::uint64_t *flushed)
{
    if (!saturated) {
        for (std::size_t i = 0; i < n; ++i)
            out[i] = detail::quantizeCore(k, in[i] / s, false).code;
        return;
    }
    std::uint64_t sat = 0, flush = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const double scaled = in[i] / s;
        const std::uint32_t code =
            detail::quantizeCore(k, scaled, false).code;
        out[i] = code;
        if (std::fabs(scaled) > fmt_max)
            ++sat;
        else if (scaled != 0.0 && (code & mag_mask) == 0)
            ++flush;
    }
    *saturated += sat;
    *flushed += flush;
}

double
absMaxScalar(const double *in, std::size_t n, double init)
{
    double run = init;
    for (std::size_t i = 0; i < n; ++i)
        run = std::max(run, std::fabs(in[i]));
    return run;
}

void
scaleSpanScalar(double *inout, double s, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        inout[i] *= s;
}

bool
logAbsStatsScalar(const double *in, double *logs, std::size_t n,
                  double *min_log, double *max_log)
{
    double lo = 0.0, hi = 0.0;
    bool any = false;
    for (std::size_t i = 0; i < n; ++i) {
        const double x = in[i];
        const double l = fastmath::logAbsPinned(x);
        logs[i] = l;
        if (x == 0.0 || !std::isfinite(x))
            continue;
        if (!any) {
            lo = hi = l;
            any = true;
        } else {
            lo = std::min(lo, l);
            hi = std::max(hi, l);
        }
    }
    *min_log = lo;
    *max_log = hi;
    return any;
}

void
magTableScalar(double min_log, double step, std::uint32_t k_max,
               double *mag)
{
    mag[0] = 0.0;
    for (std::uint32_t j = 1; j <= k_max; ++j)
        mag[j] =
            fastmath::expPinned(min_log + step * (double)(j - 1));
}

std::uint64_t
logfmtEncodeLogScalar(const double *values, const double *logs,
                      std::size_t n, double min_log, double step,
                      std::uint32_t k_max, std::uint32_t sign_bit,
                      std::uint32_t *codes)
{
    std::uint64_t below_range = 0;
    const double k_max_d = (double)k_max;
    for (std::size_t i = 0; i < n; ++i) {
        const double x = values[i];
        if (x == 0.0 || !std::isfinite(x))
            continue; // code already 0
        const std::uint32_t sign = x < 0.0 ? sign_bit : 0u;
        const double k_real = (logs[i] - min_log) / step + 1.0;
        if (k_real < 1.0)
            ++below_range;
        const double r = fastmath::roundHalfUpPinned(k_real);
        const double cl = std::min(std::max(r, 1.0), k_max_d);
        codes[i] = sign | (std::uint32_t)cl;
    }
    return below_range;
}

std::uint64_t
logfmtEncodeLinearScalar(const double *values, const double *logs,
                         std::size_t n, double min_log, double step,
                         std::uint32_t k_max, std::uint32_t sign_bit,
                         const double *mag, std::uint32_t *codes)
{
    std::uint64_t below_range = 0;
    const double k_max_d = (double)k_max;
    for (std::size_t i = 0; i < n; ++i) {
        const double x = values[i];
        if (x == 0.0 || !std::isfinite(x))
            continue; // code already 0
        const std::uint32_t sign = x < 0.0 ? sign_bit : 0u;
        const double k_real = (logs[i] - min_log) / step + 1.0;
        if (k_real < 1.0)
            ++below_range;
        // Candidate codes: floor and ceil of the index, clamped into
        // [1, k_max]; pick whichever decodes closer to |x|.
        const double fl = std::floor(k_real);
        const double lo_d = std::min(std::max(fl, 1.0), k_max_d);
        const std::uint32_t lo = (std::uint32_t)lo_d;
        const std::uint32_t hi = std::min(lo + 1, k_max);
        const double m = std::fabs(x);
        const double v_lo = mag[lo];
        const double v_hi = mag[hi];
        const std::uint32_t kk =
            std::fabs(m - v_lo) <= std::fabs(v_hi - m) ? lo : hi;
        codes[i] = sign | kk;
    }
    return below_range;
}

void
logfmtDecodeScalar(const std::uint32_t *codes, std::size_t n,
                   std::uint32_t sign_bit, const double *mag,
                   double *out)
{
    const std::uint32_t k_mask = sign_bit - 1;
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t code = codes[i];
        const double m = mag[code & k_mask];
        out[i] = (code & sign_bit) ? -m : m;
    }
}

double
dotTileScalar(const double *a, const double *b, std::size_t n)
{
    return fastmath::pinnedDot(a, b, n);
}

float
dotTileF32Scalar(const double *a, const double *b, std::size_t n)
{
    return fastmath::pinnedDotF32(a, b, n);
}

std::uint64_t
absBitsMaxScalar(const double *in, std::size_t n)
{
    std::uint64_t mx = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t mag = std::bit_cast<std::uint64_t>(in[i]) &
                                  0x7fffffffffffffffull;
        mx = std::max(mx, mag);
    }
    return mx;
}

double
truncSumScalar(const double *in, std::size_t n, double inv_quantum,
               double quantum)
{
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        sum += std::trunc(in[i] * inv_quantum) * quantum;
    return sum;
}

/**
 * The per-cell FP22 loop for one column: gather the column's products
 * group by group and fold each alignedGroupSum into the register. It
 * handles every input (non-finite, subnormal, saturating), so it
 * never reports a miss.
 */
std::uint32_t
fp22PanelScalar(const double *a, const double *b, std::size_t ldb,
                std::size_t kcnt, std::size_t group, double *reg)
{
    // The tensor-core instruction group is 32 on real hardware, so
    // the stack buffer covers every sane config.
    alignas(64) double stack_buf[64];
    std::vector<double> heap_buf(group > 64 ? group : 0);
    double *pbuf = group > 64 ? heap_buf.data() : stack_buf;
    Fp22Register r(*reg);
    for (std::size_t kk = 0; kk < kcnt;) {
        const std::size_t lim = std::min(kcnt, kk + group);
        const std::size_t cnt = lim - kk;
        for (std::size_t q = 0; q < cnt; ++q, ++kk)
            pbuf[q] = a[kk] * b[kk * ldb];
        r.add(alignedGroupSum({pbuf, cnt}));
    }
    *reg = r.value();
    return 0;
}

/**
 * Each segment's n largest values: a descending run top[0..n) that
 * takes a value only when it beats the run's last entry, inserted
 * behind every entry it does not beat. An equal value is placed below
 * its twin, so a repeated maximum fills two slots.
 */
void
topNPerSegmentScalar(const double *v, std::size_t segments,
                     std::size_t len, std::size_t n, double *out)
{
    for (std::size_t s = 0; s < segments; ++s) {
        double *top = out + s * n;
        std::fill(top, top + n, -std::numeric_limits<double>::infinity());
        for (std::size_t i = 0; i < len; ++i) {
            const double x = v[s * len + i];
            if (!(x > top[n - 1]))
                continue;
            std::size_t j = n - 1;
            for (; j > 0 && top[j - 1] < x; --j)
                top[j] = top[j - 1];
            top[j] = x;
        }
    }
}

void
maskAtLeastScalar(const double *v, std::size_t n, double cut,
                  std::uint64_t *bits)
{
    for (std::size_t w = 0; w * 64 < n; ++w) {
        const double *p = v + w * 64;
        const std::size_t m = std::min<std::size_t>(64, n - w * 64);
        std::uint64_t word = 0;
        for (std::size_t b = 0; b < m; ++b)
            word |= (std::uint64_t)(p[b] >= cut) << b;
        bits[w] = word;
    }
}

const KernelTable kScalarTable = [] {
    KernelTable t;
    t.isa = KernelIsa::SCALAR;
    t.encodeSpan = encodeSpanScalar;
    t.quantizeSpan = quantizeSpanScalar;
    t.decodeLutSpan = decodeLutSpanScalar;
    t.encodeScaledSpan = encodeScaledSpanScalar;
    t.absMax = absMaxScalar;
    t.scaleSpan = scaleSpanScalar;
    t.logAbsStats = logAbsStatsScalar;
    t.magTable = magTableScalar;
    t.logfmtEncodeLog = logfmtEncodeLogScalar;
    t.logfmtEncodeLinear = logfmtEncodeLinearScalar;
    t.logfmtDecode = logfmtDecodeScalar;
    t.dotTile = dotTileScalar;
    t.dotTileF32 = dotTileF32Scalar;
    t.absBitsMax = absBitsMaxScalar;
    t.truncSum = truncSumScalar;
    t.fp22Panel = fp22PanelScalar;
    t.topNPerSegment = topNPerSegmentScalar;
    t.maskAtLeast = maskAtLeastScalar;
    return t;
}();

} // namespace

const KernelTable *
detail::scalarKernelTable()
{
    return &kScalarTable;
}

} // namespace dsv3::numerics
