#include "numerics/gemm.hh"

#include <algorithm>
#include <bit>
#include <vector>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "numerics/dispatch.hh"
#include "numerics/fastmath.hh"
#include "numerics/kernels.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"

namespace dsv3::numerics {

namespace {

struct GemmStats
{
    obs::Counter &calls =
        obs::Registry::global().counter("numerics.gemm.calls");
    obs::Counter &tiles =
        obs::Registry::global().counter("numerics.gemm.tiles");
    obs::Counter &elements =
        obs::Registry::global().counter("numerics.gemm.elements");
};

GemmStats &
gemmStats()
{
    static GemmStats *stats = new GemmStats();
    return *stats;
}

/** Output rows per parallelFor task. */
constexpr std::size_t kRowBlock = 8;

/**
 * Return @p src (rows x cols, row-major) transposed, so a GEMM's B
 * operand becomes k-major: out[j * rows + kk] = src[kk * cols + j].
 * Blocked to keep both streams cache-resident.
 */
AlignedVector<double>
transposed(const double *src, std::size_t rows, std::size_t cols)
{
    constexpr std::size_t B = 32;
    AlignedVector<double> out(rows * cols);
    for (std::size_t r0 = 0; r0 < rows; r0 += B) {
        const std::size_t r1 = std::min(rows, r0 + B);
        for (std::size_t c0 = 0; c0 < cols; c0 += B) {
            const std::size_t c1 = std::min(cols, c0 + B);
            for (std::size_t r = r0; r < r1; ++r)
                for (std::size_t c = c0; c < c1; ++c)
                    out[c * rows + r] = src[r * cols + c];
        }
    }
    return out;
}

/** Run fn(i_lo, i_hi) over kRowBlock-row slices of [0, m) in parallel. */
void
forRowBlocks(std::size_t m,
             const std::function<void(std::size_t, std::size_t)> &fn)
{
    const std::size_t blocks = (m + kRowBlock - 1) / kRowBlock;
    parallelFor(blocks, [&](std::size_t blk) {
        const std::size_t i_lo = blk * kRowBlock;
        fn(i_lo, std::min(m, i_lo + kRowBlock));
    });
}

/**
 * Reject options the GEMM loops cannot run: a zero group or tile
 * never advances K, and fine-grained scales cannot be folded without
 * a promotion step.
 */
void
validateGemmOptions(const GemmOptions &options)
{
    DSV3_ASSERT(options.fmt, "GemmOptions: fmt must not be null");
    DSV3_ASSERT(options.tileK > 0, "GemmOptions: tileK must be >= 1");
    DSV3_ASSERT(options.groupSize > 0,
                "GemmOptions: groupSize must be >= 1");
    if (options.accum == AccumMode::FP22_NO_PROMOTION) {
        DSV3_ASSERT(!options.fineGrained,
                    "FP22-only accumulation cannot fold fine-grained "
                    "scales (no promotion step exists)");
    }
}

/**
 * Fold one K-tile into the FP22 registers of a row's n columns:
 * fp22PanelCols columns per panel call, and the scalar entry (the
 * per-cell loop) for the tail columns and for any column a panel
 * reports as a miss -- its register is still the saved one.
 */
void
fp22RowTile(const KernelTable &kt, const KernelTable &scalar,
            const double *a, const double *b, std::size_t n,
            std::size_t kcnt, std::size_t group, double *reg)
{
    const std::size_t nr = kt.fp22PanelCols;
    std::size_t j = 0;
    for (; j + nr <= n; j += nr) {
        for (std::uint32_t miss =
                 kt.fp22Panel(a, b + j, n, kcnt, group, reg + j);
             miss; miss &= miss - 1) {
            const std::size_t jj = j + std::countr_zero(miss);
            scalar.fp22Panel(a, b + jj, n, kcnt, group, reg + jj);
        }
    }
    for (; j < n; ++j)
        scalar.fp22Panel(a, b + j, n, kcnt, group, reg + j);
}

} // namespace

Matrix
gemmRef(const Matrix &a, const Matrix &b)
{
    DSV3_ASSERT(a.cols() == b.rows());
    const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
    Matrix c(m, n);
    // Same pinned 8-lane k reduction as gemmRefScalar -- only the B
    // layout and the row partitioning change, so the result is
    // byte-identical at any thread count and under any dispatch table.
    const AlignedVector<double> bt =
        transposed(b.data().data(), k, n);
    const double *ad = a.data().data();
    double *cd = c.data().data();
    const KernelTable &kt = kernels();
    forRowBlocks(m, [&](std::size_t i_lo, std::size_t i_hi) {
        for (std::size_t i = i_lo; i < i_hi; ++i) {
            const double *arow = ad + i * k;
            for (std::size_t j = 0; j < n; ++j)
                cd[i * n + j] = kt.dotTile(arow, bt.data() + j * k, k);
        }
    });
    return c;
}

Matrix
gemmBf16(const Matrix &a, const Matrix &b)
{
    DSV3_ASSERT(a.cols() == b.rows());
    const std::size_t m = a.rows(), k = a.cols(), n = b.cols();

    // Pre-quantize operands to BF16 in bulk, then pack B k-major.
    AlignedVector<double> aq(m * k), bq(k * n);
    quantizeSpan(kBF16, a.data(), aq.data());
    quantizeSpan(kBF16, b.data(), bq.data());
    const AlignedVector<double> bt = transposed(bq.data(), k, n);

    Matrix c(m, n);
    double *cd = c.data().data();
    const KernelTable &kt = kernels();
    forRowBlocks(m, [&](std::size_t i_lo, std::size_t i_hi) {
        for (std::size_t i = i_lo; i < i_hi; ++i) {
            const double *arow = aq.data() + i * k;
            for (std::size_t j = 0; j < n; ++j)
                cd[i * n + j] =
                    (double)kt.dotTileF32(arow, bt.data() + j * k, k);
        }
    });
    return c;
}

Matrix
gemmQuantized(const Matrix &a, const Matrix &b, const GemmOptions &options)
{
    DSV3_ASSERT(a.cols() == b.rows());
    validateGemmOptions(options);
    const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
    DSV3_TRACE_SPAN("numerics.gemm.quantized", "m", m, "n", n, "k", k);
    const std::size_t tile_k = options.tileK;
    const std::size_t group = options.groupSize;

    const Granularity ga = options.fineGrained ? Granularity::TILE_1X128
                                               : Granularity::PER_TENSOR;
    const Granularity gb = options.fineGrained
        ? Granularity::BLOCK_128X128 : Granularity::PER_TENSOR;
    QuantizedMatrix aq(a, *options.fmt, ga, tile_k);
    QuantizedMatrix bq(b, *options.fmt, gb, tile_k);

    // Decode the raw (unscaled) operand values once in bulk (a LUT
    // gather for FP8 formats). The FP22 panels read B row-major; only
    // the FP32 arm's tile dots want it packed k-major.
    AlignedVector<double> araw(m * k), braw(k * n);
    aq.decodeRawInto(araw.data());
    bq.decodeRawInto(braw.data());
    AlignedVector<double> bt;
    if (options.accum == AccumMode::FP32) {
        bt = transposed(braw.data(), k, n);
        braw.clear();
        braw.shrink_to_fit();
    }

    // Hoist the scale grids out of the inner loops: ascale is (row x
    // tile), bscale is (tile x col).
    const std::size_t num_tiles = (k + tile_k - 1) / tile_k;
    AlignedVector<double> ascale(m * num_tiles);
    AlignedVector<double> bscale(num_tiles * n);
    for (std::size_t i = 0; i < m; ++i)
        for (std::size_t t = 0; t < num_tiles; ++t)
            ascale[i * num_tiles + t] = aq.scale(i, t * tile_k);
    for (std::size_t t = 0; t < num_tiles; ++t)
        for (std::size_t j = 0; j < n; ++j)
            bscale[t * n + j] = bq.scale(t * tile_k, j);

    Matrix c(m, n);
    double *cd = c.data().data();

    // Each arm keeps the scalar reference's exact operation order per
    // output cell (tiles in order, the pinned 8-lane reduction inside
    // an FP32 tile, products grouped per `group` for the tensor-core
    // model), so results are byte-identical to gemmQuantizedRef at any
    // thread count and under any dispatch table.
    const KernelTable &kt = kernels();
    const KernelTable &scalar = *kernelTable(KernelIsa::SCALAR);
    forRowBlocks(m, [&](std::size_t i_lo, std::size_t i_hi) {
        if (options.accum == AccumMode::FP32) {
            for (std::size_t i = i_lo; i < i_hi; ++i) {
                const double *arow = araw.data() + i * k;
                const double *as = ascale.data() + i * num_tiles;
                for (std::size_t j = 0; j < n; ++j) {
                    const double *brow = bt.data() + j * k;
                    float fp32_accum = 0.0f;
                    for (std::size_t t = 0; t < num_tiles; ++t) {
                        const std::size_t k_lo = t * tile_k;
                        const std::size_t k_hi =
                            std::min(k, k_lo + tile_k);
                        const double combined_scale =
                            as[t] * bscale[t * n + j];
                        const double tile_sum = kt.dotTile(
                            arow + k_lo, brow + k_lo, k_hi - k_lo);
                        fp32_accum += (float)(tile_sum * combined_scale);
                    }
                    cd[i * n + j] = (double)fp32_accum;
                }
            }
            return;
        }

        // FP22 arms: tile-major over the block, so the tile's rows of
        // B stay cached while every row of the block streams past
        // them. Each cell still folds its tiles in order, and
        // FP22_NO_PROMOTION carries the register across tiles.
        const bool promote = options.accum == AccumMode::FP22;
        const std::size_t rows = i_hi - i_lo;
        AlignedVector<double> reg(rows * n, 0.0);
        std::vector<float> fp32_accum(promote ? rows * n : 0, 0.0f);
        for (std::size_t t = 0; t < num_tiles; ++t) {
            const std::size_t k_lo = t * tile_k;
            const std::size_t kcnt = std::min(k, k_lo + tile_k) - k_lo;
            const double *btile = braw.data() + k_lo * n;
            const double *bs = bscale.data() + t * n;
            for (std::size_t r = 0; r < rows; ++r) {
                const std::size_t i = i_lo + r;
                double *rreg = reg.data() + r * n;
                if (promote)
                    std::fill_n(rreg, n, 0.0);
                fp22RowTile(kt, scalar, araw.data() + i * k + k_lo,
                            btile, n, kcnt, group, rreg);
                if (!promote)
                    continue;
                // Promotion: CUDA cores fold the dequant scales.
                const double as = ascale[i * num_tiles + t];
                float *acc = fp32_accum.data() + r * n;
                for (std::size_t j = 0; j < n; ++j)
                    acc[j] += (float)(rreg[j] * (as * bs[j]));
            }
        }
        for (std::size_t r = 0; r < rows; ++r) {
            const std::size_t i = i_lo + r;
            for (std::size_t j = 0; j < n; ++j) {
                if (promote)
                    cd[i * n + j] = (double)fp32_accum[r * n + j];
                else if (num_tiles == 0) // no tiles, no scales: +0
                    cd[i * n + j] = 0.0;
                else
                    cd[i * n + j] = reg[r * n + j] *
                                    (ascale[i * num_tiles] * bscale[j]);
            }
        }
    });

    GemmStats &stats = gemmStats();
    stats.calls.inc();
    stats.tiles.inc((std::uint64_t)(m * n * num_tiles));
    stats.elements.inc((std::uint64_t)(m * n));
    return c;
}

// Scalar reference oracles (original implementations, stats/trace
// free). ---------------------------------------------------------------

Matrix
gemmRefScalar(const Matrix &a, const Matrix &b)
{
    DSV3_ASSERT(a.cols() == b.rows());
    std::size_t m = a.rows(), k = a.cols(), n = b.cols();
    Matrix c(m, n);
    // The pinned strided dot -- deliberately not the dispatch table,
    // so this oracle is meaningful against any of its tables.
    const double *ad = a.data().data();
    const double *bd = b.data().data();
    for (std::size_t i = 0; i < m; ++i)
        for (std::size_t j = 0; j < n; ++j)
            c.at(i, j) = fastmath::pinnedDot(ad + i * k, bd + j, k, n);
    return c;
}

Matrix
gemmBf16Ref(const Matrix &a, const Matrix &b)
{
    DSV3_ASSERT(a.cols() == b.rows());
    std::size_t m = a.rows(), k = a.cols(), n = b.cols();

    // Pre-quantize operands to BF16 once, via the reference codec.
    Matrix aq(m, k), bq(k, n);
    for (std::size_t i = 0; i < m; ++i)
        for (std::size_t kk = 0; kk < k; ++kk)
            aq.at(i, kk) = quantizeRef(kBF16, a.at(i, kk));
    for (std::size_t kk = 0; kk < k; ++kk)
        for (std::size_t j = 0; j < n; ++j)
            bq.at(kk, j) = quantizeRef(kBF16, b.at(kk, j));

    Matrix c(m, n);
    const double *aqd = aq.data().data();
    const double *bqd = bq.data().data();
    for (std::size_t i = 0; i < m; ++i)
        for (std::size_t j = 0; j < n; ++j)
            c.at(i, j) = (double)fastmath::pinnedDotF32(aqd + i * k,
                                                        bqd + j, k, n);
    return c;
}

Matrix
gemmQuantizedRef(const Matrix &a, const Matrix &b,
                 const GemmOptions &options)
{
    DSV3_ASSERT(a.cols() == b.rows());
    validateGemmOptions(options);
    const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
    const std::size_t tile_k = options.tileK;
    const std::size_t group = options.groupSize;

    const Granularity ga = options.fineGrained ? Granularity::TILE_1X128
                                               : Granularity::PER_TENSOR;
    const Granularity gb = options.fineGrained
        ? Granularity::BLOCK_128X128 : Granularity::PER_TENSOR;

    QuantizedMatrix aq(a, *options.fmt, ga, tile_k);
    QuantizedMatrix bq(b, *options.fmt, gb, tile_k);

    // Decode the raw (unscaled) operand values once; the inner loops
    // below then only multiply doubles.
    Matrix araw(m, k), braw(k, n);
    for (std::size_t i = 0; i < m; ++i)
        for (std::size_t kk = 0; kk < k; ++kk)
            araw.at(i, kk) = aq.rawValue(i, kk);
    for (std::size_t kk = 0; kk < k; ++kk)
        for (std::size_t j = 0; j < n; ++j)
            braw.at(kk, j) = bq.rawValue(kk, j);

    Matrix c(m, n);
    std::vector<double> products;
    products.reserve(group);

    const std::size_t num_tiles = (k + tile_k - 1) / tile_k;
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            float fp32_accum = 0.0f;
            Fp22Register whole_k; // FP22_NO_PROMOTION only

            for (std::size_t t = 0; t < num_tiles; ++t) {
                const std::size_t k_lo = t * tile_k;
                const std::size_t k_hi = std::min(k, k_lo + tile_k);
                const double combined_scale =
                    aq.scale(i, k_lo) * bq.scale(k_lo, j);

                switch (options.accum) {
                  case AccumMode::FP32: {
                    const double tile_sum = fastmath::pinnedDot(
                        araw.data().data() + i * k + k_lo,
                        braw.data().data() + k_lo * n + j,
                        k_hi - k_lo, n);
                    fp32_accum += (float)(tile_sum * combined_scale);
                    break;
                  }
                  case AccumMode::FP22: {
                    Fp22Register reg;
                    for (std::size_t kk = k_lo; kk < k_hi;) {
                        products.clear();
                        std::size_t lim = std::min(k_hi, kk + group);
                        for (; kk < lim; ++kk)
                            products.push_back(araw.at(i, kk) *
                                               braw.at(kk, j));
                        reg.add(alignedGroupSum(products));
                    }
                    // Promotion: CUDA cores fold in the dequant scales.
                    fp32_accum += (float)(reg.value() * combined_scale);
                    break;
                  }
                  case AccumMode::FP22_NO_PROMOTION: {
                    for (std::size_t kk = k_lo; kk < k_hi;) {
                        products.clear();
                        std::size_t lim = std::min(k_hi, kk + group);
                        for (; kk < lim; ++kk)
                            products.push_back(araw.at(i, kk) *
                                               braw.at(kk, j));
                        whole_k.add(alignedGroupSum(products));
                    }
                    break;
                  }
                }
            }

            if (options.accum == AccumMode::FP22_NO_PROMOTION) {
                // An empty K has no scales: the sum is +0.
                const double s =
                    k == 0 ? 0.0 : aq.scale(i, 0) * bq.scale(0, j);
                c.at(i, j) = whole_k.value() * s;
            } else {
                c.at(i, j) = (double)fp32_accum;
            }
        }
    }
    return c;
}

} // namespace dsv3::numerics
