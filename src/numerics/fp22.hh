/**
 * @file
 * Emulation of the Hopper tensor-core FP8 accumulation path.
 *
 * Per the paper (Sec 3.1.1): "After aligning 32 mantissa products by
 * right-shifting based on the maximum exponent, the Tensor Core only
 * maintains their highest 13 fraction bits for addition, and truncates
 * bits exceeding this range. Addition results are accumulated to FP22
 * registers (1 sign bit, 8 exponent bits, and 13 mantissa bits)."
 *
 * This module provides a bit-faithful software model of that path:
 *
 *  1. addGroup() takes up to 32 exact FP8xFP8 products, aligns them to
 *     the group's maximum exponent keeping 13 fraction bits (truncating
 *     the rest toward zero), sums them exactly, and
 *  2. folds the group sum into an FP22 (E8M13) register, truncating the
 *     result to FP22 on every fold.
 *
 * The TwoLevelAccumulator additionally models DeepGEMM's mitigation:
 * after a fixed interval of K (default 128, one quantization tile) the
 * FP22 register is promoted into an FP32 accumulator on the CUDA cores,
 * multiplied by the tile/block dequantization scales.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "numerics/minifloat.hh"

namespace dsv3::numerics {

/** How partial sums are kept while reducing along K. */
enum class AccumMode
{
    FP32,               //!< ideal: full FP32 accumulation (reference)
    FP22,               //!< Hopper path with per-tile FP32 promotion
    FP22_NO_PROMOTION,  //!< Hopper path, never promoted (worst case)
};

const char *accumModeName(AccumMode mode);

/** Fraction bits a tensor-core group keeps after alignment (Hopper). */
inline constexpr int kGroupFractionBits = 13;

/**
 * Bits of a double that survive truncation to FP22 (E8M13) when the
 * value is FP22-normal: sign, exponent, top 13 mantissa bits.
 */
inline constexpr std::uint64_t kFp22KeepMask = ~((1ULL << 39) - 1);

/**
 * Align-and-truncate sum of one tensor-core instruction group.
 *
 * Each product is truncated to 13 fraction bits relative to the group's
 * maximum exponent before the additions happen, mirroring the shared
 * exponent-alignment shifter.
 *
 * @param products exact products (computed in double)
 * @param fraction_bits retained fraction bits (13 on Hopper)
 */
double alignedGroupSum(std::span<const double> products,
                       int fraction_bits = kGroupFractionBits);

/**
 * FP22 register emulation: every value stored in the register is
 * truncated to E8M13.
 */
class Fp22Register
{
  public:
    Fp22Register() = default;
    /** Resume from a saved register value (already FP22). */
    explicit Fp22Register(double value) : value_(value) {}

    /** Add a (group-summed) value; result re-truncated to FP22. */
    void add(double value);

    double value() const { return value_; }
    void reset() { value_ = 0.0; }

  private:
    double value_ = 0.0;
};

/**
 * Full reduction along K with a configurable accumulation strategy.
 * Feed products one at a time in K order; read back result().
 */
class TensorCoreAccumulator
{
  public:
    /**
     * @param mode accumulation strategy
     * @param group_size products per tensor-core instruction (32)
     * @param promotion_interval products per FP32 promotion (128);
     *        ignored unless mode == FP22
     */
    explicit TensorCoreAccumulator(AccumMode mode,
                                   std::size_t group_size = 32,
                                   std::size_t promotion_interval = 128);

    /** Feed one exact product (optionally pre-scaled by dequant). */
    void addProduct(double product);

    /** Flush pending groups/promotions and return the reduction. */
    double result();

    /** Clear all state for reuse. */
    void reset();

  private:
    void flushGroup();
    void promote();

    AccumMode mode_;
    std::size_t groupSize_;
    std::size_t promotionInterval_;

    double pending_[64];
    std::size_t pendingCount_ = 0;
    std::size_t sincePromotion_ = 0;

    Fp22Register fp22_;
    float fp32Accum_ = 0.0f;
    double idealAccum_ = 0.0;
};

} // namespace dsv3::numerics
