/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic components of the simulator (token synthesis, ECMP
 * hashing, acceptance sampling) draw from this generator so that every
 * experiment is reproducible from a single seed. The implementation is
 * xoshiro256** seeded via SplitMix64, which is fast, has a 256-bit
 * state, and passes BigCrush.
 */

#pragma once

#include <cstdint>

namespace dsv3 {

/** SplitMix64 step; also usable as a cheap integer hash. */
std::uint64_t splitmix64(std::uint64_t &state);

/** Stateless 64-bit mixing hash (SplitMix64 finalizer). */
std::uint64_t hashU64(std::uint64_t value);

/** Combine two hashes (boost-style). */
std::uint64_t hashCombine(std::uint64_t seed, std::uint64_t value);

/**
 * The standard Gumbel(0,1) sample Rng::gumbel() makes of the uniform
 * draw @p x = nextDouble(): -log(-log(1 - x)). Strictly decreasing in
 * @p x; +inf at x = 0.
 */
double gumbelOfUniform(double x);

/**
 * xoshiro256** PRNG with convenience distributions.
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Uniform 64-bit integer. */
    std::uint64_t
    nextU64()
    {
        const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound) using rejection-free Lemire. */
    std::uint64_t nextBounded(std::uint64_t bound);

    /** Uniform double in [0, 1): a multiple of 2^-53. */
    double nextDouble() { return (nextU64() >> 11) * 0x1.0p-53; }

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Standard normal via Box-Muller (no cached spare, stateless). */
    double normal(double mean = 0.0, double stddev = 1.0);

    /** Standard Gumbel(0,1) sample; used for top-k sampling noise. */
    double gumbel();

    /** Bernoulli trial. */
    bool bernoulli(double p);

    /** Exponential with given rate (lambda). */
    double exponential(double rate);

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s_[4];
};

} // namespace dsv3
