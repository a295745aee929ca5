/**
 * @file
 * Synthetic token-affinity generation for routing experiments.
 *
 * We do not have production token traces (and the paper publishes
 * none); instead we synthesize gate logits with two controllable
 * properties that determine routing behaviour:
 *
 *  - expert popularity skew: a per-expert base logit drawn once per
 *    stream, with configurable spread. Skew = 0 makes all experts
 *    equally likely (uniform routing); larger skews concentrate load
 *    the way real token distributions do.
 *  - per-token noise: i.i.d. Gumbel noise per (token, expert), so that
 *    top-k selection over (base + noise) behaves like sampling without
 *    replacement from a softmax distribution (the Gumbel-top-k trick).
 *
 * This preserves exactly what the node-limited-routing experiments
 * measure: the distribution of nodes-touched M and per-expert load
 * balance under the actual selection algorithm.
 */

#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.hh"

namespace dsv3::moe {

/** Bounds lo <= gumbelOfUniform(x) <= hi for one draw x. */
struct GumbelBracket
{
    double lo;
    double hi;
};

/**
 * Bracket the Gumbel value of a Rng::nextDouble() draw @p x from a
 * table built once from the exact formula. The table splits each
 * binade [2^-j, 2^-j+1) of x, j = 1..53, into 2^6 equal bins; as
 * gumbelOfUniform decreases in x, a bin [a, b) maps into
 * [g(b), g(a)], widened by 1e-12 so libm rounding cannot escape it.
 * x = 0 (Gumbel +inf) brackets as [+inf, +inf].
 */
GumbelBracket gumbelBracket(double x);

/** Number of table bins gumbelBracket() indexes. */
inline constexpr std::size_t kGumbelBins = 53 * 64;

class TokenScoreGenerator
{
  public:
    /**
     * @param experts routed experts
     * @param popularity_skew stddev of the per-expert base logit
     * @param seed RNG seed (stream is deterministic given the seed)
     */
    TokenScoreGenerator(std::size_t experts, double popularity_skew,
                        std::uint64_t seed = 1);

    std::size_t experts() const { return base_.size(); }

    /** Gate logits for the next token. */
    std::vector<double> next();

    /**
     * The next token, drawn but not yet evaluated: the uniforms next()
     * would draw, in the same order, leaving the stream where next()
     * leaves it. For each expert i this stores the draw @p x[i] and a
     * bracket @p lo[i] <= logitOf(i, x[i]) <= @p hi[i] read from a
     * static table (gumbelBracket), without a single log call. Every
     * array holds experts() entries.
     */
    void nextDrawn(double *x, double *lo, double *hi);

    /** Expert @p i's logit for draw @p x, bit-identical to next(). */
    double logitOf(std::size_t i, double x) const
    {
        return base_[i] + gumbelOfUniform(x);
    }

    const std::vector<double> &baseLogits() const { return base_; }

  private:
    std::vector<double> base_;
    Rng rng_;
};

} // namespace dsv3::moe
