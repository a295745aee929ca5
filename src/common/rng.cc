#include "common/rng.hh"

#include <cmath>

#include "common/logging.hh"

namespace dsv3 {

std::uint64_t
splitmix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
hashU64(std::uint64_t value)
{
    std::uint64_t state = value;
    return splitmix64(state);
}

std::uint64_t
hashCombine(std::uint64_t seed, std::uint64_t value)
{
    return seed ^ (hashU64(value) + 0x9e3779b97f4a7c15ULL +
                   (seed << 6) + (seed >> 2));
}

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t state = seed;
    for (auto &word : s_)
        word = splitmix64(state);
}

std::uint64_t
Rng::nextBounded(std::uint64_t bound)
{
    DSV3_ASSERT(bound > 0);
    // Lemire's multiply-shift; the bias for 64-bit ranges used here is
    // negligible (bounds are far below 2^32 in practice).
    __uint128_t product = (__uint128_t)nextU64() * (__uint128_t)bound;
    return (std::uint64_t)(product >> 64);
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * nextDouble();
}

double
Rng::normal(double mean, double stddev)
{
    // Box-Muller; draw u1 from (0,1] to avoid log(0).
    double u1 = 1.0 - nextDouble();
    double u2 = nextDouble();
    double mag = std::sqrt(-2.0 * std::log(u1));
    return mean + stddev * mag * std::cos(2.0 * M_PI * u2);
}

double
gumbelOfUniform(double x)
{
    double u = 1.0 - x;
    return -std::log(-std::log(u));
}

double
Rng::gumbel()
{
    return gumbelOfUniform(nextDouble());
}

bool
Rng::bernoulli(double p)
{
    return nextDouble() < p;
}

double
Rng::exponential(double rate)
{
    DSV3_ASSERT(rate > 0.0);
    return -std::log(1.0 - nextDouble()) / rate;
}

} // namespace dsv3
