#include "moe/token_gen.hh"

#include <array>
#include <bit>
#include <cmath>
#include <limits>

namespace dsv3::moe {

namespace {

/** Bins per binade of x: the top 6 mantissa bits. */
constexpr int kBinBits = 6;
/** Biased exponent of the smallest nonzero draw, 2^-53. */
constexpr std::uint64_t kMinExponent = 1023 - 53;
/** Absolute widening of every bracket, far above libm's error on g. */
constexpr double kBracketSlack = 1e-12;

/** Table key of a nonzero draw: exponent and top mantissa bits. */
inline std::uint64_t
binOf(double x)
{
    return (std::bit_cast<std::uint64_t>(x) >> (52 - kBinBits)) -
           (kMinExponent << kBinBits);
}

const GumbelBracket *
bracketTable()
{
    static const auto table = [] {
        std::array<GumbelBracket, kGumbelBins> t{};
        // Bin i covers [edge(i), edge(i + 1)); the last edge is 1.0.
        auto edge = [](std::size_t i) {
            std::uint64_t key = i + (kMinExponent << kBinBits);
            return std::bit_cast<double>(key << (52 - kBinBits));
        };
        for (std::size_t i = 0; i < kGumbelBins; ++i) {
            t[i].lo = gumbelOfUniform(edge(i + 1)) - kBracketSlack;
            t[i].hi = gumbelOfUniform(edge(i)) + kBracketSlack;
        }
        return t;
    }();
    return table.data();
}

inline GumbelBracket
bracketIn(const GumbelBracket *table, double x)
{
    if (x == 0.0) [[unlikely]] {
        constexpr double inf = std::numeric_limits<double>::infinity();
        return {inf, inf};
    }
    return table[binOf(x)];
}

} // namespace

GumbelBracket
gumbelBracket(double x)
{
    return bracketIn(bracketTable(), x);
}

TokenScoreGenerator::TokenScoreGenerator(std::size_t experts,
                                         double popularity_skew,
                                         std::uint64_t seed)
    : base_(experts, 0.0), rng_(seed)
{
    for (auto &b : base_)
        b = rng_.normal(0.0, popularity_skew);
}

std::vector<double>
TokenScoreGenerator::next()
{
    std::vector<double> logits(base_.size());
    for (std::size_t i = 0; i < base_.size(); ++i)
        logits[i] = base_[i] + rng_.gumbel();
    return logits;
}

void
TokenScoreGenerator::nextDrawn(double *x, double *lo, double *hi)
{
    const GumbelBracket *table = bracketTable();
    for (std::size_t i = 0; i < base_.size(); ++i) {
        const double u = rng_.nextDouble();
        const GumbelBracket g = bracketIn(table, u);
        x[i] = u;
        // Rounding is monotone, so fl(base + g.lo) <= fl(base + g).
        lo[i] = base_[i] + g.lo;
        hi[i] = base_[i] + g.hi;
    }
}

} // namespace dsv3::moe
