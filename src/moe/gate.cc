#include "moe/gate.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.hh"
#include "moe/token_gen.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"

namespace dsv3::moe {

namespace {

struct GateStats
{
    obs::Counter &tokensRouted =
        obs::Registry::global().counter("moe.gate.tokens_routed");
    obs::Counter &expertsSelected = obs::Registry::global().counter(
        "moe.gate.experts_selected");
    obs::Counter &exactEvals =
        obs::Registry::global().counter("moe.gate.exact_evals");
    obs::Counter &fallbacks =
        obs::Registry::global().counter("moe.gate.fallbacks");
};

GateStats &
gateStats()
{
    static GateStats *stats = new GateStats();
    return *stats;
}

/**
 * Logit margin of the filter. Two logits this far apart have sigmoids
 * at least 2e-15 apart (relative) on [kUnderflow, kSaturated), over
 * four times the worst rounding of 1 / (1 + exp(-l)) on both sides, so
 * the larger logit's sigmoid is strictly larger.
 */
constexpr double kMargin = 1e-6;
/** From here on up the sigmoid saturates in double; fall back. */
constexpr double kSaturated = 20.0;
/** Below this the sigmoid nears underflow; fall back. */
constexpr double kUnderflow = -700.0;

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

double
sigmoid(double logit)
{
    return 1.0 / (1.0 + std::exp(-logit));
}

/**
 * One thread's working set for routing a token, sized once per expert
 * count so that routing never allocates past the first token.
 */
struct Scratch
{
    std::vector<double> x;      //!< routeNext: the token's draws
    std::vector<double> lo, hi; //!< bounds on each expert's key
    std::vector<double> score;  //!< exact scores, where known
    std::vector<std::uint8_t> known;
    std::vector<double> groupScore;
    std::vector<double> groupLo;        //!< per group: n largest lo
    std::vector<double> top;            //!< running top-n values
    std::vector<std::uint32_t> winners; //!< selected groups
    std::vector<std::uint32_t> picked;  //!< selected experts
    std::vector<std::uint32_t> maybe;   //!< contender superset

    void
    fit(const GateConfig &cfg)
    {
        for (auto *v : {&x, &lo, &hi, &score})
            v->resize(cfg.experts);
        known.resize(cfg.experts);
        const std::size_t n =
            std::min(cfg.groupTopScores, cfg.expertsPerGroup());
        groupScore.resize(cfg.groups);
        groupLo.resize(cfg.groups * n);
        top.resize(std::max(cfg.topK, n));
        winners.resize(cfg.topKGroups);
        picked.resize(cfg.topK);
        maybe.resize(cfg.experts);
    }
};

Scratch &
scratchFor(const GateConfig &cfg)
{
    thread_local Scratch s;
    s.fit(cfg);
    return s;
}

/**
 * Merge @p v into the descending run top[0..n), dropping the last,
 * without data-dependent branches (for short runs over many values).
 */
inline void
mergeTop(double *top, std::size_t n, double v)
{
    for (std::size_t j = 0; j < n; ++j) {
        const double t = top[j];
        top[j] = std::max(t, v);
        v = std::min(t, v);
    }
}

/**
 * Insert @p v into the descending run top[0..n), dropping the last;
 * cheap when few values make the run.
 */
inline void
pushTop(double *top, std::size_t n, double v)
{
    if (!(v > top[n - 1]))
        return;
    std::size_t j = n - 1;
    for (; j > 0 && top[j - 1] < v; --j)
        top[j] = top[j - 1];
    top[j] = v;
}

/** Insert @p i into the best-first run pick[0..count) of capacity k. */
template <class Better>
inline void
pushPick(std::uint32_t *pick, std::size_t &count, std::size_t k,
         std::uint32_t i, Better &&better)
{
    if (count == k) {
        if (!better(i, pick[k - 1]))
            return;
        --count;
    }
    std::size_t j = count++;
    for (; j > 0 && better(i, pick[j - 1]); --j)
        pick[j] = pick[j - 1];
    pick[j] = i;
}

/**
 * The selection core: experts in the order (score desc, index asc),
 * node-limited groups ranked by the sum of their top-n scores (summed
 * in descending order from 0.0, ties to the lower group), exactly as
 * scoring every expert would give -- but reading the exact score of
 * only the experts whose bounds let them matter.
 *
 * lo[i] <= key(i) <= hi[i] bound a key the score increases with: the
 * logit (bounded mode, @p margin kMargin) or the score itself (full
 * mode, margin 0, every score known). refine(i) makes s.score[i] exact
 * and tightens lo[i] = hi[i] to the exact key; it returns false when
 * the key may lie where the margin argument fails.
 *
 * A k-th largest lower bound t proves every expert with hi < t - margin
 * is beaten by k experts, so only the rest are refined. Returns false
 * when the bounds cannot decide: the caller then scores every expert
 * and reruns in full mode.
 */
template <class Refine>
bool
selectExperts(const GateConfig &cfg, Scratch &s, const double *lo,
              const double *hi, double margin, Refine &&refine,
              RoutingDecision &out)
{
    const std::size_t per_group = cfg.expertsPerGroup();
    // With every group admitted the group stage cannot change the
    // candidate set.
    const bool grouped =
        cfg.nodeLimited() && cfg.topKGroups < cfg.groups;
    double *top = s.top.data();
    std::uint32_t *maybe = s.maybe.data();

    const std::size_t n = std::min(cfg.groupTopScores, per_group);
    if (grouped) {
        for (std::size_t g = 0; g < cfg.groups; ++g) {
            const std::uint32_t first = g * (std::uint32_t)per_group;
            const std::uint32_t last = first + (std::uint32_t)per_group;
            double sum = 0.0;
            if (n > 0) {
                // The group's n largest lower bounds, kept for the
                // final stage's k-th largest.
                double *group_lo = &s.groupLo[g * n];
                std::fill(group_lo, group_lo + n, kNegInf);
                std::size_t found = 0;
                for (std::uint32_t i = first; i < last; ++i) {
                    mergeTop(group_lo, n, lo[i]);
                    // The running n-th largest only rises, so this
                    // keeps a superset of the final contenders.
                    maybe[found] = i;
                    found += hi[i] >= group_lo[n - 1] - margin;
                }
                const double cut = group_lo[n - 1] - margin;
                if (!(cut > kUnderflow))
                    return false;
                std::fill(top, top + n, kNegInf);
                for (std::size_t j = 0; j < found; ++j) {
                    const std::uint32_t i = maybe[j];
                    if (hi[i] < cut)
                        continue;
                    if (!refine(i))
                        return false;
                    mergeTop(top, n, s.score[i]);
                }
                for (std::size_t j = 0; j < n; ++j)
                    sum += top[j];
            }
            s.groupScore[g] = sum;
        }
        const double *gs = s.groupScore.data();
        std::size_t count = 0;
        for (std::uint32_t g = 0; g < cfg.groups; ++g)
            pushPick(s.winners.data(), count, cfg.topKGroups, g,
                     [gs](std::uint32_t a, std::uint32_t b) {
                         return gs[a] > gs[b] ||
                                (gs[a] == gs[b] && a < b);
                     });
    }

    // Visit the candidate experts: the winning groups' members, or all
    // experts.
    auto each_candidate = [&](auto &&f) {
        if (!grouped) {
            for (std::uint32_t i = 0; i < cfg.experts; ++i)
                f(i);
            return;
        }
        for (std::uint32_t g : s.winners) {
            const std::uint32_t first = g * (std::uint32_t)per_group;
            for (std::uint32_t i = first; i < first + per_group; ++i)
                f(i);
        }
    };

    // The k-th largest lower bound among the candidates. Every
    // winning group's n largest group-stage bounds belong to distinct
    // candidates and refining only raised them, so the k-th largest of
    // those (-inf when fewer than k) is a floor: the scan then inserts
    // only the few values above it.
    const std::size_t k = cfg.topK;
    std::fill(top, top + k, kNegInf);
    if (grouped) {
        for (std::uint32_t g : s.winners)
            for (std::size_t j = 0; j < n; ++j)
                pushTop(top, k, s.groupLo[g * n + j]);
        std::fill(top, top + k - 1, top[k - 1]);
    }
    std::size_t found = 0;
    each_candidate([&](std::uint32_t i) {
        pushTop(top, k, lo[i]);
        maybe[found] = i;
        found += hi[i] >= top[k - 1] - margin;
    });
    const double cut = top[k - 1] - margin;
    if (!(cut > kUnderflow))
        return false;
    const double *score = s.score.data();
    auto better = [score](std::uint32_t a, std::uint32_t b) {
        return score[a] > score[b] || (score[a] == score[b] && a < b);
    };
    std::size_t count = 0;
    for (std::size_t j = 0; j < found; ++j) {
        const std::uint32_t i = maybe[j];
        if (hi[i] < cut)
            continue;
        if (!refine(i))
            return false;
        pushPick(s.picked.data(), count, k, i, better);
    }
    out.experts.assign(s.picked.begin(), s.picked.end());
    return true;
}

} // namespace

GateTally::~GateTally()
{
    GateStats &stats = gateStats();
    tokens_.flushTo(stats.tokensRouted);
    experts_.flushTo(stats.expertsSelected);
    exactEvals_.flushTo(stats.exactEvals);
    fallbacks_.flushTo(stats.fallbacks);
}

TopKGate::TopKGate(const GateConfig &cfg) : cfg_(cfg)
{
    DSV3_ASSERT(cfg_.experts > 0);
    DSV3_ASSERT(cfg_.topK > 0 && cfg_.topK <= cfg_.experts);
    DSV3_ASSERT(cfg_.groups >= 1);
    DSV3_ASSERT(cfg_.experts % cfg_.groups == 0,
                "experts must divide evenly into groups");
    DSV3_ASSERT(cfg_.topKGroups >= 1 && cfg_.topKGroups <= cfg_.groups);
    if (cfg_.nodeLimited()) {
        DSV3_ASSERT(cfg_.topKGroups * cfg_.expertsPerGroup() >= cfg_.topK,
                    "selected groups must contain >= topK experts");
    }
}

template <class Logit>
RoutingDecision
TopKGate::decide(double *lo, double *hi, Logit &&logit,
                 GateTally *tally) const
{
    Scratch &s = scratchFor(cfg_);
    GateTally local;
    GateTally &t = tally ? *tally : local;
    RoutingDecision out;

    bool decided = false;
    if (cfg_.scoring == GateScoring::SIGMOID) {
        std::fill(s.known.begin(), s.known.end(), 0);
        std::size_t evals = 0;
        auto refine = [&](std::uint32_t i) {
            if (s.known[i])
                return true;
            if (!(hi[i] < kSaturated))
                return false;
            const double l = logit(i);
            lo[i] = hi[i] = l;
            s.score[i] = sigmoid(l);
            s.known[i] = 1;
            ++evals;
            return true;
        };
        decided =
            selectExperts(cfg_, s, lo, hi, kMargin, refine, out);
        t.exactEvals_.inc(evals);
    }
    if (!decided) {
        // Full evaluation: SOFTMAX needs every exp for its
        // denominator; SIGMOID gets here only when a logit that
        // matters lies outside the margin argument's range.
        double *score = s.score.data();
        for (std::size_t i = 0; i < cfg_.experts; ++i)
            score[i] = logit(i);
        if (cfg_.scoring == GateScoring::SOFTMAX) {
            const double mx =
                *std::max_element(score, score + cfg_.experts);
            double denom = 0.0;
            for (std::size_t i = 0; i < cfg_.experts; ++i) {
                score[i] = std::exp(score[i] - mx);
                denom += score[i];
            }
            for (std::size_t i = 0; i < cfg_.experts; ++i)
                score[i] /= denom;
        } else {
            for (std::size_t i = 0; i < cfg_.experts; ++i)
                score[i] = sigmoid(score[i]);
            t.fallbacks_.inc();
        }
        t.exactEvals_.inc(cfg_.experts);
        selectExperts(cfg_, s, score, score, 0.0,
                      [](std::uint32_t) { return true; }, out);
    }

    // Combine weights: selected scores normalized by their sum.
    out.weights.resize(out.experts.size());
    double denom = 0.0;
    for (std::uint32_t e : out.experts)
        denom += s.score[e];
    DSV3_ASSERT(denom > 0.0);
    for (std::size_t i = 0; i < out.experts.size(); ++i)
        out.weights[i] = s.score[out.experts[i]] / denom;

    t.tokens_.inc();
    t.experts_.inc(out.experts.size());
    return out;
}

RoutingDecision
TopKGate::route(std::span<const double> logits) const
{
    DSV3_ASSERT(logits.size() == cfg_.experts);
    DSV3_TRACE_SPAN("moe.gate.route");
    // Exact bounds: lo = hi = the logit, so only the sigmoids that
    // can matter are computed.
    Scratch &s = scratchFor(cfg_);
    std::copy(logits.begin(), logits.end(), s.lo.begin());
    const double *l = logits.data();
    return decide(s.lo.data(), s.lo.data(),
                  [l](std::size_t i) { return l[i]; }, nullptr);
}

RoutingDecision
TopKGate::routeNext(TokenScoreGenerator &gen, GateTally *tally) const
{
    // No per-token span: callers route token streams and span the
    // loop (ep.deepep.route_tokens).
    DSV3_ASSERT(gen.experts() == cfg_.experts);
    Scratch &s = scratchFor(cfg_);
    gen.nextDrawn(s.x.data(), s.lo.data(), s.hi.data());
    const double *x = s.x.data();
    return decide(
        s.lo.data(), s.hi.data(),
        [&gen, x](std::size_t i) { return gen.logitOf(i, x[i]); },
        tally);
}

std::vector<std::uint32_t>
TopKGate::groupsTouched(const RoutingDecision &d) const
{
    const std::size_t per_group = cfg_.expertsPerGroup();
    std::vector<std::uint32_t> groups;
    groups.reserve(d.experts.size());
    for (std::uint32_t e : d.experts)
        groups.push_back((std::uint32_t)(e / per_group));
    std::sort(groups.begin(), groups.end());
    groups.erase(std::unique(groups.begin(), groups.end()),
                 groups.end());
    return groups;
}

} // namespace dsv3::moe
