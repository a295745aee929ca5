#include "moe/gate.hh"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <limits>

#include "common/logging.hh"
#include "moe/token_gen.hh"
#include "numerics/dispatch.hh"
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

/** Source of TopKGate::id_; 0 marks an unfitted Scratch. */
std::atomic<std::uint64_t> nextGateId{1};

double
sigmoid(double logit)
{
    return 1.0 / (1.0 + std::exp(-logit));
}

/**
 * One thread's working set for routing a token, fitted to one gate at
 * a time so that routing never allocates past the gate's first token.
 */
struct Scratch
{
    std::uint64_t gate = 0;     //!< TopKGate::id_ it is fitted to
    std::vector<double> x;      //!< routeNext: the token's draws
    std::vector<double> lo, hi; //!< bounds on each expert's key
    std::vector<double> score;  //!< exact scores, where known
    std::vector<std::uint8_t> known;
    std::vector<double> groupScore;
    std::vector<double> groupLo;        //!< per group: n largest lo
    std::vector<double> top;            //!< running top-n values
    std::vector<std::size_t> groupEnd;  //!< per group: end in cand
    std::vector<std::uint32_t> byRank;  //!< groups, best first
    std::vector<std::uint32_t> picked;  //!< selected experts
    std::vector<std::uint64_t> bits;    //!< one candidate mask
    std::vector<std::uint32_t> cand;    //!< experts listed from masks

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
        groupEnd.resize(cfg.groups);
        byRank.resize(cfg.groups);
        picked.resize(cfg.topK);
        bits.resize(wordsFor(cfg.experts));
        cand.resize(cfg.experts);
    }

    static std::size_t wordsFor(std::size_t n) { return (n + 63) / 64; }
};

Scratch &
scratchFor(const GateConfig &cfg, std::uint64_t gate)
{
    thread_local Scratch s;
    if (s.gate != gate) {
        s.fit(cfg);
        s.gate = gate;
    }
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
 * Append first + i for every set bit i of bits[0..words) to @p out,
 * ascending; returns how many.
 */
inline std::size_t
appendSetBits(const std::uint64_t *bits, std::size_t words,
              std::uint32_t first, std::uint32_t *out)
{
    std::size_t count = 0;
    for (std::size_t w = 0; w < words; ++w)
        for (std::uint64_t b = bits[w]; b; b &= b - 1)
            out[count++] =
                first + (std::uint32_t)(w * 64 + std::countr_zero(b));
    return count;
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
 * mode, margin 0, every score known). refine(idx, count) makes
 * s.score[i] exact and tightens lo[i] = hi[i] to the exact key for
 * the listed experts, in order; it returns false at the first whose
 * key may lie where the margin argument fails.
 *
 * A k-th largest lower bound t proves every expert with hi < t - margin
 * is beaten by k experts, so only the rest are refined. The scans over
 * the bounds are the KernelTable's gate slots (topNPerSegment,
 * maskAtLeast); only the few set bits of their masks take a branch.
 * Returns false when the bounds cannot decide: the caller then scores
 * every expert and reruns in full mode.
 */
template <class Refine>
bool
selectExperts(const GateConfig &cfg, Scratch &s, const double *lo,
              const double *hi, double margin, Refine &&refine,
              RoutingDecision &out)
{
    const numerics::KernelTable &kt = numerics::kernels();
    const std::size_t per_group = cfg.expertsPerGroup();
    // With every group admitted the group stage cannot change the
    // candidate set.
    const bool grouped =
        cfg.nodeLimited() && cfg.topKGroups < cfg.groups;
    double *top = s.top.data();
    std::uint64_t *bits = s.bits.data();
    std::uint32_t *cand = s.cand.data();
    const double *score = s.score.data();

    const std::size_t n = std::min(cfg.groupTopScores, per_group);
    if (grouped) {
        // Pass 1 reads only bounds: every group's n largest lower
        // bounds (kept for the k-th pass), then its contenders
        // {i : hi[i] >= n-th largest lo - margin}, listed group after
        // group. Refining a group moves only its own bounds, so all
        // of them are listed first and refined in one batch.
        double *group_lo = s.groupLo.data();
        std::size_t count = 0;
        if (n > 0) {
            kt.topNPerSegment(lo, cfg.groups, per_group, n, group_lo);
            for (std::size_t g = 0; g < cfg.groups; ++g) {
                const double cut = group_lo[g * n + n - 1] - margin;
                if (!(cut > kUnderflow)) {
                    // Group by group, the earlier groups' contenders
                    // would be refined before this check: count them.
                    refine(cand, count);
                    return false;
                }
                kt.maskAtLeast(hi + g * per_group, per_group, cut, bits);
                count += appendSetBits(bits, Scratch::wordsFor(per_group),
                                       (std::uint32_t)(g * per_group),
                                       cand + count);
                s.groupEnd[g] = count;
            }
            if (!refine(cand, count))
                return false;
        }
        for (std::size_t g = 0, j = 0; g < cfg.groups; ++g) {
            double sum = 0.0;
            if (n > 0) {
                std::fill(top, top + n, kNegInf);
                for (; j < s.groupEnd[g]; ++j)
                    mergeTop(top, n, score[cand[j]]);
                for (std::size_t q = 0; q < n; ++q)
                    sum += top[q];
            }
            s.groupScore[g] = sum;
        }
        // Group g's rank is the number of groups that beat it; the
        // ranks are a permutation, and the first topKGroups win.
        const double *gs = s.groupScore.data();
        for (std::uint32_t g = 0; g < cfg.groups; ++g) {
            std::size_t rank = 0;
            for (std::uint32_t h = 0; h < cfg.groups; ++h)
                rank += (gs[h] > gs[g]) | ((gs[h] == gs[g]) & (h < g));
            s.byRank[rank] = g;
        }
    }

    // The candidates: the winning groups' members in rank order, or
    // every expert as one segment.
    const std::size_t segments = grouped ? cfg.topKGroups : 1;
    const std::size_t seg_len = grouped ? per_group : cfg.experts;
    const std::size_t seg_words = Scratch::wordsFor(seg_len);
    auto seg_first = [&](std::size_t j) {
        return grouped ? s.byRank[j] * (std::uint32_t)per_group
                       : std::uint32_t{0};
    };

    // The k-th largest lower bound among the candidates. Every
    // winning group's n largest group-stage bounds belong to distinct
    // candidates and refining only raised them, so the k-th largest of
    // those (-inf when fewer than k) is a floor: only the few values
    // at or above it, read off a mask, can move the k-th.
    const std::size_t k = cfg.topK;
    if (grouped) {
        std::fill(top, top + k, kNegInf);
        for (std::size_t j = 0; j < segments; ++j)
            for (std::size_t q = 0; q < n; ++q)
                mergeTop(top, k, s.groupLo[s.byRank[j] * n + q]);
        const double floor = top[k - 1];
        std::fill(top, top + k - 1, floor);
        for (std::size_t j = 0; j < segments; ++j) {
            const std::uint32_t first = seg_first(j);
            kt.maskAtLeast(lo + first, seg_len, floor, bits);
            const std::size_t above =
                appendSetBits(bits, seg_words, first, cand);
            for (std::size_t q = 0; q < above; ++q)
                mergeTop(top, k, lo[cand[q]]);
        }
    } else {
        kt.topNPerSegment(lo, 1, cfg.experts, k, top);
    }
    const double cut = top[k - 1] - margin;
    if (!(cut > kUnderflow))
        return false;

    // The final contenders, in candidate order.
    std::size_t count = 0;
    for (std::size_t j = 0; j < segments; ++j) {
        const std::uint32_t first = seg_first(j);
        kt.maskAtLeast(hi + first, seg_len, cut, bits);
        count += appendSetBits(bits, seg_words, first, cand + count);
    }
    if (!refine(cand, count))
        return false;
    auto better = [score](std::uint32_t a, std::uint32_t b) {
        return score[a] > score[b] || (score[a] == score[b] && a < b);
    };
    std::size_t picked = 0;
    for (std::size_t j = 0; j < count; ++j)
        pushPick(s.picked.data(), picked, k, cand[j], better);
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

TopKGate::TopKGate(const GateConfig &cfg)
    : cfg_(cfg), id_(nextGateId.fetch_add(1, std::memory_order_relaxed))
{
    DSV3_ASSERT(cfg_.experts > 0, "GateConfig.experts must be positive");
    DSV3_ASSERT(cfg_.topK > 0 && cfg_.topK <= cfg_.experts,
                "GateConfig.topK must be in 1..experts (topK = ",
                cfg_.topK, ", experts = ", cfg_.experts, ")");
    DSV3_ASSERT(cfg_.groups >= 1, "GateConfig.groups must be at least 1");
    DSV3_ASSERT(cfg_.experts % cfg_.groups == 0,
                "GateConfig.experts must divide evenly into "
                "GateConfig.groups (experts = ",
                cfg_.experts, ", groups = ", cfg_.groups, ")");
    DSV3_ASSERT(cfg_.topKGroups >= 1 && cfg_.topKGroups <= cfg_.groups,
                "GateConfig.topKGroups must be in 1..groups (topKGroups = ",
                cfg_.topKGroups, ", groups = ", cfg_.groups, ")");
    if (cfg_.nodeLimited()) {
        DSV3_ASSERT(cfg_.topKGroups * cfg_.expertsPerGroup() >= cfg_.topK,
                    "GateConfig.topKGroups selected groups must hold at "
                    "least topK experts");
    }
}

template <class Logit>
void
TopKGate::decide(double *lo, double *hi, Logit &&logit, GateTally *tally,
                 RoutingDecision &out) const
{
    Scratch &s = scratchFor(cfg_, id_);
    GateTally local;
    GateTally &t = tally ? *tally : local;

    bool decided = false;
    if (cfg_.scoring == GateScoring::SIGMOID) {
        std::fill(s.known.begin(), s.known.end(), 0);
        std::size_t evals = 0;
        auto refine = [&](const std::uint32_t *idx, std::size_t count) {
            for (std::size_t j = 0; j < count; ++j) {
                const std::uint32_t i = idx[j];
                if (s.known[i])
                    continue;
                if (!(hi[i] < kSaturated))
                    return false;
                const double l = logit(i);
                lo[i] = hi[i] = l;
                s.score[i] = sigmoid(l);
                s.known[i] = 1;
                ++evals;
            }
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
            // exp(inf - inf) would make every score NaN.
            DSV3_ASSERT(std::isfinite(mx),
                        "softmax gate: the largest logit is ", mx);
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
                      [](const std::uint32_t *, std::size_t) {
                          return true;
                      },
                      out);
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
}

RoutingDecision
TopKGate::route(std::span<const double> logits) const
{
    DSV3_ASSERT(logits.size() == cfg_.experts);
    DSV3_TRACE_SPAN("moe.gate.route");
    // Exact bounds: lo = hi = the logit, so only the sigmoids that
    // can matter are computed. NaN has no place in the ranking.
    Scratch &s = scratchFor(cfg_, id_);
    for (std::size_t i = 0; i < cfg_.experts; ++i) {
        DSV3_ASSERT(!std::isnan(logits[i]),
                    "TopKGate::route: the logit of expert ", i,
                    " is NaN");
        s.lo[i] = logits[i];
    }
    const double *l = logits.data();
    RoutingDecision out;
    decide(s.lo.data(), s.lo.data(),
           [l](std::size_t i) { return l[i]; }, nullptr, out);
    return out;
}

void
TopKGate::routeNext(TokenScoreGenerator &gen, RoutingDecision &out,
                    GateTally *tally) const
{
    // No per-token span: callers route token streams and span the
    // loop (ep.deepep.route_tokens).
    DSV3_ASSERT(gen.experts() == cfg_.experts);
    Scratch &s = scratchFor(cfg_, id_);
    gen.nextDrawn(s.x.data(), s.lo.data(), s.hi.data());
    const double *x = s.x.data();
    decide(
        s.lo.data(), s.hi.data(),
        [&gen, x](std::size_t i) { return gen.logitOf(i, x[i]); },
        tally, out);
}

RoutingDecision
TopKGate::routeNext(TokenScoreGenerator &gen, GateTally *tally) const
{
    RoutingDecision out;
    routeNext(gen, out, tally);
    return out;
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
