/**
 * @file
 * TopK expert gating with DeepSeek-V3's node-limited (group-limited)
 * routing (paper Sec 4.3).
 *
 * The gate receives one affinity score per routed expert. Plain TopK
 * picks the k highest scores anywhere. Node-limited routing first
 * partitions the experts into `groups` equal groups (one group deployed
 * per node), scores each group by the sum of its top-2 expert
 * affinities (the DeepSeek-V3 technical report's group metric), keeps
 * the best `topKGroups` groups, and only then selects the top-k experts
 * inside the surviving groups. This algorithmically bounds the number
 * of nodes M a token's experts can live on, which bounds the
 * deduplicated IB traffic to M*t (Sec 4.3).
 *
 * Selection is filter-and-refine (DESIGN.md, "MoE routing: exact
 * filter-and-refine"): the gate ranks experts on cheap per-expert
 * bounds and computes the exact score -- the Gumbel logs and the
 * sigmoid -- only for experts whose bounds let them change the
 * decision, which is identical, bit for bit, to scoring every expert.
 */

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "obs/batch.hh"

namespace dsv3::moe {

class TokenScoreGenerator;

/** How raw gate logits become affinity scores. */
enum class GateScoring
{
    SOFTMAX, //!< DeepSeek-V2 style
    SIGMOID, //!< DeepSeek-V3 style
};

struct GateConfig
{
    std::size_t experts = 256;    //!< routed experts
    std::size_t topK = 8;         //!< routed experts per token
    GateScoring scoring = GateScoring::SIGMOID;

    // Node-limited routing; groups == 1 disables the group stage.
    std::size_t groups = 1;       //!< expert groups (nodes)
    std::size_t topKGroups = 1;   //!< groups a token may route to
    std::size_t groupTopScores = 2; //!< per-group score = sum of top-n

    bool nodeLimited() const { return groups > 1; }
    std::size_t expertsPerGroup() const { return experts / groups; }
};

/** Routing decision for one token. */
struct RoutingDecision
{
    std::vector<std::uint32_t> experts; //!< selected, descending score
    std::vector<double> weights;        //!< normalized combine weights
};

/**
 * The moe.gate.* counters of a loop of routing calls, batched (the
 * obs/batch.hh idiom): a hot loop passes one tally to every call and
 * it lands one atomic add per counter when destroyed.
 */
class GateTally
{
  public:
    GateTally() = default;
    GateTally(const GateTally &) = delete;
    GateTally &operator=(const GateTally &) = delete;
    ~GateTally();

  private:
    friend class TopKGate;
    obs::CounterBatch tokens_;     //!< moe.gate.tokens_routed
    obs::CounterBatch experts_;    //!< moe.gate.experts_selected
    obs::CounterBatch exactEvals_; //!< moe.gate.exact_evals
    obs::CounterBatch fallbacks_;  //!< moe.gate.fallbacks
};

class TopKGate
{
  public:
    explicit TopKGate(const GateConfig &cfg);

    const GateConfig &config() const { return cfg_; }

    /**
     * Route one token given raw logits (length == cfg.experts).
     * Scores are computed per cfg.scoring; weights are re-normalized
     * over the selected experts (DeepSeek-V3 normalizes sigmoid scores
     * by their sum). Experts rank by (score desc, index asc). A NaN
     * logit is rejected with a message naming its expert.
     */
    RoutingDecision route(std::span<const double> logits) const;

    /**
     * Route @p gen's next token into @p out: exactly route(gen.next()),
     * leaving @p gen in the same state, but evaluating the Gumbel
     * noise only for the experts whose bracket lets them matter.
     * Counts into @p tally when given, else straight into the
     * registry. Reusing @p out across tokens makes routing
     * allocation-free.
     */
    void routeNext(TokenScoreGenerator &gen, RoutingDecision &out,
                   GateTally *tally = nullptr) const;

    /** routeNext() into a fresh decision. */
    RoutingDecision routeNext(TokenScoreGenerator &gen,
                              GateTally *tally = nullptr) const;

    /** Group ids a decision's experts map onto (sorted unique). */
    std::vector<std::uint32_t>
    groupsTouched(const RoutingDecision &d) const;

  private:
    template <class Logit>
    void decide(double *lo, double *hi, Logit &&logit, GateTally *tally,
                RoutingDecision &out) const;

    GateConfig cfg_;
    /** Identifies cfg_ to the per-thread scratch (fitted on change). */
    std::uint64_t id_;
};

} // namespace dsv3::moe
