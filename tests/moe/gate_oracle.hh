/**
 * @file
 * Full-evaluation reference gate: scores every expert, then selects by
 * partial sorts. This is the gate's original algorithm, kept verbatim
 * as the oracle TopKGate's filter-and-refine selection must match bit
 * for bit (like numerics::gemmQuantizedRef for the GEMM kernels).
 */

#pragma once

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>
#include <span>
#include <vector>

#include "moe/gate.hh"

namespace dsv3::moe::test {

inline std::vector<std::uint32_t>
oracleTopKIndices(std::span<const double> scores,
                  std::span<const std::uint32_t> candidates,
                  std::size_t k)
{
    std::vector<std::uint32_t> idx(candidates.begin(), candidates.end());
    k = std::min(k, idx.size());
    std::partial_sort(idx.begin(), idx.begin() + (std::ptrdiff_t)k,
                      idx.end(),
                      [&](std::uint32_t a, std::uint32_t b) {
                          if (scores[a] != scores[b])
                              return scores[a] > scores[b];
                          return a < b; // deterministic tie-break
                      });
    idx.resize(k);
    return idx;
}

inline RoutingDecision
routeOracle(const GateConfig &cfg, std::span<const double> logits)
{
    // Logits -> affinity scores.
    std::vector<double> scores(logits.size());
    if (cfg.scoring == GateScoring::SOFTMAX) {
        double mx = *std::max_element(logits.begin(), logits.end());
        double denom = 0.0;
        for (std::size_t i = 0; i < logits.size(); ++i) {
            scores[i] = std::exp(logits[i] - mx);
            denom += scores[i];
        }
        for (auto &s : scores)
            s /= denom;
    } else {
        for (std::size_t i = 0; i < logits.size(); ++i)
            scores[i] = 1.0 / (1.0 + std::exp(-logits[i]));
    }

    // Candidate set: all experts, or only those in the winning groups.
    std::vector<std::uint32_t> candidates;
    if (cfg.nodeLimited()) {
        const std::size_t per_group = cfg.expertsPerGroup();
        std::vector<double> group_score(cfg.groups, 0.0);
        std::vector<double> member(per_group);
        for (std::size_t g = 0; g < cfg.groups; ++g) {
            for (std::size_t i = 0; i < per_group; ++i)
                member[i] = scores[g * per_group + i];
            std::size_t n = std::min(cfg.groupTopScores, per_group);
            std::partial_sort(member.begin(),
                              member.begin() + (std::ptrdiff_t)n,
                              member.end(), std::greater<>());
            group_score[g] = std::accumulate(
                member.begin(), member.begin() + (std::ptrdiff_t)n, 0.0);
        }
        std::vector<std::uint32_t> group_ids(cfg.groups);
        std::iota(group_ids.begin(), group_ids.end(), 0u);
        auto winners =
            oracleTopKIndices(group_score, group_ids, cfg.topKGroups);
        for (std::uint32_t g : winners)
            for (std::size_t i = 0; i < per_group; ++i)
                candidates.push_back((std::uint32_t)(g * per_group + i));
    } else {
        candidates.resize(cfg.experts);
        std::iota(candidates.begin(), candidates.end(), 0u);
    }

    RoutingDecision out;
    out.experts = oracleTopKIndices(scores, candidates, cfg.topK);

    // Combine weights: selected scores normalized by their sum.
    out.weights.resize(out.experts.size());
    double denom = 0.0;
    for (std::uint32_t e : out.experts)
        denom += scores[e];
    for (std::size_t i = 0; i < out.experts.size(); ++i)
        out.weights[i] = scores[out.experts[i]] / denom;
    return out;
}

} // namespace dsv3::moe::test
