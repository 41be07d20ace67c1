#ifndef ELSA_ATTENTION_TOPK_H_
#define ELSA_ATTENTION_TOPK_H_

/**
 * @file
 * Top-k candidate selection -- the alternative Section III-E rejects.
 *
 * Instead of comparing approximate similarities against a threshold,
 * one could sort them and keep the top-scoring k' keys per query.
 * The paper dismisses this because sorting is O(n log n) and hard to
 * implement in hardware at line rate; this module implements it
 * anyway so the repository can quantify the *quality* difference at
 * equal candidate budgets (`elsa_bench --bench
 * ablation_topk_vs_threshold`) and the cost difference,
 * demonstrating that the threshold scheme loses little quality while
 * being a single compare per key.
 */

#include <cstddef>
#include <cstdint>
#include <vector>

#include "attention/approx.h"
#include "attention/exact.h"
#include "lsh/srp.h"
#include "tensor/matrix.h"

namespace elsa {

/** Candidate lists from top-k selection over approximate scores. */
class TopKSelector
{
  public:
    /**
     * @param engine Approximate-attention engine providing the
     *               hashes / cosine LUT (shared with the threshold
     *               scheme so both see identical estimates).
     */
    explicit TopKSelector(const ApproxSelfAttention& engine);

    /**
     * Per-query top-k candidate lists by approximate similarity
     * (ties broken towards lower key ids).
     *
     * @param input Q/K/V matrices.
     * @param k     Candidates kept per query (>= 1; capped at n).
     */
    std::vector<std::vector<std::uint32_t>>
    select(const AttentionInput& input, std::size_t k) const;

    /**
     * Per-query top-k candidate lists using the EXACT scores (an
     * oracle: the best any selection scheme limited to k keys can
     * do). Used as the quality upper bound in the ablation.
     */
    static std::vector<std::vector<std::uint32_t>>
    selectOracle(const AttentionInput& input, std::size_t k);

    /**
     * Comparison operations a hardware sorter would need per query
     * for a full sort: n log2 n (Section III-E's complexity
     * argument); the threshold scheme needs exactly n compares.
     */
    static double sortOpsPerQuery(std::size_t n);

  private:
    const ApproxSelfAttention& engine_;
};

} // namespace elsa

#endif // ELSA_ATTENTION_TOPK_H_
