#ifndef ELSA_ATTENTION_METRICS_H_
#define ELSA_ATTENTION_METRICS_H_

/**
 * @file
 * Fidelity metrics of the approximation.
 *
 * The paper evaluates end-to-end model accuracy (F1 / accuracy /
 * NDCG@10) of real pretrained models; this repository instead
 * measures how faithfully the candidate-restricted attention
 * reproduces the exact attention, which is the quantity that drives
 * model accuracy (see DESIGN.md, substitutions):
 *
 *  - attention-mass recall: the fraction of the exact softmax
 *    probability mass that falls on selected candidates, averaged
 *    over queries (1.0 = nothing relevant was filtered out);
 *  - output error: relative Frobenius error between the exact and
 *    approximate output matrices.
 */

#include <cstdint>
#include <vector>

#include "attention/exact.h"
#include "tensor/matrix.h"

namespace elsa {

/** Fidelity measurements of one approximate attention run. */
struct FidelityReport
{
    /** Mean over queries of candidate softmax mass (in [0, 1]). */
    double mass_recall = 1.0;

    /** Minimum over queries of candidate softmax mass. */
    double worst_query_recall = 1.0;

    /** ||O_exact - O_approx||_F / ||O_exact||_F. */
    double output_relative_error = 0.0;
};

/**
 * Mean and worst-case softmax-mass recall of the candidate lists with
 * respect to the exact attention scores.
 */
FidelityReport
measureFidelity(const AttentionInput& input,
                const std::vector<std::vector<std::uint32_t>>& candidates,
                const Matrix& approx_output);

/**
 * measureFidelity() against a precomputed exactAttentionTrace() of
 * the input, for callers that score several candidate sets of one
 * input. Identical results.
 */
FidelityReport
measureFidelity(const ExactAttentionTrace& trace,
                const std::vector<std::vector<std::uint32_t>>& candidates,
                const Matrix& approx_output);

/**
 * Softmax-mass recall only (no output error), useful when only
 * candidate quality matters.
 */
double attentionMassRecall(
    const AttentionInput& input,
    const std::vector<std::vector<std::uint32_t>>& candidates);

} // namespace elsa

#endif // ELSA_ATTENTION_METRICS_H_
