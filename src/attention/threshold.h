#ifndef ELSA_ATTENTION_THRESHOLD_H_
#define ELSA_ATTENTION_THRESHOLD_H_

/**
 * @file
 * Layer-specific threshold learning (Section III-E, Fig. 6).
 *
 * A single user hyperparameter p expresses the degree of
 * approximation; the learner converts it into a per-(sub-)layer
 * threshold t by inspecting attention invocations on a training set:
 *
 *  1. per query, find the keys whose softmax-normalized score exceeds
 *     p/n (or, when none does, the maximum-score key);
 *  2. among those, take the key with the minimum softmax score and
 *     normalize its *raw* score by ||q|| * ||K_max||;
 *  3. average the resulting value over all queries and invocations.
 *
 * At inference, a key is selected when its approximate similarity
 * exceeds t * ||K_max|| of the current key matrix.
 */

#include <cstddef>
#include <span>

#include "attention/exact.h"
#include "common/stats.h"
#include "tensor/matrix.h"

namespace elsa {

/** Learns the candidate-selection threshold t of one (sub-)layer. */
class ThresholdLearner
{
  public:
    /**
     * @param p Degree-of-approximation hyperparameter; p = 0 disables
     *          approximation (threshold learning still runs but the
     *          resulting threshold selects everything). Larger p means
     *          more aggressive filtering.
     */
    explicit ThresholdLearner(double p);

    /** The hyperparameter p. */
    double p() const { return p_; }

    /**
     * Inspect one self-attention invocation of this (sub-)layer on a
     * training input.
     */
    void observe(const Matrix& query, const Matrix& key);

    /**
     * observe() for several learners at once, typically one per p of
     * a grid: each query's scores and softmax are computed once, and
     * only the chosen-key scan runs per learner. Every learner ends
     * up exactly as if observe() had been called on it alone.
     */
    static void observeAll(std::span<ThresholdLearner> learners,
                           const Matrix& query, const Matrix& key);

    /** Number of (query) samples folded into the threshold so far. */
    std::size_t sampleCount() const { return stat_.count(); }

    /**
     * The learned threshold t (mean over observed samples). Negative
     * infinity when p = 0 or nothing was observed, which makes the
     * skip condition select every key (the paper's exact fallback).
     */
    double threshold() const;

  private:
    double p_;
    RunningStat stat_;
};

/**
 * Learned thresholds for a whole model: one entry per (sub-)layer,
 * indexed as layer * num_heads + head.
 */
class ThresholdTable
{
  public:
    ThresholdTable(std::size_t num_layers, std::size_t num_heads,
                   double p);

    ThresholdLearner& learner(std::size_t layer, std::size_t head);
    const ThresholdLearner& learner(std::size_t layer,
                                    std::size_t head) const;

    double threshold(std::size_t layer, std::size_t head) const;

    std::size_t numLayers() const { return num_layers_; }
    std::size_t numHeads() const { return num_heads_; }
    double p() const { return p_; }

  private:
    std::size_t num_layers_;
    std::size_t num_heads_;
    double p_;
    std::vector<ThresholdLearner> learners_;
};

} // namespace elsa

#endif // ELSA_ATTENTION_THRESHOLD_H_
