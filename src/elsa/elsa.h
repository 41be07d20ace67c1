#ifndef ELSA_ELSA_ELSA_H_
#define ELSA_ELSA_ELSA_H_

/**
 * @file
 * High-level entry point of the ELSA library.
 *
 * Elsa bundles the pieces a user needs to run approximate
 * self-attention on their own Q/K/V matrices:
 *
 *   elsa::Elsa engine(64);                       // d = k = 64
 *   double t = engine.learnThreshold(q, k, 1.0); // p = 1
 *   auto result = engine.approxAttention(q, k, v, t);
 *
 * For reproducing the paper's evaluation (simulator, baselines,
 * energy), see elsa/system.h.
 */

#include <cstdint>
#include <memory>
#include <vector>

#include "attention/approx.h"
#include "attention/exact.h"
#include "attention/threshold.h"
#include "tensor/matrix.h"

namespace elsa {

/** Facade over the approximate self-attention algorithm. */
class Elsa
{
  public:
    /**
     * Build an engine for embedding dimension d (k = d hash bits).
     *
     * @param d    Embedding dimension; must be a perfect cube for the
     *             default three-way Kronecker hasher (64 in all the
     *             paper's models).
     * @param seed Seed of the random orthogonal hash matrices.
     */
    explicit Elsa(std::size_t d, std::uint64_t seed = 0x1234);

    /** Embedding dimension d. */
    std::size_t dim() const { return d_; }

    /** Hash width k. */
    std::size_t hashBits() const;

    /** The angle-correction bias in use. */
    double thetaBias() const { return theta_bias_; }

    /** Exact self-attention O = softmax(Q K^T) V. */
    Matrix attention(const Matrix& query, const Matrix& key,
                     const Matrix& value) const;

    /**
     * Learn the candidate-selection threshold for the given degree of
     * approximation p from one (or more, by calling repeatedly on a
     * ThresholdLearner) training invocation.
     */
    double learnThreshold(const Matrix& query, const Matrix& key,
                          double p) const;

    /**
     * Approximate self-attention with a learned threshold. When
     * `selected` is non-null it receives every query's candidate
     * list before the no-candidate fallback (see
     * ApproxSelfAttention::run), the input of measureFidelity().
     */
    ApproxAttentionResult approxAttention(
        const Matrix& query, const Matrix& key, const Matrix& value,
        double threshold,
        std::vector<std::vector<std::uint32_t>>* selected = nullptr) const;

    /** The underlying engine, for advanced use. */
    const ApproxSelfAttention& engine() const { return *engine_; }

    /** The shared SRP hasher. */
    std::shared_ptr<const SrpHasher> hasher() const { return hasher_; }

  private:
    std::size_t d_;
    double theta_bias_;
    std::shared_ptr<const SrpHasher> hasher_;
    std::unique_ptr<ApproxSelfAttention> engine_;
};

} // namespace elsa

#endif // ELSA_ELSA_ELSA_H_
