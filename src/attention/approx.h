#ifndef ELSA_ATTENTION_APPROX_H_
#define ELSA_ATTENTION_APPROX_H_

/**
 * @file
 * The ELSA approximate self-attention algorithm (Section III-D).
 *
 * Pipeline per the paper's Fig. 4:
 *   preprocessing: hash every key (fast Kronecker SRP) and compute
 *                  every key's L2 norm;
 *   per query:     (1) hash the query, (2) Hamming distance to every
 *                  key hash, (3)-(5) approximate similarity
 *                  ||K|| cos(max(0, pi/k*ham - bias)) via the cosine
 *                  LUT, (6) compare against t * ||K_max|| to select
 *                  candidates, then run exact attention restricted to
 *                  the candidates.
 */

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "attention/exact.h"
#include "lsh/angle.h"
#include "lsh/bitvector.h"
#include "lsh/srp.h"
#include "tensor/matrix.h"

namespace elsa {

/** Result of the key-side preprocessing phase. */
struct KeyPreprocessing
{
    /** Packed key hashes, one HashMatrix row per key. */
    HashMatrix hashes;
    std::vector<double> norms;
    double max_norm = 0.0;
};

/** Per-run statistics of the approximation. */
struct ApproxAttentionStats
{
    /** Number of candidates each query selected. */
    std::vector<std::size_t> candidates_per_query;

    /** Sum of candidates over all queries. */
    std::size_t totalCandidates() const;

    /** Mean candidates per query divided by n; the Fig. 10 bars. */
    double candidateFraction(std::size_t n) const;

    /** Queries whose threshold filter selected no key (before the
     *  argmax fallback kicked in). */
    std::size_t empty_selections = 0;
};

/** Output of the approximate attention computation. */
struct ApproxAttentionResult
{
    Matrix output;
    ApproxAttentionStats stats;
};

/**
 * ELSA approximate self-attention engine.
 *
 * One engine holds the SRP hasher and the cosine lookup table; the
 * per-(sub-)layer threshold t is supplied per run because different
 * layers learn different thresholds (Section III-E).
 */
class ApproxSelfAttention
{
  public:
    /**
     * @param hasher     SRP hasher shared with the caller; its dim()
     *                   must match the attention d.
     * @param theta_bias Angle-correction bias (Section III-B).
     */
    ApproxSelfAttention(std::shared_ptr<const SrpHasher> hasher,
                        double theta_bias);

    /** Hash width k in bits. */
    std::size_t hashBits() const { return hasher_->bits(); }

    /** The cosine lookup table in use. */
    const CosineLut& cosineLut() const { return cos_lut_; }

    /** The shared SRP hasher. */
    std::shared_ptr<const SrpHasher> hasher() const { return hasher_; }

    /** Preprocessing phase: hash + norm of every key row. */
    KeyPreprocessing preprocessKeys(const Matrix& key) const;

    /**
     * Candidate selection for one query hash: returns the indices of
     * keys whose approximate similarity exceeds
     * threshold * prep.max_norm (Section III-E skip condition).
     */
    std::vector<std::uint32_t>
    selectCandidates(HashView query_hash, const KeyPreprocessing& prep,
                     double threshold) const;

    /**
     * Full approximate attention. When a query selects no candidate,
     * the key with the highest approximate similarity is used so the
     * output row stays well-defined; stats.empty_selections counts
     * how often this fallback fired. `selected`, when non-null,
     * receives the candidate lists as in the overload below.
     */
    ApproxAttentionResult
    run(const AttentionInput& input, double threshold,
        std::vector<std::vector<std::uint32_t>>* selected = nullptr) const;

    /**
     * run() on an input whose p-independent half is already done:
     * `prep` = preprocessKeys(input.key) and `query_hashes` = the
     * hasher's hashMatrix(input.query). Callers sweeping several
     * thresholds over one input hash it once. When `selected` is
     * non-null it receives every query's candidate list as selected,
     * before the argmax fallback (an empty list where the fallback
     * fired) -- the lists candidatesForAll() returns.
     */
    ApproxAttentionResult
    run(const AttentionInput& input, const KeyPreprocessing& prep,
        const HashMatrix& query_hashes, double threshold,
        std::vector<std::vector<std::uint32_t>>* selected = nullptr) const;

    /**
     * Candidate lists for every query of the input (no attention
     * computation); used by the fidelity metrics and the simulator.
     */
    std::vector<std::vector<std::uint32_t>>
    candidatesForAll(const AttentionInput& input, double threshold) const;

    /**
     * Causal (autoregressive) approximate attention: query i only
     * considers keys j <= i, both in candidate selection and in the
     * fallback. Matches exactAttention with options.causal = true
     * when the threshold selects everything.
     */
    ApproxAttentionResult runCausal(const AttentionInput& input,
                                    double threshold) const;

    /**
     * Exact attention restricted to the given per-query candidate
     * lists (softmax over candidates only). Empty candidate lists are
     * not allowed here; use run() for the fallback behaviour.
     */
    static Matrix attentionOverCandidates(
        const AttentionInput& input,
        const std::vector<std::vector<std::uint32_t>>& candidates);

  private:
    std::shared_ptr<const SrpHasher> hasher_;
    CosineLut cos_lut_;
};

} // namespace elsa

#endif // ELSA_ATTENTION_APPROX_H_
