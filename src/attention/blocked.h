#ifndef ELSA_ATTENTION_BLOCKED_H_
#define ELSA_ATTENTION_BLOCKED_H_

/**
 * @file
 * Blocked (windowed) self-attention for long sequences.
 *
 * Section V-E of the paper notes ELSA is compatible with the
 * long-sequence NN techniques (Longformer, blockwise attention,
 * BigBird, ...) because they decompose a very large self-attention
 * (sequence length N >> 512) into a sequence of multiple smaller
 * conventional self-attentions -- exactly the operation ELSA
 * accelerates. BlockedSelfAttention implements that decomposition:
 * the sequence is split into windows of at most `window` tokens,
 * each window attends within itself, and every window's attention
 * can run exactly or through an ELSA engine.
 *
 * This also realizes the paper's motivation (Section I): with the
 * self-attention cost reduced, models can afford to apply attention
 * to larger data and capture distant relations that 512-token
 * segments cannot.
 */

#include <cstddef>
#include <vector>

#include "attention/approx.h"
#include "attention/exact.h"
#include "attention/threshold.h"
#include "tensor/matrix.h"

namespace elsa {

/** Configuration of the windowed decomposition. */
struct BlockedAttentionConfig
{
    /** Maximum window length (the n each sub-attention sees). */
    std::size_t window = 512;

    void validate() const;
};

/** Result of a blocked forward pass. */
struct BlockedAttentionResult
{
    /** N x d output. */
    Matrix output;

    /** Number of windows processed. */
    std::size_t num_windows = 0;

    /** Mean candidate fraction over windows (1.0 on the exact path). */
    double mean_candidate_fraction = 1.0;

    /** Exact-equivalent MACs the windows performed (2 sum n_w^2 d). */
    std::size_t window_macs = 0;
};

/** Windowed long-sequence self-attention. */
class BlockedSelfAttention
{
  public:
    explicit BlockedSelfAttention(BlockedAttentionConfig config);

    const BlockedAttentionConfig& config() const { return config_; }

    /** Window row ranges [begin, end) covering N tokens. */
    std::vector<std::pair<std::size_t, std::size_t>>
    windows(std::size_t total_tokens) const;

    /** Exact attention within each window. */
    BlockedAttentionResult forward(const AttentionInput& input) const;

    /**
     * Learn one threshold per window position from a training input
     * (each window is its own "(sub-)layer" with its own score
     * distribution).
     */
    void learnThresholds(const AttentionInput& train, double p,
                         std::vector<ThresholdLearner>& learners) const;

    /**
     * ELSA-approximate attention within each window.
     *
     * @param input      Long-sequence Q/K/V (N x d).
     * @param engine     Shared ELSA engine.
     * @param thresholds One threshold per window (from
     *                   learnThresholds); must cover every window of
     *                   this input.
     */
    BlockedAttentionResult
    forwardApprox(const AttentionInput& input,
                  const ApproxSelfAttention& engine,
                  const std::vector<double>& thresholds) const;

    /** Slice rows [begin, end) of the input. */
    static AttentionInput slice(const AttentionInput& input,
                                std::size_t begin, std::size_t end);

  private:
    BlockedAttentionConfig config_;
};

} // namespace elsa

#endif // ELSA_ATTENTION_BLOCKED_H_
