#include "attention/threshold.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "obs/profile.h"
#include "tensor/ops.h"

namespace elsa {

ThresholdLearner::ThresholdLearner(double p) : p_(p)
{
    ELSA_CHECK(p >= 0.0, "approximation hyperparameter p must be >= 0");
}

void
ThresholdLearner::observe(const Matrix& query, const Matrix& key)
{
    ELSA_CHECK(query.cols() == key.cols(),
               "query/key dim mismatch in threshold learning");
    ELSA_CHECK(query.rows() == key.rows(),
               "query/key row mismatch in threshold learning");
    if (p_ == 0.0) {
        return; // Exact mode; no threshold to learn.
    }
    ELSA_PROF_SCOPE("threshold.observe");
    const std::size_t n = key.rows();
    const std::size_t d = key.cols();

    double max_key_norm = 0.0;
    std::vector<double> key_norms(n);
    for (std::size_t j = 0; j < n; ++j) {
        key_norms[j] = l2Norm(key.row(j), d);
        max_key_norm = std::max(max_key_norm, key_norms[j]);
    }
    ELSA_CHECK(max_key_norm > 0.0, "all-zero key matrix");

    const double score_floor = p_ / static_cast<double>(n);
    std::vector<double> raw(n);
    for (std::size_t i = 0; i < n; ++i) {
        const float* q = query.row(i);
        const double q_norm = l2Norm(q, d);
        if (q_norm == 0.0) {
            continue; // Padding row; produces no sample.
        }
        scoreRows(q, key, 0, n, raw.data());
        const std::vector<double> soft = softmax(raw);

        // Step 1: keys whose softmax score exceeds p/n; step 2: among
        // them, the one with the minimum softmax score. When none
        // qualifies (possible for p > 1), take the max-score key
        // (footnote 1 of the paper).
        std::size_t chosen = n;
        double chosen_soft = std::numeric_limits<double>::infinity();
        double best_soft = -1.0;
        std::size_t best_j = 0;
        for (std::size_t j = 0; j < n; ++j) {
            if (soft[j] > best_soft) {
                best_soft = soft[j];
                best_j = j;
            }
            if (soft[j] > score_floor && soft[j] < chosen_soft) {
                chosen_soft = soft[j];
                chosen = j;
            }
        }
        if (chosen == n) {
            chosen = best_j;
        }
        // Normalize the raw score by ||q|| * ||K_max||.
        stat_.add(raw[chosen] / (q_norm * max_key_norm));
    }
}

double
ThresholdLearner::threshold() const
{
    if (p_ == 0.0 || stat_.count() == 0) {
        // Exact fallback (p = 0) or nothing learned yet: a -inf
        // threshold makes the skip condition select every key, which
        // is the paper's "fall back to the exact version".
        return -std::numeric_limits<double>::infinity();
    }
    return stat_.mean();
}

ThresholdTable::ThresholdTable(std::size_t num_layers,
                               std::size_t num_heads, double p)
    : num_layers_(num_layers), num_heads_(num_heads), p_(p)
{
    ELSA_CHECK(num_layers > 0 && num_heads > 0,
               "threshold table needs >= 1 layer and head");
    learners_.assign(num_layers * num_heads, ThresholdLearner(p));
}

ThresholdLearner&
ThresholdTable::learner(std::size_t layer, std::size_t head)
{
    ELSA_CHECK(layer < num_layers_ && head < num_heads_,
               "threshold table index (" << layer << "," << head
                                         << ") out of range");
    return learners_[layer * num_heads_ + head];
}

const ThresholdLearner&
ThresholdTable::learner(std::size_t layer, std::size_t head) const
{
    ELSA_CHECK(layer < num_layers_ && head < num_heads_,
               "threshold table index (" << layer << "," << head
                                         << ") out of range");
    return learners_[layer * num_heads_ + head];
}

double
ThresholdTable::threshold(std::size_t layer, std::size_t head) const
{
    return learner(layer, head).threshold();
}

} // namespace elsa
