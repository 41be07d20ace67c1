#include "attention/exact.h"

#include <cmath>

#include "tensor/ops.h"

namespace elsa {

void
AttentionInput::validate() const
{
    ELSA_CHECK(query.rows() == key.rows() && key.rows() == value.rows(),
               "Q/K/V row counts differ: " << query.rows() << "/"
                                           << key.rows() << "/"
                                           << value.rows());
    ELSA_CHECK(query.cols() == key.cols() && key.cols() == value.cols(),
               "Q/K/V column counts differ: " << query.cols() << "/"
                                              << key.cols() << "/"
                                              << value.cols());
    ELSA_CHECK(query.rows() > 0 && query.cols() > 0,
               "query/key/value matrices are empty");
}

Matrix
exactAttention(const AttentionInput& input,
               const ExactAttentionOptions& options)
{
    input.validate();
    const std::size_t n = input.n();
    const std::size_t d = input.d();
    Matrix output(n, d);
    std::vector<double> row;
    for (std::size_t i = 0; i < n; ++i) {
        const float* q = input.query.row(i);
        // Causal mode restricts query i to keys 0..i.
        const std::size_t limit = options.causal ? i + 1 : n;
        row.resize(limit);
        scoreRows(q, input.key, 0, limit, row.data());
        for (double& score : row) {
            score *= options.score_scale;
        }
        softmaxInPlace(row);
        float* out = output.row(i);
        for (std::size_t j = 0; j < limit; ++j) {
            const double w = row[j];
            const float* v = input.value.row(j);
            for (std::size_t c = 0; c < d; ++c) {
                out[c] += static_cast<float>(w * v[c]);
            }
        }
    }
    return output;
}

ExactAttentionTrace
exactAttentionTrace(const AttentionInput& input,
                    const ExactAttentionOptions& options)
{
    input.validate();
    const std::size_t n = input.n();
    const std::size_t d = input.d();
    ExactAttentionTrace trace;
    trace.output = Matrix(n, d);
    trace.scores.resize(n);
    trace.raw_scores.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        const float* q = input.query.row(i);
        const std::size_t limit = options.causal ? i + 1 : n;
        auto& raw = trace.raw_scores[i];
        raw.resize(limit);
        scoreRows(q, input.key, 0, limit, raw.data());
        for (double& score : raw) {
            score *= options.score_scale;
        }
        trace.scores[i] = softmax(raw);
        float* out = trace.output.row(i);
        for (std::size_t j = 0; j < limit; ++j) {
            const double w = trace.scores[i][j];
            const float* v = input.value.row(j);
            for (std::size_t c = 0; c < d; ++c) {
                out[c] += static_cast<float>(w * v[c]);
            }
        }
    }
    return trace;
}

std::size_t
exactAttentionMacs(std::size_t n, std::size_t d)
{
    return 2 * n * n * d;
}

} // namespace elsa
