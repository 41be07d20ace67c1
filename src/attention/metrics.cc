#include "attention/metrics.h"

#include <algorithm>

#include "tensor/ops.h"

namespace elsa {

namespace {

/** Per-query candidate softmax mass given the exact trace. */
std::vector<double>
perQueryMass(const ExactAttentionTrace& trace,
             const std::vector<std::vector<std::uint32_t>>& candidates)
{
    std::vector<double> mass(candidates.size(), 0.0);
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        for (const auto j : candidates[i]) {
            mass[i] += trace.scores[i][j];
        }
    }
    return mass;
}

} // namespace

FidelityReport
measureFidelity(const AttentionInput& input,
                const std::vector<std::vector<std::uint32_t>>& candidates,
                const Matrix& approx_output)
{
    input.validate();
    ELSA_CHECK(candidates.size() == input.n(),
               "candidate list count mismatch in measureFidelity");
    return measureFidelity(exactAttentionTrace(input), candidates,
                           approx_output);
}

FidelityReport
measureFidelity(const ExactAttentionTrace& trace,
                const std::vector<std::vector<std::uint32_t>>& candidates,
                const Matrix& approx_output)
{
    ELSA_CHECK(candidates.size() == trace.scores.size(),
               "candidate list count mismatch in measureFidelity");
    const std::vector<double> mass = perQueryMass(trace, candidates);

    FidelityReport report;
    double sum = 0.0;
    double worst = 1.0;
    for (const double m : mass) {
        sum += m;
        worst = std::min(worst, m);
    }
    report.mass_recall = mass.empty()
                             ? 1.0
                             : sum / static_cast<double>(mass.size());
    report.worst_query_recall = worst;
    const double exact_norm = frobeniusNorm(trace.output);
    report.output_relative_error =
        exact_norm > 0.0
            ? frobeniusDiff(trace.output, approx_output) / exact_norm
            : 0.0;
    return report;
}

double
attentionMassRecall(
    const AttentionInput& input,
    const std::vector<std::vector<std::uint32_t>>& candidates)
{
    input.validate();
    ELSA_CHECK(candidates.size() == input.n(),
               "candidate list count mismatch in attentionMassRecall");
    const ExactAttentionTrace trace = exactAttentionTrace(input);
    const std::vector<double> mass = perQueryMass(trace, candidates);
    double sum = 0.0;
    for (const double m : mass) {
        sum += m;
    }
    return mass.empty() ? 1.0 : sum / static_cast<double>(mass.size());
}

} // namespace elsa
