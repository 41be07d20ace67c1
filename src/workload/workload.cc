#include "workload/workload.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "attention/metrics.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/stats.h"
#include "lsh/calibration.h"
#include "obs/profile.h"

namespace elsa {

namespace {

/** FNV-1a hash so each model/dataset pair gets its own streams. */
std::uint64_t
labelHash(const std::string& label)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : label) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

} // namespace

WorkloadRunner::WorkloadRunner(WorkloadSpec spec, std::uint64_t seed)
    : spec_(std::move(spec)),
      seed_(seed ^ labelHash(spec_.label())),
      generator_(spec_.model, seed_ ^ 0xABCDEF)
{
    Rng rng(seed_ ^ 0x5A5A5A5A);
    // The hardware hasher: three-way Kronecker factors, quantized to
    // the S0.5 fixed-point format (Sections III-C and IV-E). d = 64
    // for every evaluated model, so k = d = 64.
    auto hasher = std::make_shared<KroneckerSrpHasher>(
        KroneckerSrpHasher::makeRandom(spec_.model.head_dim, 3, rng,
                                       /*quantize_factors=*/true));
    const double bias = thetaBiasFor(spec_.model.head_dim,
                                     hasher->bits(), rng);
    hasher_ = hasher;
    engine_ = std::make_unique<ApproxSelfAttention>(hasher_, bias);
}

std::vector<SublayerCoord>
WorkloadRunner::representativeSublayers(std::size_t max_count) const
{
    const std::size_t total = spec_.model.numSublayers();
    const std::size_t count = std::min(max_count, total);
    ELSA_CHECK(count > 0, "need at least one sublayer");
    std::vector<SublayerCoord> coords;
    coords.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        // Evenly spaced over the flattened (layer, head) space.
        const std::size_t flat = (i * total) / count;
        coords.push_back({flat / spec_.model.num_heads,
                          flat % spec_.model.num_heads});
    }
    return coords;
}

std::size_t
WorkloadRunner::evalLength(std::uint64_t input_id) const
{
    Rng rng = Rng(seed_ ^ 0x1E46).fork(input_id);
    return sampleSequenceLength(spec_.dataset, rng);
}

std::size_t
WorkloadRunner::trainLength(std::uint64_t input_id) const
{
    Rng rng = Rng(seed_ ^ 0x7124).fork(input_id);
    return sampleSequenceLength(spec_.dataset, rng);
}

const std::vector<double>&
WorkloadRunner::standardPGrid()
{
    static const std::vector<double> grid = {0.5, 1.0, 2.0, 3.0,
                                             4.0, 6.0, 8.0};
    return grid;
}

AttentionInput
WorkloadRunner::trainInput(const SublayerCoord& coord,
                           std::uint64_t input_id) const
{
    // Training inputs use ids offset from evaluation inputs.
    return generator_.generate(coord.layer, coord.head,
                               trainLength(input_id), 1000000 + input_id);
}

AttentionInput
WorkloadRunner::evalInput(const SublayerCoord& coord,
                          std::uint64_t input_id) const
{
    return generator_.generate(coord.layer, coord.head,
                               evalLength(input_id), input_id);
}

std::vector<double>
WorkloadRunner::learnThresholds(const SublayerCoord& coord,
                                const std::vector<double>& ps,
                                std::size_t num_train_inputs) const
{
    ELSA_PROF_SCOPE("workload.learn_thresholds");
    std::vector<ThresholdLearner> learners(ps.begin(), ps.end());
    for (std::uint64_t id = 0; id < num_train_inputs; ++id) {
        const AttentionInput input = trainInput(coord, id);
        ThresholdLearner::observeAll(learners, input.query, input.key);
    }
    std::vector<double> out;
    out.reserve(learners.size());
    for (const ThresholdLearner& learner : learners) {
        out.push_back(learner.threshold());
    }
    return out;
}

std::vector<double>
WorkloadRunner::thresholds(const SublayerCoord& coord,
                           const std::vector<double>& ps,
                           std::size_t num_train_inputs) const
{
    ThresholdCell* cell = nullptr;
    {
        std::lock_guard<std::mutex> lk(memo_->m);
        cell = &memo_->cells[{coord.layer, coord.head, num_train_inputs}];
    }
    std::lock_guard<std::mutex> lk(cell->m);
    std::vector<double> missing;
    const auto add_missing = [&](double p) {
        if (cell->by_p.count(p) == 0
            && std::find(missing.begin(), missing.end(), p)
                   == missing.end()) {
            missing.push_back(p);
        }
    };
    for (const double p : ps) {
        add_missing(p);
    }
    if (!missing.empty()) {
        for (const double p : standardPGrid()) {
            add_missing(p);
        }
        const std::vector<double> learned =
            learnThresholds(coord, missing, num_train_inputs);
        for (std::size_t i = 0; i < missing.size(); ++i) {
            cell->by_p.emplace(missing[i], learned[i]);
        }
    }
    std::vector<double> out;
    out.reserve(ps.size());
    for (const double p : ps) {
        out.push_back(cell->by_p.at(p));
    }
    return out;
}

WorkloadEvaluation
WorkloadRunner::evaluate(double p,
                         const WorkloadEvalOptions& options) const
{
    return evaluateGrid({p}, options).front();
}

std::vector<WorkloadEvaluation>
WorkloadRunner::evaluateGrid(const std::vector<double>& ps,
                             const WorkloadEvalOptions& options) const
{
    if (ps.empty()) {
        return {};
    }
    const auto coords = representativeSublayers(options.max_sublayers);
    const std::size_t num_inputs = options.num_eval_inputs;

    // Compute into one slot per sublayer, then one per (sublayer,
    // input); the serial fold below adds to every statistic in the
    // same order at any thread count (docs/PARALLELISM.md).
    std::vector<std::vector<double>> thresholds_of(coords.size());
    parallelFor(coords.size(), [&](std::size_t c) {
        thresholds_of[c] =
            thresholds(coords[c], ps, options.num_train_inputs);
    });

    /** Fidelity of one evaluation input at one p. */
    struct Point
    {
        double candidate_fraction = 0.0;
        FidelityReport fidelity;
    };
    std::vector<std::vector<Point>> points(coords.size() * num_inputs);
    parallelFor(points.size(), [&](std::size_t slot) {
        const std::size_t c = slot / num_inputs;
        const AttentionInput input = evalInput(coords[c], slot % num_inputs);
        ExactAttentionTrace trace;
        {
            ELSA_PROF_SCOPE("workload.exact_trace");
            trace = exactAttentionTrace(input);
        }
        const KeyPreprocessing prep = engine_->preprocessKeys(input.key);
        const HashMatrix query_hashes =
            hasher_->hashMatrix(input.query);
        std::vector<std::vector<std::uint32_t>> selected;
        points[slot].resize(ps.size());
        for (std::size_t g = 0; g < ps.size(); ++g) {
            ELSA_PROF_SCOPE("workload.select_attend");
            const ApproxAttentionResult result =
                engine_->run(input, prep, query_hashes,
                             thresholds_of[c][g], &selected);
            points[slot][g] = {result.stats.candidateFraction(input.n()),
                               measureFidelity(trace, selected,
                                               result.output)};
        }
    });

    RunningStat tokens_stat;
    for (std::size_t slot = 0; slot < points.size(); ++slot) {
        tokens_stat.add(static_cast<double>(evalLength(slot % num_inputs)));
    }
    std::vector<WorkloadEvaluation> evals(ps.size());
    for (std::size_t g = 0; g < ps.size(); ++g) {
        WorkloadEvaluation& eval = evals[g];
        eval.p = ps[g];
        RunningStat fraction_stat;
        RunningStat recall_stat;
        RunningStat error_stat;
        double worst_recall = 1.0;
        for (std::size_t c = 0; c < coords.size(); ++c) {
            eval.thresholds.push_back(thresholds_of[c][g]);
        }
        for (const std::vector<Point>& point : points) {
            const FidelityReport& fidelity = point[g].fidelity;
            fraction_stat.add(point[g].candidate_fraction);
            recall_stat.add(fidelity.mass_recall);
            error_stat.add(fidelity.output_relative_error);
            worst_recall = std::min(worst_recall, fidelity.mass_recall);
        }
        eval.mean_candidate_fraction = fraction_stat.mean();
        eval.mean_mass_recall = recall_stat.mean();
        eval.worst_mass_recall = worst_recall;
        eval.mean_output_error = error_stat.mean();
        eval.mean_real_tokens = tokens_stat.mean();
        eval.estimated_loss_pct =
            estimateAccuracyLossPct(spec_.model, eval.mean_mass_recall);
    }
    return evals;
}

double
WorkloadRunner::choosePForMode(ApproxMode mode,
                               const WorkloadEvalOptions& options) const
{
    if (mode == ApproxMode::kBase) {
        return 0.0;
    }
    const double bound = accuracyLossBound(spec_.model, mode);
    const std::vector<double>& grid = standardPGrid();
    const std::vector<WorkloadEvaluation> evals =
        evaluateGrid(grid, options);
    double best = 0.0;
    for (std::size_t g = 0; g < grid.size(); ++g) {
        if (evals[g].estimated_loss_pct <= bound) {
            best = std::max(best, grid[g]);
        }
    }
    return best;
}

std::vector<SimInvocation>
WorkloadRunner::simInvocations(double p, std::size_t num_inputs,
                               std::size_t max_sublayers,
                               const WorkloadEvalOptions& options) const
{
    const auto coords = representativeSublayers(max_sublayers);
    std::vector<SimInvocation> out;
    out.reserve(coords.size() * num_inputs);
    for (const auto& coord : coords) {
        const double threshold =
            p > 0.0 ? thresholds(coord, {p}, options.num_train_inputs)[0]
                    : -std::numeric_limits<double>::infinity();
        for (std::uint64_t id = 0; id < num_inputs; ++id) {
            SimInvocation inv;
            inv.coord = coord;
            inv.n_real = evalLength(id);
            inv.n_padded = spec_.dataset.padded_length;
            inv.input = evalInput(coord, id);
            inv.threshold = threshold;
            out.push_back(std::move(inv));
        }
    }
    return out;
}

} // namespace elsa
