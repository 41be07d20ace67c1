#ifndef ELSA_WORKLOAD_WORKLOAD_H_
#define ELSA_WORKLOAD_WORKLOAD_H_

/**
 * @file
 * WorkloadRunner: end-to-end driver of one model-dataset pair.
 *
 * Mirrors the paper's methodology (Sections III-E and V-B):
 *  - learn per-(sub-)layer thresholds from a training set for a
 *    given approximation hyperparameter p (or a whole grid of p in
 *    one pass);
 *  - evaluate candidate fractions, attention-mass recall, and the
 *    accuracy-loss proxy on an evaluation set;
 *  - pick p per mode (conservative / moderate / aggressive) as the
 *    largest p whose estimated loss stays within the mode's bound.
 *
 * A full BERT-large pass has 24 x 16 = 384 (sub-)layers; evaluating
 * each on every input is unnecessary for the statistics we report, so
 * the runner evaluates an evenly spaced subsample of sublayers
 * (configurable; the profiles vary smoothly across the stack, so the
 * subsample is representative).
 */

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "attention/approx.h"
#include "attention/threshold.h"
#include "workload/accuracy.h"
#include "workload/generator.h"
#include "workload/model.h"

namespace elsa {

/** A (layer, head) coordinate. */
struct SublayerCoord
{
    std::size_t layer = 0;
    std::size_t head = 0;
};

/** Knobs of a workload evaluation run. */
struct WorkloadEvalOptions
{
    /** Training inputs used per sublayer for threshold learning. */
    std::size_t num_train_inputs = 3;

    /** Evaluation inputs per sublayer. */
    std::size_t num_eval_inputs = 3;

    /** Sublayers sampled from the model (evenly spaced). */
    std::size_t max_sublayers = 8;
};

/** Aggregate result of evaluating one workload at one p. */
struct WorkloadEvaluation
{
    double p = 0.0;
    double mean_candidate_fraction = 1.0;
    double mean_mass_recall = 1.0;
    double worst_mass_recall = 1.0;
    double mean_output_error = 0.0;
    double estimated_loss_pct = 0.0;
    /** Mean real-token count of the evaluation inputs. */
    double mean_real_tokens = 0.0;
    /** Learned thresholds of the sampled sublayers. */
    std::vector<double> thresholds;
};

/** One attention invocation plus its learned threshold, for the
 *  simulator and the benchmarks. */
struct SimInvocation
{
    SublayerCoord coord;
    AttentionInput input;
    double threshold = 0.0;
    std::size_t n_real = 0;
    std::size_t n_padded = 0;
};

/** Driver of one model-dataset workload. */
class WorkloadRunner
{
  public:
    /**
     * @param spec Model-dataset pair to run.
     * @param seed Master seed; every stream (inputs, lengths, hash
     *             matrices) derives from it.
     */
    WorkloadRunner(WorkloadSpec spec, std::uint64_t seed = 0x5eed);

    const WorkloadSpec& spec() const { return spec_; }

    /** The shared approximate-attention engine (Kronecker hasher). */
    const ApproxSelfAttention& engine() const { return *engine_; }

    /** Evenly spaced sublayer subsample of size <= max_count. */
    std::vector<SublayerCoord>
    representativeSublayers(std::size_t max_count) const;

    /**
     * Learn thresholds on the training stream and evaluate fidelity
     * on the evaluation stream for a given p: evaluateGrid({p})[0].
     */
    WorkloadEvaluation evaluate(double p,
                                const WorkloadEvalOptions& options = {})
        const;

    /**
     * evaluate() for every p of `ps`, in one pass over the inputs.
     * Only each query's chosen key (threshold learning) and the
     * candidate sets depend on p, so every training and evaluation
     * input is generated once, and each evaluation input's exact
     * trace and LSH hashes are computed once for all of `ps`.
     * Entry i equals evaluate(ps[i], options) bit for bit, at any
     * thread count (the sublayers and inputs fan out over the
     * thread pool; their results are folded serially in order).
     */
    std::vector<WorkloadEvaluation>
    evaluateGrid(const std::vector<double>& ps,
                 const WorkloadEvalOptions& options = {}) const;

    /**
     * The learned thresholds of one sublayer, one per entry of `ps`
     * (negative infinity for p = 0). Memoised per (sublayer,
     * num_train_inputs, p); a miss learns the requested values
     * together with the whole standard grid in one pass over the
     * training inputs, so the grid's per-p callers (evaluate,
     * simInvocations) share it. Thread-safe.
     */
    std::vector<double> thresholds(const SublayerCoord& coord,
                                   const std::vector<double>& ps,
                                   std::size_t num_train_inputs) const;

    /** Training input input_id of a sublayer (deterministic). */
    AttentionInput trainInput(const SublayerCoord& coord,
                              std::uint64_t input_id) const;

    /** Evaluation input input_id of a sublayer (deterministic). */
    AttentionInput evalInput(const SublayerCoord& coord,
                             std::uint64_t input_id) const;

    /**
     * Choose p for an operating mode: the largest value from the
     * standard grid {0.5, 1, 2, 3, 4, 6, 8} whose estimated accuracy
     * loss stays within the mode's bound. Base mode returns 0.
     */
    double choosePForMode(ApproxMode mode,
                          const WorkloadEvalOptions& options = {}) const;

    /**
     * Materialize invocations (inputs + learned thresholds) for the
     * cycle-level simulator.
     *
     * @param p           Approximation hyperparameter (0 = exact).
     * @param num_inputs  Evaluation inputs to draw.
     * @param max_sublayers Sublayer subsample size.
     */
    std::vector<SimInvocation>
    simInvocations(double p, std::size_t num_inputs,
                   std::size_t max_sublayers,
                   const WorkloadEvalOptions& options = {}) const;

    /** Sequence length of evaluation input input_id (deterministic). */
    std::size_t evalLength(std::uint64_t input_id) const;

    /** Sequence length of training input input_id (deterministic). */
    std::size_t trainLength(std::uint64_t input_id) const;

    /** The standard p grid used by choosePForMode and Fig. 10. */
    static const std::vector<double>& standardPGrid();

  private:
    /** Learn one sublayer's thresholds for every p of `ps` in one
     *  pass over the training stream. */
    std::vector<double> learnThresholds(const SublayerCoord& coord,
                                        const std::vector<double>& ps,
                                        std::size_t num_train_inputs)
        const;

    /** One sublayer's memoised thresholds, by p. The mutex is held
     *  while a miss learns, so concurrent callers learn once. */
    struct ThresholdCell
    {
        std::mutex m;
        std::map<double, double> by_p;
    };

    /** Cells keyed by (layer, head, num_train_inputs); map nodes are
     *  address-stable, so the mutex guards only the map structure. */
    struct ThresholdMemo
    {
        std::mutex m;
        std::map<std::array<std::size_t, 3>, ThresholdCell> cells;
    };

    WorkloadSpec spec_;
    std::uint64_t seed_;
    QkvGenerator generator_;
    std::shared_ptr<const SrpHasher> hasher_;
    std::unique_ptr<ApproxSelfAttention> engine_;
    std::unique_ptr<ThresholdMemo> memo_ =
        std::make_unique<ThresholdMemo>();
};

} // namespace elsa

#endif // ELSA_WORKLOAD_WORKLOAD_H_
