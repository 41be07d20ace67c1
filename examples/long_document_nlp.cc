/**
 * @file
 * Long-document NLP scenario (the paper's motivating use case).
 *
 * Models like BERT cap self-attention at 512 tokens because the cost
 * grows quadratically; ELSA's approximation makes longer contexts
 * affordable. This example runs a RACE-style reading-comprehension
 * workload (n = 512) through the full stack: threshold learning on a
 * training input, cycle-level simulation of the accelerator in every
 * operating mode, and a comparison against the V100 GPU and the
 * ideal accelerator.
 */

#include <cstdio>
#include <limits>
#include <memory>

#include "attention/metrics.h"
#include "baselines/gpu_model.h"
#include "baselines/ideal.h"
#include "common/rng.h"
#include "lsh/calibration.h"
#include "lsh/srp.h"
#include "sim/accelerator.h"
#include "workload/generator.h"
#include "workload/workload.h"

int
main()
{
    using namespace elsa;

    const WorkloadSpec spec{bertLarge(), race()};
    std::printf("Long-document NLP: %s, n = %zu tokens, d = %zu\n\n",
                spec.label().c_str(), spec.dataset.padded_length,
                spec.model.head_dim);

    // One mid-stack attention head on a full-length document.
    const std::size_t n = spec.dataset.padded_length;
    QkvGenerator generator(spec.model, /*master_seed=*/21);
    const AttentionInput train = generator.generate(12, 4, n, 100);
    const AttentionInput input = generator.generate(12, 4, n, 0);

    // Build the hardware stack: quantized Kronecker hash matrices,
    // the published theta_bias, the paper's pipeline configuration.
    Rng rng(77);
    auto hasher = std::make_shared<KroneckerSrpHasher>(
        KroneckerSrpHasher::makeRandom(spec.model.head_dim, 3, rng,
                                       /*quantize_factors=*/true));
    // The run's own candidate lists feed the recall column.
    SimConfig config = SimConfig::paperConfig();
    config.collect_query_trace = true;
    Accelerator accelerator(config, hasher, kThetaBias64);

    const GpuModel gpu;
    const IdealAccelerator ideal;
    const double gpu_us =
        gpu.attentionSecondsPerOp(spec.model, n) * 1e6;
    const double ideal_us =
        ideal.secondsPerOp(n, spec.model.head_dim) * 1e6;
    std::printf("V100 GPU (padded)     : %8.2f us/op\n", gpu_us);
    std::printf("ideal accel (528 mul) : %8.2f us/op\n\n", ideal_us);

    // Throughput comparisons use the paper's 12-accelerator array
    // (batch-level parallelism); latency is per accelerator.
    constexpr double kArray = 12.0;
    std::printf("%-8s %10s %12s %12s %14s %10s\n", "p",
                "candidates", "cycles/op", "us/op",
                "tput vs GPU", "recall");
    for (const double p : {0.0, 0.5, 1.0, 2.0, 4.0}) {
        double threshold = -std::numeric_limits<double>::infinity();
        if (p > 0.0) {
            ThresholdLearner learner(p);
            learner.observe(train.query, train.key);
            threshold = learner.threshold();
        }
        const RunResult run = accelerator.run(input, threshold);
        const double us =
            static_cast<double>(run.totalCycles())
            / (config.frequency_ghz * 1e3);
        // Recall of the selection itself: a query that selected
        // nothing scores 0, not its fallback key.
        std::vector<std::vector<std::uint32_t>> candidates =
            run.query_candidates;
        for (const QueryTraceRecord& record : run.query_trace) {
            if (record.used_fallback) {
                candidates[record.query_id].clear();
            }
        }
        const double recall = attentionMassRecall(input, candidates);
        std::printf("%-8.1f %9.1f%% %12zu %12.2f %13.1fx %10.4f\n",
                    p, 100.0 * run.candidateFraction(),
                    run.totalCycles(), us, kArray * gpu_us / us,
                    recall);
    }

    std::printf("\nTwelve exact (p = 0) accelerators already beat "
                "the GPU by ~12x at full n = 512\n(no padding to "
                "skip here); the approximation multiplies that by "
                "another 2-5x by\ntouching only the keys that "
                "matter -- what makes longer-than-512-token "
                "attention\npractical.\n");
    return 0;
}
