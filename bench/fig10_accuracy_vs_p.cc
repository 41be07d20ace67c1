/**
 * @file
 * EXP-F10: reproduces Fig. 10 of the paper -- for each model-dataset
 * combination, the portion of selected candidates (bars in the paper)
 * and the end-to-end accuracy-loss estimate (lines) across the degree
 * of approximation p.
 *
 * Paper reference points: sub-1% loss while inspecting < 40% of the
 * entities (p = 1) for most combinations; sub-2% loss at ~26% of the
 * entities on average (p = 2).
 */

#include <cstdio>
#include <memory>

#include "bench_common.h"
#include "common/args.h"
#include "common/csv.h"
#include "common/stats.h"
#include "workload/workload.h"

int
main(int argc, char** argv)
{
    using namespace elsa;
    const ArgParser args(argc, argv, {"csv", "manifest"});
    std::unique_ptr<CsvWriter> csv;
    if (args.has("csv")) {
        csv = std::make_unique<CsvWriter>(args.get("csv"));
        csv->writeHeader({"workload", "p", "candidate_fraction",
                          "estimated_loss_pct"});
    }
    bench::printHeader(
        "Fig. 10: candidate portion and accuracy vs hyperparameter p",
        "Per workload: candidate fraction (bars) and estimated "
        "accuracy loss (lines).");

    WorkloadEvalOptions options;
    options.max_sublayers = 6;
    options.num_eval_inputs = 3;
    options.num_train_inputs = 3;

    const std::vector<double> p_grid = {0.5, 1.0, 2.0, 4.0, 8.0};

    std::printf("\n%-18s", "workload");
    for (const double p : p_grid) {
        std::printf("        p=%-4.1f", p);
    }
    std::printf("\n%-18s", "");
    for (std::size_t i = 0; i < p_grid.size(); ++i) {
        std::printf("   cand%%  loss%%");
    }
    std::printf("\n");

    RunningStat cand_at_p1;
    RunningStat loss_at_p1;
    RunningStat cand_at_p2;
    RunningStat loss_at_p2;
    for (const auto& spec : evaluationWorkloads()) {
        WorkloadRunner runner(spec);
        std::printf("%-18s", spec.label().c_str());
        for (const WorkloadEvaluation& eval :
             runner.evaluateGrid(p_grid, options)) {
            const double p = eval.p;
            std::printf("  %5.1f  %5.2f",
                        100.0 * eval.mean_candidate_fraction,
                        eval.estimated_loss_pct);
            if (csv != nullptr) {
                csv->writeRow({spec.label(), csvNumber(p, 2),
                               csvNumber(eval.mean_candidate_fraction),
                               csvNumber(eval.estimated_loss_pct)});
            }
            if (p == 1.0) {
                cand_at_p1.add(eval.mean_candidate_fraction);
                loss_at_p1.add(eval.estimated_loss_pct);
            }
            if (p == 2.0) {
                cand_at_p2.add(eval.mean_candidate_fraction);
                loss_at_p2.add(eval.estimated_loss_pct);
            }
        }
        std::printf("\n");
        std::fflush(stdout);
    }

    std::printf("\nSummary: p=1 -> %.1f%% candidates, %.2f%% loss "
                "(paper: <40%%, sub-1%% for most)\n",
                100.0 * cand_at_p1.mean(), loss_at_p1.mean());
    std::printf("         p=2 -> %.1f%% candidates, %.2f%% loss "
                "(paper: ~26%% avg, sub-2%%)\n",
                100.0 * cand_at_p2.mean(), loss_at_p2.mean());

    obs::RunManifest manifest = bench::makeBenchManifest(
        "fig10_accuracy_vs_p", bench::standardSystemConfig());
    manifest.set("metrics", "workloads",
                 evaluationWorkloads().size());
    manifest.set("metrics", "candidate_fraction_mean_p1",
                 cand_at_p1.mean());
    manifest.set("metrics", "estimated_loss_pct_mean_p1",
                 loss_at_p1.mean());
    manifest.set("metrics", "candidate_fraction_mean_p2",
                 cand_at_p2.mean());
    manifest.set("metrics", "estimated_loss_pct_mean_p2",
                 loss_at_p2.mean());
    bench::emitBenchSummary(manifest, args);
    return 0;
}
