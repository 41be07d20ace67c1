/**
 * @file
 * Google-benchmark microbenchmarks of the hot software kernels:
 * hashing (dense vs Kronecker), Hamming distance, candidate
 * selection, the score tile vs the dot loop it replaces, exact vs
 * approximate attention, the custom-float quantizers, and the LUT
 * functional units. These quantify the software-side cost the paper discusses
 * in Section IV-A (a GPU/CPU cannot profit from the approximation;
 * the specialized datapath can).
 */

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "attention/approx.h"
#include "attention/exact.h"
#include "attention/threshold.h"
#include "bench_common.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/simd/simd.h"
#include "fixed/custom_float.h"
#include "fixed/units.h"
#include "lsh/calibration.h"
#include "lsh/candidates.h"
#include "lsh/srp.h"
#include "tensor/ops.h"
#include "workload/generator.h"
#include "workload/model.h"

namespace {

using namespace elsa;

AttentionInput
benchInput(std::size_t n)
{
    QkvGenerator gen(bertLarge(), 99);
    return gen.generate(11, 3, n, 0);
}

void
BM_DenseHash(benchmark::State& state)
{
    Rng rng(1);
    const auto hasher = DenseSrpHasher::makeRandom(64, 64, rng);
    const AttentionInput input = benchInput(64);
    for (auto _ : state) {
        for (std::size_t r = 0; r < 64; ++r) {
            benchmark::DoNotOptimize(hasher.hash(input.key.row(r)));
        }
    }
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_DenseHash);

void
BM_KroneckerHash(benchmark::State& state)
{
    Rng rng(1);
    const auto hasher = KroneckerSrpHasher::makeRandom(64, 3, rng);
    const AttentionInput input = benchInput(64);
    for (auto _ : state) {
        for (std::size_t r = 0; r < 64; ++r) {
            benchmark::DoNotOptimize(hasher.hash(input.key.row(r)));
        }
    }
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_KroneckerHash);

void
BM_HammingDistance(benchmark::State& state)
{
    // The hot-path idiom: keys packed in one HashMatrix, distances
    // computed by the dispatched batch kernel.
    Rng rng(2);
    const auto hasher = DenseSrpHasher::makeRandom(64, 64, rng);
    const AttentionInput input = benchInput(128);
    const HashMatrix hashes = hasher.hashMatrix(input.key);
    const HashValue q = hasher.hash(input.query.row(0));
    std::vector<std::uint32_t> distances(hashes.rows());
    for (auto _ : state) {
        hammingDistanceBatch(q, hashes, 0, hashes.rows(),
                             distances.data());
        benchmark::DoNotOptimize(distances.data());
    }
    state.SetItemsProcessed(state.iterations() * hashes.rows());
    state.SetLabel(simd::kernels().name);
}
BENCHMARK(BM_HammingDistance);

void
BM_HammingDistancePairwise(benchmark::State& state)
{
    // The pre-batching idiom (one hammingDistance call per pair),
    // kept as the reference point for the batch kernel's win.
    Rng rng(2);
    const auto hasher = DenseSrpHasher::makeRandom(64, 64, rng);
    const AttentionInput input = benchInput(128);
    const auto hashes = hasher.hashRows(input.key);
    const HashValue q = hasher.hash(input.query.row(0));
    for (auto _ : state) {
        int total = 0;
        for (const auto& h : hashes) {
            total += hammingDistance(q, h);
        }
        benchmark::DoNotOptimize(total);
    }
    state.SetItemsProcessed(state.iterations() * hashes.size());
}
BENCHMARK(BM_HammingDistancePairwise);

void
BM_ScoreTile(benchmark::State& state)
{
    // One query against n keys on the dispatched lane-per-key tile
    // (the scores of threshold learning and exact attention).
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    const AttentionInput input = benchInput(n);
    std::vector<double> scores(n);
    for (auto _ : state) {
        scoreRows(input.query.row(0), input.key, 0, n, scores.data());
        benchmark::DoNotOptimize(scores.data());
    }
    state.SetItemsProcessed(state.iterations() * n);
    state.SetLabel(simd::kernels().name);
}
BENCHMARK(BM_ScoreTile)->Arg(128)->Arg(512);

void
BM_ScoreDotLoop(benchmark::State& state)
{
    // The loop the score tile replaces, one dependent add chain per
    // key; identical results.
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    const AttentionInput input = benchInput(n);
    std::vector<double> scores(n);
    for (auto _ : state) {
        for (std::size_t j = 0; j < n; ++j) {
            scores[j] = dot(input.query.row(0), input.key.row(j),
                            input.d());
        }
        benchmark::DoNotOptimize(scores.data());
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ScoreDotLoop)->Arg(128)->Arg(512);

/** Datapath-like custom-float inputs: exponentiated scores times
 *  values spanning many binades, both signs. */
std::vector<double>
customFloatInputs()
{
    Rng rng(5);
    std::vector<double> values(4096);
    for (double& v : values) {
        v = std::exp(rng.uniform(-20.0, 20.0)) * rng.gaussian();
    }
    return values;
}

void
BM_QuantizeCustomFloat(benchmark::State& state)
{
    // Arg 0: the frexp/ldexp reference; arg 1: the IEEE-bit form.
    const bool fast = state.range(0) == 1;
    const std::vector<double> values = customFloatInputs();
    for (auto _ : state) {
        double sum = 0.0;
        for (const double v : values) {
            sum += fast ? quantizeCustomFloatFast(v)
                        : quantizeToCustomFloat(v);
        }
        benchmark::DoNotOptimize(sum);
    }
    state.SetItemsProcessed(state.iterations() * values.size());
    state.SetLabel(fast ? "ieee_bits" : "reference");
}
BENCHMARK(BM_QuantizeCustomFloat)->Arg(0)->Arg(1);

void
BM_AccumulateCustomFloat(benchmark::State& state)
{
    // The attention datapath's d-wide acc = q(acc + e * v) update on
    // the dispatched vector kernel.
    const std::size_t d = 64;
    const AttentionInput input = benchInput(d);
    std::vector<double> acc(d, 0.0);
    double e = 1.0;
    for (auto _ : state) {
        accumulateCustomFloat(acc.data(), e, input.value.row(0), d);
        e = e > 1e6 ? 1.0 : e * 1.5;
        benchmark::DoNotOptimize(acc.data());
    }
    state.SetItemsProcessed(state.iterations() * d);
    state.SetLabel(simd::kernels().name);
}
BENCHMARK(BM_AccumulateCustomFloat);

void
BM_CandidateSelection(benchmark::State& state)
{
    Rng rng(3);
    auto hasher = std::make_shared<KroneckerSrpHasher>(
        KroneckerSrpHasher::makeRandom(64, 3, rng));
    ApproxSelfAttention engine(hasher, kThetaBias64);
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    const AttentionInput input = benchInput(n);
    const KeyPreprocessing prep = engine.preprocessKeys(input.key);
    const HashValue q = hasher->hash(input.query.row(0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            engine.selectCandidates(q, prep, 0.3));
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_CandidateSelection)->Arg(128)->Arg(512);

void
BM_ExactAttention(benchmark::State& state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    const AttentionInput input = benchInput(n);
    for (auto _ : state) {
        benchmark::DoNotOptimize(exactAttention(input));
    }
    state.SetItemsProcessed(state.iterations() * 2 * n * n * 64);
}
BENCHMARK(BM_ExactAttention)->Arg(128)->Arg(256)->Arg(512);

void
BM_ApproxAttention(benchmark::State& state)
{
    Rng rng(4);
    auto hasher = std::make_shared<KroneckerSrpHasher>(
        KroneckerSrpHasher::makeRandom(64, 3, rng));
    ApproxSelfAttention engine(hasher, kThetaBias64);
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    const AttentionInput input = benchInput(n);
    ThresholdLearner learner(1.0);
    learner.observe(input.query, input.key);
    const double t = learner.threshold();
    for (auto _ : state) {
        benchmark::DoNotOptimize(engine.run(input, t));
    }
    state.SetItemsProcessed(state.iterations() * 2 * n * n * 64);
}
BENCHMARK(BM_ApproxAttention)->Arg(128)->Arg(256)->Arg(512);

void
BM_PoolDispatchOverhead(benchmark::State& state)
{
    // Fixed cost of fanning a trivial loop out over the pool: an
    // upper bound on how fine-grained parallelFor call sites may
    // reasonably be. Arg = pool slots (1 = the inline fast path).
    ThreadPool pool(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        std::size_t checksum = 0;
        pool.parallelFor(64, [&](std::size_t i) {
            benchmark::DoNotOptimize(i);
            if (i == 0) {
                checksum = 1;
            }
        });
        benchmark::DoNotOptimize(checksum);
    }
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_PoolDispatchOverhead)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void
BM_ParallelHammingThroughput(benchmark::State& state)
{
    // The array-simulation shape at microbenchmark scale: chunks of
    // independent Hamming scans fanned over the pool, results
    // written to their chunk index. Compare against the serial
    // BM_HammingDistance per-item time to read off the scaling on
    // the machine at hand. Arg = pool slots.
    Rng rng(2);
    const auto hasher = DenseSrpHasher::makeRandom(64, 64, rng);
    const AttentionInput input = benchInput(256);
    const HashMatrix hashes = hasher.hashMatrix(input.key);
    const HashMatrix queries = hasher.hashMatrix(input.query);
    ThreadPool pool(static_cast<std::size_t>(state.range(0)));
    std::vector<int> totals(queries.rows());
    for (auto _ : state) {
        pool.parallelFor(queries.rows(), [&](std::size_t q) {
            std::uint32_t distances[256];
            hammingDistanceBatch(queries[q], hashes, 0, hashes.rows(),
                                 distances);
            int total = 0;
            for (std::size_t j = 0; j < hashes.rows(); ++j) {
                total += static_cast<int>(distances[j]);
            }
            totals[q] = total;
        });
        benchmark::DoNotOptimize(totals.data());
    }
    state.SetItemsProcessed(state.iterations() * queries.rows()
                            * hashes.rows());
    state.SetLabel(simd::kernels().name);
}
BENCHMARK(BM_ParallelHammingThroughput)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void
BM_ExpUnit(benchmark::State& state)
{
    const ExpUnit unit;
    double x = -10.0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(unit.compute(x));
        x += 0.001;
        if (x > 10.0) {
            x = -10.0;
        }
    }
}
BENCHMARK(BM_ExpUnit);

void
BM_SqrtUnit(benchmark::State& state)
{
    const SqrtUnit unit;
    double x = 0.1;
    for (auto _ : state) {
        benchmark::DoNotOptimize(unit.compute(x));
        x += 0.1;
        if (x > 1000.0) {
            x = 0.1;
        }
    }
}
BENCHMARK(BM_SqrtUnit);

} // namespace

/**
 * BENCHMARK_MAIN() expanded by hand so the binary can also emit the
 * standard BENCH_JSON summary. Google Benchmark owns the flag
 * namespace, so --manifest is stripped before Initialize() sees it.
 * Timings are machine-dependent and deliberately left out of the
 * manifest; the deterministic per-hash operation counts are the
 * comparable metrics.
 */
int
main(int argc, char** argv)
{
    std::string manifest_path;
    std::vector<char*> filtered;
    for (int i = 0; i < argc; ++i) {
        if (std::strcmp(argv[i], "--manifest") == 0
            && i + 1 < argc) {
            manifest_path = argv[++i];
        } else if (std::strncmp(argv[i], "--manifest=", 11) == 0) {
            manifest_path = argv[i] + 11;
        } else {
            filtered.push_back(argv[i]);
        }
    }
    int filtered_argc = static_cast<int>(filtered.size());
    benchmark::Initialize(&filtered_argc, filtered.data());
    if (benchmark::ReportUnrecognizedArguments(filtered_argc,
                                               filtered.data())) {
        return 1;
    }
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();

    elsa::Rng rng(1);
    const auto dense =
        elsa::DenseSrpHasher::makeRandom(64, 64, rng);
    const auto kron =
        elsa::KroneckerSrpHasher::makeRandom(64, 3, rng);
    elsa::obs::RunManifest manifest = elsa::bench::makeBenchManifest(
        "micro_kernels", elsa::bench::standardSystemConfig());
    manifest.set("metrics", "dense_mults_per_hash",
                 dense.multiplicationsPerHash());
    manifest.set("metrics", "kronecker_mults_per_hash",
                 kron.multiplicationsPerHash());
    elsa::bench::emitBenchSummary(manifest);
    if (!manifest_path.empty()) {
        manifest.writeFile(manifest_path, /*pretty=*/false);
    }
    return 0;
}
