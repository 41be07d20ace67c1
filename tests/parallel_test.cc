/**
 * @file
 * Unit tests of the work-stealing thread pool (common/parallel.h):
 * index coverage, map ordering, nesting (including nesting under a
 * std::call_once cell, the combination that deadlocks a naive
 * stealing loop), exception propagation, and the global-pool
 * configuration knobs.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "common/parallel.h"

namespace elsa {
namespace {

TEST(ParallelTest, CoversEveryIndexExactlyOnce)
{
    for (const std::size_t threads : {1u, 2u, 3u, 8u}) {
        ThreadPool pool(threads);
        EXPECT_EQ(pool.threads(), threads);
        for (const std::size_t n : {0u, 1u, 5u, 64u, 1000u}) {
            std::vector<std::atomic<int>> hits(n);
            pool.parallelFor(n, [&](std::size_t i) {
                hits[i].fetch_add(1, std::memory_order_relaxed);
            });
            for (std::size_t i = 0; i < n; ++i) {
                ASSERT_EQ(hits[i].load(), 1)
                    << "threads=" << threads << " n=" << n
                    << " i=" << i;
            }
        }
    }
}

TEST(ParallelTest, MapPlacesResultsAtTheirIndex)
{
    ThreadPool pool(4);
    const std::vector<std::size_t> out =
        pool.parallelMap<std::size_t>(
            257, [](std::size_t i) { return i * i; });
    ASSERT_EQ(out.size(), 257u);
    for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_EQ(out[i], i * i);
    }
}

TEST(ParallelTest, SingleThreadPoolRunsInline)
{
    // ThreadPool(1) must execute on the calling thread (slot 0).
    ThreadPool pool(1);
    bool all_slot_zero = true;
    pool.parallelFor(32, [&](std::size_t) {
        all_slot_zero =
            all_slot_zero && ThreadPool::currentSlot() == 0;
    });
    EXPECT_TRUE(all_slot_zero);
}

TEST(ParallelTest, CurrentSlotIndexesPerWorkerState)
{
    ThreadPool pool(4);
    // Per-slot scratch sized threads() must never be indexed out of
    // bounds, even with nested fan-out.
    std::vector<std::atomic<int>> scratch(pool.threads());
    pool.parallelFor(64, [&](std::size_t) {
        const std::size_t slot = ThreadPool::currentSlot();
        ASSERT_LT(slot, scratch.size());
        scratch[slot].fetch_add(1, std::memory_order_relaxed);
        pool.parallelFor(8, [&](std::size_t) {
            ASSERT_LT(ThreadPool::currentSlot(), scratch.size());
        });
    });
    int total = 0;
    for (const auto& c : scratch) {
        total += c.load();
    }
    EXPECT_EQ(total, 64);
}

TEST(ParallelTest, NestedParallelForCompletes)
{
    ThreadPool pool(4);
    std::atomic<std::size_t> sum{0};
    pool.parallelFor(16, [&](std::size_t outer) {
        pool.parallelFor(100, [&](std::size_t inner) {
            sum.fetch_add(outer * 100 + inner,
                          std::memory_order_relaxed);
        });
    });
    // sum over outer in [0,16) of (outer*100*100 + sum(0..99))
    std::size_t expected = 0;
    for (std::size_t outer = 0; outer < 16; ++outer) {
        expected += outer * 100 * 100 + 99 * 100 / 2;
    }
    EXPECT_EQ(sum.load(), expected);
}

TEST(ParallelTest, NestingUnderCallOnceDoesNotDeadlock)
{
    // Regression test: tasks that fill shared once-cells, where the
    // fill itself fans out on the same pool (the ElsaSystem
    // fidelity-cache shape). A joining thread that steals an
    // unrelated outer task would re-enter the active call_once on
    // its own stack and deadlock; the pool must only run the joined
    // job's chunks while waiting.
    ThreadPool pool(4);
    struct Cell
    {
        std::once_flag once;
        std::size_t value = 0;
    };
    Cell cells[2];
    std::atomic<std::size_t> reads{0};
    pool.parallelFor(16, [&](std::size_t i) {
        Cell& cell = cells[i % 2];
        std::call_once(cell.once, [&] {
            std::atomic<std::size_t> sum{0};
            pool.parallelFor(64, [&](std::size_t j) {
                sum.fetch_add(j, std::memory_order_relaxed);
            });
            cell.value = sum.load();
        });
        EXPECT_EQ(cell.value, 63u * 64u / 2u);
        reads.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(reads.load(), 16u);
}

TEST(ParallelTest, FirstExceptionPropagatesAndPoolSurvives)
{
    ThreadPool pool(4);
    EXPECT_THROW(
        pool.parallelFor(128,
                         [&](std::size_t i) {
                             if (i == 37) {
                                 throw std::runtime_error("i=37");
                             }
                         }),
        std::runtime_error);
    // The pool stays usable after a failed job.
    std::atomic<std::size_t> count{0};
    pool.parallelFor(64, [&](std::size_t) {
        count.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(count.load(), 64u);
}

TEST(ParallelTest, GlobalThreadOverride)
{
    ThreadPool::setGlobalThreads(3);
    EXPECT_EQ(ThreadPool::configuredThreads(), 3u);
    EXPECT_EQ(ThreadPool::global().threads(), 3u);
    std::atomic<std::size_t> count{0};
    parallelFor(50, [&](std::size_t) {
        count.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(count.load(), 50u);

    // Restore the environment/hardware default for other tests.
    ThreadPool::setGlobalThreads(0);
    EXPECT_GE(ThreadPool::configuredThreads(), 1u);
}

} // namespace
} // namespace elsa
