#ifndef ELSA_COMMON_PARALLEL_H_
#define ELSA_COMMON_PARALLEL_H_

/**
 * @file
 * Deterministic parallel execution engine: a work-stealing thread
 * pool with a parallel_for / parallel_map API.
 *
 * Design goals, in order:
 *
 *  1. **Determinism.** parallelFor(n, fn) promises only that fn(i)
 *     runs exactly once for every i in [0, n); callers own all
 *     shared state. The idiom used throughout this repo is
 *     "compute into slot i, reduce serially in index order", which
 *     makes every reported metric bit-identical at any thread count
 *     (see docs/PARALLELISM.md for the contract).
 *
 *  2. **Composability.** parallelFor may be called from inside a
 *     task running on the same pool (e.g. elsa_bench evaluates
 *     workloads on the pool, and each workload's
 *     AcceleratorArray::run fans out again). A nested call pushes
 *     its chunks onto the calling worker's own deque and the worker
 *     keeps executing chunks *of that job* -- its own first, stolen
 *     otherwise -- until the job completes. While joining, a thread
 *     never picks up chunks of unrelated jobs: tasks may block on
 *     shared once-cells (the ElsaSystem fidelity cache), and running
 *     a second task above such a region could re-enter it on the
 *     same stack and deadlock. Nesting therefore cannot deadlock,
 *     even through std::call_once-guarded caches.
 *
 *  3. **Zero surprise at one thread.** A pool of size 1 (or n <= 1)
 *     runs the loop inline on the caller; no worker threads are
 *     created for ThreadPool(1).
 *
 * Scheduling: the index range is split into chunks (several per
 * worker so uneven tasks balance). Each worker owns a mutex-guarded
 * deque; it pops its own chunks from the front and steals from the
 * back of other workers' deques. External (non-pool) callers
 * distribute chunks round-robin and then join the stealing loop
 * themselves, so the calling thread always contributes work.
 *
 * Thread count resolution for the process-wide pool, first hit wins:
 * setGlobalThreads(n) with n > 0, else the ELSA_THREADS environment
 * variable, else std::thread::hardware_concurrency().
 *
 * Exceptions: the first exception thrown by any fn(i) is captured,
 * the remaining chunks of that job are skipped (already-running
 * chunks finish), and the exception is rethrown on the caller.
 */

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

namespace elsa {

/** Work-stealing thread pool; see file comment. */
class ThreadPool
{
  public:
    /**
     * @param num_threads Total worker slots including the calling
     *                    thread; 1 means fully inline execution and
     *                    spawns no threads. 0 resolves like the
     *                    global pool (ELSA_THREADS / hardware).
     */
    explicit ThreadPool(std::size_t num_threads);

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /** Joins all workers (after finishing queued chunks). */
    ~ThreadPool();

    /** Worker slots, including the external caller's. Always >= 1. */
    std::size_t threads() const { return num_slots_; }

    /**
     * Run fn(i) exactly once for every i in [0, n), potentially
     * concurrently, and return when all calls finished. The calling
     * thread participates. Safe to call from inside a task on this
     * pool (nested jobs; see file comment). Rethrows the first
     * exception any fn(i) raised.
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)>& fn);

    /**
     * parallelFor computing a value per index: out[i] = fn(i), with
     * the output vector indexed exactly like the input range so a
     * serial, index-ordered reduction over it is deterministic.
     */
    template <typename T>
    std::vector<T>
    parallelMap(std::size_t n,
                const std::function<T(std::size_t)>& fn)
    {
        std::vector<T> out(n);
        parallelFor(n, [&](std::size_t i) { out[i] = fn(i); });
        return out;
    }

    /**
     * Worker slot index of the calling thread: 0 for external
     * threads (they act as slot 0 while inside parallelFor), the
     * worker's slot otherwise. Stable for the duration of one fn(i)
     * call; use it to index per-worker scratch state sized
     * threads().
     */
    static std::size_t currentSlot();

    /**
     * The process-wide pool, created on first use with
     * configuredThreads() slots. Never destroyed before exit.
     */
    static ThreadPool& global();

    /**
     * Resize the global pool: n = 0 restores the ELSA_THREADS /
     * hardware default, n > 0 forces exactly n slots. Must not be
     * called while any thread is inside a global-pool parallelFor.
     */
    static void setGlobalThreads(std::size_t n);

    /**
     * Slot count the global pool (re)starts with: explicit
     * setGlobalThreads override, else ELSA_THREADS, else
     * std::thread::hardware_concurrency(), clamped to >= 1.
     */
    static std::size_t configuredThreads();

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
    std::size_t num_slots_ = 1;
};

/** parallelFor on the process-wide pool. */
inline void
parallelFor(std::size_t n,
            const std::function<void(std::size_t)>& fn)
{
    ThreadPool::global().parallelFor(n, fn);
}

/** parallelMap on the process-wide pool. */
template <typename T>
std::vector<T>
parallelMap(std::size_t n, const std::function<T(std::size_t)>& fn)
{
    return ThreadPool::global().parallelMap<T>(n, fn);
}

} // namespace elsa

#endif // ELSA_COMMON_PARALLEL_H_
