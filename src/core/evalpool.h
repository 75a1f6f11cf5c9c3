#pragma once

/**
 * @file
 * Parallel candidate evaluation substrate: a fixed-size thread pool
 * plus an LRU fitness cache.
 *
 * Generate-and-validate repair is embarrassingly parallel across
 * candidates: each fitness probe clones the faulty design, applies a
 * patch, and elaborates + simulates its own private object graph. The
 * engine exploits that by pre-drawing every stochastic decision for a
 * generation on the main thread (so the RNG stream is independent of
 * scheduling), fanning the resulting child patches out to an EvalPool,
 * and merging results back in deterministic child order. The pool is
 * deliberately work-stealing-free: workers pull job indices from one
 * shared atomic counter, every job writes only its own result slot,
 * and completion order cannot leak into engine state.
 *
 * The FitnessCache sits in front of evaluation. Patches are keyed by
 * Patch::key(), a canonical fingerprint of the edit list, so duplicate
 * children, elite carry-overs, and minimization probes cost a map
 * lookup instead of a simulation. The cache is LRU-bounded and keeps
 * hit/miss/eviction counts that the engine surfaces in RepairResult.
 */

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <list>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/evaloutcome.h"
#include "core/fitness.h"
#include "sim/trace.h"

namespace cirfix::core {

/**
 * Fixed-size pool for batch candidate evaluation.
 *
 * A pool of size N uses the calling thread plus N-1 workers, so
 * EvalPool(1) degenerates to fully serial in-thread execution (no
 * worker threads at all, no synchronization on the job path). run()
 * blocks until every job of the batch has finished; jobs must be
 * independent (they may only write state they own).
 */
class EvalPool
{
  public:
    /** @param num_threads total evaluators; clamped to >= 1. */
    explicit EvalPool(int num_threads);
    ~EvalPool();

    EvalPool(const EvalPool &) = delete;
    EvalPool &operator=(const EvalPool &) = delete;

    int size() const { return threads_; }

    /**
     * Execute every job in @p jobs and wait for completion. The
     * calling thread participates. A job that throws has its exception
     * *and* its message captured (never silently dropped); after the
     * batch drains, the exception of the lowest-indexed failing job is
     * rethrown (deterministically). Jobs that contain their own
     * failures (the engine's evaluation jobs record an EvalOutcome in
     * their result slot) never reach this path.
     */
    void run(const std::vector<std::function<void()>> &jobs);

    /** Total jobs that threw over the pool's lifetime (for end-of-run
     *  failure accounting; contained failures do not count here). */
    long jobFailures() const { return jobFailures_; }
    /** Messages of the failing jobs of the most recent batch, in job
     *  order ("" for jobs that succeeded). */
    const std::vector<std::string> &lastErrorMessages() const
    {
        return errorMessages_;
    }

  private:
    void workerLoop();
    void drainJobs();

    int threads_ = 1;
    std::vector<std::thread> workers_;

    std::mutex mu_;
    std::condition_variable wake_;   //!< workers wait for a batch
    std::condition_variable done_;   //!< caller waits for completion
    const std::vector<std::function<void()>> *jobs_ = nullptr;
    std::vector<std::exception_ptr> errors_;
    std::vector<std::string> errorMessages_;
    long jobFailures_ = 0;
    std::atomic<size_t> next_{0};
    size_t pending_ = 0;       //!< jobs of the current batch not yet done
    int activeDrainers_ = 0;   //!< workers currently inside drainJobs()
    uint64_t batchId_ = 0;
    bool stop_ = false;
};

/** Cache accounting surfaced in RepairResult. */
struct CacheStats
{
    long hits = 0;        //!< evaluations satisfied without simulating
    long misses = 0;      //!< evaluations that had to run for real
    long evictions = 0;   //!< entries dropped by the LRU bound

    bool operator==(const CacheStats &) const;
};

/**
 * LRU map Patch::key() -> evaluation outcome.
 *
 * Not internally synchronized: the engine only touches it from the
 * main thread (lookups before fan-out, insertions during the ordered
 * merge), which also keeps hit/miss/eviction accounting and eviction
 * order bit-identical at any thread count.
 */
class FitnessCache
{
  public:
    struct Entry
    {
        bool valid = false;       //!< structurally valid ("compiled")
        FitnessResult fit;
        sim::Trace trace;
        EvalOutcome outcome = EvalOutcome::Ok;
        std::string error;        //!< diagnostic for non-Ok outcomes
    };

    /** @param capacity max resident entries; 0 disables caching. */
    explicit FitnessCache(size_t capacity) : capacity_(capacity) {}

    // Copying would leave map_ iterators pointing into the source's
    // lru_ list; moving keeps them valid (std::list iterators survive
    // a move), so only moves are allowed.
    FitnessCache(const FitnessCache &) = delete;
    FitnessCache &operator=(const FitnessCache &) = delete;
    FitnessCache(FitnessCache &&) = default;
    FitnessCache &operator=(FitnessCache &&) = default;

    /**
     * Look up @p key, bumping it to most-recently-used. Counts a hit
     * or a miss. The pointer is invalidated by the next insert().
     */
    const Entry *find(const std::string &key);

    /** Record a hit that bypassed find() (in-batch duplicate). */
    void noteDuplicateHit() { ++stats_.hits; }

    /** Insert (or refresh) @p key, evicting LRU entries over capacity. */
    void insert(const std::string &key, Entry entry);

    size_t size() const { return map_.size(); }
    size_t capacity() const { return capacity_; }
    const CacheStats &stats() const { return stats_; }
    /** Overwrite the accounting (snapshot restore). */
    void setStats(const CacheStats &stats) { stats_ = stats; }

    using LruList = std::list<std::pair<std::string, Entry>>;

    /** Resident entries, front = most recently used. Snapshot code
     *  walks this back-to-front and re-insert()s LRU-first so the
     *  restored eviction order matches the original exactly. */
    const LruList &entries() const { return lru_; }

  private:

    size_t capacity_;
    LruList lru_;  //!< front = most recently used
    std::unordered_map<std::string, LruList::iterator> map_;
    CacheStats stats_;
};

} // namespace cirfix::core
