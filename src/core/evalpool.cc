#include "core/evalpool.h"

namespace cirfix::core {

EvalPool::EvalPool(int num_threads)
    : threads_(num_threads < 1 ? 1 : num_threads)
{
    workers_.reserve(static_cast<size_t>(threads_ - 1));
    for (int i = 1; i < threads_; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

EvalPool::~EvalPool()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
    }
    wake_.notify_all();
    for (auto &w : workers_)
        w.join();
}

void
EvalPool::drainJobs()
{
    // The batch vector outlives every drainer: run() does not return
    // until pending_ == 0 and no worker is inside this function.
    const std::vector<std::function<void()>> &jobs = *jobs_;
    for (;;) {
        size_t i = next_.fetch_add(1, std::memory_order_relaxed);
        if (i >= jobs.size())
            return;
        std::exception_ptr err;
        std::string msg;
        try {
            jobs[i]();
        } catch (const std::exception &e) {
            err = std::current_exception();
            msg = e.what();
        } catch (...) {
            err = std::current_exception();
            msg = "unknown exception";
        }
        std::lock_guard<std::mutex> lock(mu_);
        if (err) {
            errors_[i] = err;
            errorMessages_[i] = std::move(msg);
            ++jobFailures_;
        }
        if (--pending_ == 0)
            done_.notify_all();
    }
}

void
EvalPool::workerLoop()
{
    uint64_t seen_batch = 0;
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
        wake_.wait(lock, [&] {
            return stop_ || (jobs_ && batchId_ != seen_batch);
        });
        if (stop_)
            return;
        seen_batch = batchId_;
        ++activeDrainers_;
        lock.unlock();
        drainJobs();
        lock.lock();
        if (--activeDrainers_ == 0)
            done_.notify_all();
    }
}

void
EvalPool::run(const std::vector<std::function<void()>> &jobs)
{
    if (jobs.empty())
        return;
    if (threads_ == 1) {
        // Serial fast path: no locking, exceptions propagate directly
        // (the first job to throw is trivially the lowest-indexed).
        errorMessages_.assign(jobs.size(), std::string());
        for (size_t i = 0; i < jobs.size(); ++i) {
            try {
                jobs[i]();
            } catch (const std::exception &e) {
                errorMessages_[i] = e.what();
                ++jobFailures_;
                throw;
            } catch (...) {
                errorMessages_[i] = "unknown exception";
                ++jobFailures_;
                throw;
            }
        }
        return;
    }
    {
        std::lock_guard<std::mutex> lock(mu_);
        jobs_ = &jobs;
        errors_.assign(jobs.size(), nullptr);
        errorMessages_.assign(jobs.size(), std::string());
        next_.store(0, std::memory_order_relaxed);
        pending_ = jobs.size();
        ++batchId_;
    }
    wake_.notify_all();
    drainJobs();
    std::unique_lock<std::mutex> lock(mu_);
    done_.wait(lock,
               [&] { return pending_ == 0 && activeDrainers_ == 0; });
    jobs_ = nullptr;
    for (auto &err : errors_)
        if (err)
            std::rethrow_exception(err);
}

bool CacheStats::operator==(const CacheStats &) const = default;

const FitnessCache::Entry *
FitnessCache::find(const std::string &key)
{
    auto it = map_.find(key);
    if (it == map_.end()) {
        ++stats_.misses;
        return nullptr;
    }
    ++stats_.hits;
    lru_.splice(lru_.begin(), lru_, it->second);
    return &it->second->second;
}

void
FitnessCache::insert(const std::string &key, Entry entry)
{
    if (capacity_ == 0)
        return;
    auto it = map_.find(key);
    if (it != map_.end()) {
        it->second->second = std::move(entry);
        lru_.splice(lru_.begin(), lru_, it->second);
        return;
    }
    lru_.emplace_front(key, std::move(entry));
    map_.emplace(key, lru_.begin());
    while (map_.size() > capacity_) {
        map_.erase(lru_.back().first);
        lru_.pop_back();
        ++stats_.evictions;
    }
}

} // namespace cirfix::core
