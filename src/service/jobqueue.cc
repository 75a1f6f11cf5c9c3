#include "service/jobqueue.h"

#include <algorithm>
#include <thread>

#include "service/session.h"

namespace cirfix::service {

std::variant<long, Rejection>
JobQueue::submit(JobSpec spec, const std::string &requestId)
{
    const JobParams &p = spec.params;
    const long islands = std::max(1, p.islands);
    // Every island runs a whole population. Dividing the cap keeps
    // the product from overflowing.
    const long evals = static_cast<long>(p.popSize) *
                       static_cast<long>(std::max(1, p.maxGenerations));
    if (evals > limits_.maxEvalBudget / islands)
        return Rejection{
            errc::kBudgetTooLarge,
            "requested evaluation budget (islands " +
                std::to_string(islands) + " x pop " +
                std::to_string(p.popSize) + " x gens " +
                std::to_string(p.maxGenerations) +
                ") exceeds the per-job cap of " +
                std::to_string(limits_.maxEvalBudget)};
    const long threads =
        p.numThreads > 0
            ? p.numThreads
            : std::max(1L, static_cast<long>(
                               std::thread::hardware_concurrency()));
    if (islands * threads > kMaxJobThreads)
        return Rejection{
            errc::kBudgetTooLarge,
            "requested threads (islands " + std::to_string(islands) +
                " x threads " + std::to_string(threads) +
                ") exceed the per-job cap of " +
                std::to_string(kMaxJobThreads)};
    if (p.evalMemoryBudget == 0 || p.evalMemoryBudget > kMaxJobMemoryBudget)
        return Rejection{
            errc::kBudgetTooLarge,
            "requested per-evaluation memory budget of " +
                std::to_string(p.evalMemoryBudget) +
                " bytes is unlimited or exceeds the per-job cap of " +
                std::to_string(kMaxJobMemoryBudget)};
    if (spec.params.maxSeconds > limits_.maxBudgetSeconds)
        return Rejection{
            errc::kBudgetTooLarge,
            "requested wall-clock budget of " +
                std::to_string(spec.params.maxSeconds) +
                "s exceeds the per-job cap of " +
                std::to_string(limits_.maxBudgetSeconds) + "s"};

    std::lock_guard<std::mutex> lock(mu_);

    // Idempotency wins over every other admission check: a retried
    // submit refers to a job that was *already* admitted, so it must
    // succeed even if the queue filled up in between.
    if (!requestId.empty()) {
        auto it = requestIds_.find(requestId);
        if (it != requestIds_.end())
            return it->second;
    }

    if (noWorkers_)
        return Rejection{
            errc::kNoWorkers,
            "fleet has no live workers; submit again once one "
            "connects"};

    int depth = limits_.queueDepth;
    const char *depthCode = errc::kQueueFull;
    if (degraded_) {
        // Shed load while short-handed: accept half the normal depth
        // so the backlog stays drainable by the surviving workers.
        depth = std::max(1, depth / 2);
        depthCode = errc::kDegraded;
    }
    long queued = 0;
    for (auto &[id, job] : jobs_)
        if (job->state == JobState::Queued)
            ++queued;
    if (queued >= depth)
        return Rejection{
            depthCode,
            std::string(degraded_ ? "degraded " : "") + "queue depth " +
                std::to_string(depth) + " reached (" +
                std::to_string(queued) +
                " jobs waiting); retry after one drains"};

    auto job = std::make_shared<Job>();
    job->id = nextId_++;
    job->seq = nextSeq_++;
    job->spec = std::move(spec);
    job->requestId = requestId;
    job->state = JobState::Queued;
    pushStateEventLocked(*job);
    jobs_.emplace(job->id, job);
    if (!requestId.empty())
        requestIds_[requestId] = job->id;
    readyCv_.notify_all();
    eventsCv_.notify_all();
    return job->id;
}

void
JobQueue::setFleetStatus(bool noWorkers, bool degraded)
{
    std::lock_guard<std::mutex> lock(mu_);
    noWorkers_ = noWorkers;
    degraded_ = degraded;
}

void
JobQueue::pushStateEventLocked(Job &job)
{
    Json ev = Json::object();
    ev["type"] = "event";
    ev["event"] = "state";
    ev["id"] = job.id;
    ev["state"] = jobStateName(job.state);
    if (!job.error.empty())
        ev["error"] = job.error;
    job.events.push_back(std::move(ev));
}

void
JobQueue::restore(std::shared_ptr<Job> job)
{
    std::lock_guard<std::mutex> lock(mu_);
    nextId_ = std::max(nextId_, job->id + 1);
    nextSeq_ = std::max(nextSeq_, job->seq + 1);
    if (!job->requestId.empty())
        requestIds_[job->requestId] = job->id;
    job->leaseId = 0;  // leases don't survive a coordinator restart
    if (!isTerminal(job->state))
        job->state = JobState::Queued;  // running jobs resume
    if (job->events.empty()) {
        Json ev = Json::object();
        ev["type"] = "event";
        ev["event"] = "state";
        ev["id"] = job->id;
        ev["state"] = jobStateName(job->state);
        job->events.push_back(std::move(ev));
    }
    jobs_[job->id] = job;
    readyCv_.notify_all();
    eventsCv_.notify_all();
}

void
JobQueue::close()
{
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    readyCv_.notify_all();
    eventsCv_.notify_all();
}

bool
JobQueue::cancel(long id, std::string *why)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = jobs_.find(id);
    if (it == jobs_.end()) {
        if (why)
            *why = "no job with id " + std::to_string(id);
        return false;
    }
    Job &job = *it->second;
    if (isTerminal(job.state)) {
        if (why)
            *why = "job " + std::to_string(id) + " is already " +
                   jobStateName(job.state);
        return false;
    }
    job.cancelRequested.store(true, std::memory_order_relaxed);
    if (job.state == JobState::Queued) {
        // Never reached a worker: goes terminal right here.
        job.state = JobState::Canceled;
        Json ev = Json::object();
        ev["type"] = "event";
        ev["event"] = "state";
        ev["id"] = job.id;
        ev["state"] = jobStateName(job.state);
        job.events.push_back(std::move(ev));
        eventsCv_.notify_all();
    }
    // Running: the worker's next lease renewal relays the flag to its
    // engine, and its done frame publishes the terminal state.
    return true;
}

std::shared_ptr<Job>
JobQueue::find(long id)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = jobs_.find(id);
    return it == jobs_.end() ? nullptr : it->second;
}

std::vector<std::shared_ptr<Job>>
JobQueue::list()
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::shared_ptr<Job>> out;
    out.reserve(jobs_.size());
    for (auto &[id, job] : jobs_)
        out.push_back(job);
    return out;
}

size_t
JobQueue::queuedCount()
{
    std::lock_guard<std::mutex> lock(mu_);
    size_t n = 0;
    for (auto &[id, job] : jobs_)
        if (job->state == JobState::Queued)
            ++n;
    return n;
}

void
JobQueue::publish(Job &job, Json event)
{
    std::lock_guard<std::mutex> lock(mu_);
    job.events.push_back(std::move(event));
    eventsCv_.notify_all();
}

void
JobQueue::setState(Job &job, JobState state, const std::string &error)
{
    std::lock_guard<std::mutex> lock(mu_);
    job.state = state;
    job.error = error;
    Json ev = Json::object();
    ev["type"] = "event";
    ev["event"] = "state";
    ev["id"] = job.id;
    ev["state"] = jobStateName(state);
    if (!error.empty())
        ev["error"] = error;
    job.events.push_back(std::move(ev));
    eventsCv_.notify_all();
}

void
JobQueue::publishGeneration(Job &job, const core::GenerationStats &gs)
{
    std::lock_guard<std::mutex> lock(mu_);
    int islands = job.spec.params.islands;
    if (gs.island >= 0 && gs.island < islands) {
        // One island of a K-island job: the job-level counters add up
        // the islands' for one-line status.
        job.islandProgress.resize(static_cast<size_t>(islands));
        job.islandProgress[static_cast<size_t>(gs.island)] = gs;
        core::SearchCounters sum;
        for (const core::GenerationStats &each : job.islandProgress)
            sum += each;
        static_cast<core::SearchCounters &>(job.progress) = sum;
        job.progress.generation =
            std::max(job.progress.generation, gs.generation);
        job.progress.bestFitness =
            std::max(job.progress.bestFitness, gs.bestFitness);
    } else {
        job.progress = gs;
    }
    Json ev = generationToJson(gs);
    ev["type"] = "event";
    ev["event"] = "generation";
    ev["id"] = job.id;
    job.events.push_back(std::move(ev));
    eventsCv_.notify_all();
}

bool
JobQueue::waitEvent(long id, size_t have, Json *out)
{
    std::unique_lock<std::mutex> lock(mu_);
    while (true) {
        auto it = jobs_.find(id);
        if (it == jobs_.end())
            return false;
        Job &job = *it->second;
        if (job.events.size() > have) {
            *out = job.events[have];
            return true;
        }
        // All delivered: a terminal job publishes nothing further.
        if (isTerminal(job.state) || closed_)
            return false;
        eventsCv_.wait(lock);
    }
}

void
JobQueue::setResult(Job &job, Json result)
{
    std::lock_guard<std::mutex> lock(mu_);
    job.result = std::move(result);
}

bool
JobQueue::resultFor(long id, JobState *state, Json *result,
                    std::string *error, core::GenerationStats *progress)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = jobs_.find(id);
    if (it == jobs_.end())
        return false;
    Job &job = *it->second;
    *state = job.state;
    if (progress)
        *progress = job.progress;
    *result = job.result;
    *error = job.error;
    return true;
}

Json
JobQueue::summaryFor(long id)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = jobs_.find(id);
    return it == jobs_.end() ? Json() : jobSummary(*it->second);
}

std::vector<Json>
JobQueue::summaries()
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Json> out;
    out.reserve(jobs_.size());
    for (auto &[id, job] : jobs_)
        out.push_back(jobSummary(*job));
    return out;
}

// ---------------------------------------------------------------------------
// Lease machinery

std::shared_ptr<Job>
JobQueue::tryClaim(const std::string &worker, double leaseSeconds,
                   uint64_t *leaseIdOut,
                   std::chrono::steady_clock::time_point waitUntil)
{
    std::unique_lock<std::mutex> lock(mu_);
    // Priority-then-FIFO over Queued jobs.
    std::shared_ptr<Job> best;
    auto scan = [&] {
        for (auto &[id, job] : jobs_) {
            if (job->state != JobState::Queued)
                continue;
            if (!best || job->spec.priority > best->spec.priority ||
                (job->spec.priority == best->spec.priority &&
                 job->seq < best->seq))
                best = job;
        }
        return best != nullptr;
    };
    // Every submit, restore and requeue wakes the wait to rescan.
    while (!closed_ && !scan())
        if (readyCv_.wait_until(lock, waitUntil) ==
            std::cv_status::timeout)
            return nullptr;
    if (!best)
        return nullptr;  // closed

    uint64_t lease = nextLease_++;
    best->state = JobState::Running;
    best->leaseId = lease;
    best->leaseDeadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(leaseSeconds));
    best->worker = worker;
    ++best->attempts;
    pushStateEventLocked(*best);
    ++leaseStats_.assignments;
    eventsCv_.notify_all();
    if (leaseIdOut)
        *leaseIdOut = lease;
    return best;
}

bool
JobQueue::renewLease(long id, uint64_t leaseId, double leaseSeconds,
                     bool *cancelOut)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = jobs_.find(id);
    if (it == jobs_.end() || it->second->leaseId != leaseId ||
        it->second->state != JobState::Running) {
        ++leaseStats_.staleRejections;
        return false;
    }
    Job &job = *it->second;
    job.leaseDeadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(leaseSeconds));
    ++leaseStats_.renewals;
    if (cancelOut)
        *cancelOut =
            job.cancelRequested.load(std::memory_order_relaxed);
    return true;
}

std::shared_ptr<Job>
JobQueue::completeLeased(long id, uint64_t leaseId)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = jobs_.find(id);
    if (it == jobs_.end() || it->second->leaseId != leaseId ||
        it->second->state != JobState::Running) {
        ++leaseStats_.staleRejections;
        return nullptr;
    }
    it->second->leaseId = 0;  // lease consumed by the terminal commit
    return it->second;
}

void
JobQueue::requeueLocked(Job &job)
{
    job.leaseId = 0;
    ++leaseStats_.requeues;
    if (job.cancelRequested.load(std::memory_order_relaxed)) {
        // The submitter already gave up on it; don't re-run.
        job.state = JobState::Canceled;
    } else if (job.attempts >= kMaxJobAttempts) {
        // Whatever kills its workers would kill the next one too.
        job.state = JobState::Failed;
        job.error = "gave up after " + std::to_string(job.attempts) +
                    " attempts: each worker disconnected or let its "
                    "lease expire";
    } else {
        job.state = JobState::Queued;
    }
    pushStateEventLocked(job);
}

std::vector<long>
JobQueue::requeueExpired()
{
    std::lock_guard<std::mutex> lock(mu_);
    auto now = std::chrono::steady_clock::now();
    std::vector<long> requeued;
    for (auto &[id, job] : jobs_) {
        if (job->state != JobState::Running || job->leaseId == 0 ||
            job->leaseDeadline > now)
            continue;
        ++leaseStats_.expirations;
        requeueLocked(*job);
        requeued.push_back(id);
    }
    if (!requeued.empty()) {
        readyCv_.notify_all();
        eventsCv_.notify_all();
    }
    return requeued;
}

std::vector<long>
JobQueue::requeueOwnedBy(const std::string &worker)
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<long> requeued;
    for (auto &[id, job] : jobs_) {
        if (job->state != JobState::Running || job->leaseId == 0 ||
            job->worker != worker)
            continue;
        requeueLocked(*job);
        requeued.push_back(id);
    }
    if (!requeued.empty()) {
        readyCv_.notify_all();
        eventsCv_.notify_all();
    }
    return requeued;
}

LeaseStats
JobQueue::leaseStats()
{
    std::lock_guard<std::mutex> lock(mu_);
    return leaseStats_;
}

Json
jobSummary(const Job &job)
{
    Json j = Json::object();
    j["id"] = job.id;
    j["state"] = jobStateName(job.state);
    j["priority"] = job.spec.priority;
    j["dut"] = job.spec.dutModule;
    j["generation"] = job.progress.generation;
    j["best_fitness"] = job.progress.bestFitness;
    countersToJson(job.progress, j);
    if (!job.worker.empty())
        j["worker"] = job.worker;
    if (job.attempts > 0)
        j["attempts"] = job.attempts;
    if (!job.error.empty())
        j["error"] = job.error;
    int islands = job.spec.params.islands;
    if (islands > 1) {
        // One entry per island from its last published generation;
        // their counters add up to the job-level ones above.
        j["island_count"] = islands;
        Json list = Json::array();
        static const core::GenerationStats none;
        for (int k = 0; k < islands; ++k) {
            const core::GenerationStats &p =
                static_cast<size_t>(k) < job.islandProgress.size()
                    ? job.islandProgress[static_cast<size_t>(k)]
                    : none;
            Json s = Json::object();
            s["island"] = k;
            s["generation"] = p.generation;
            s["epoch"] = p.epoch;
            s["best_fitness"] = p.bestFitness;
            countersToJson(p, s);
            list.push(std::move(s));
        }
        j["islands"] = std::move(list);
    }
    return j;
}

} // namespace cirfix::service
