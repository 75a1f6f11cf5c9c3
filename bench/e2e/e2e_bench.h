#pragma once

/**
 * @file
 * Shared pieces of the end-to-end benchmark (see README.md): the span
 * recorder behind --trace 1, the record every workload keeps per
 * request, and the two helpers that live in their own files — the
 * candidate-layer replay and the repair-service load generator.
 */

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include <sys/types.h>

#include "core/scenario.h"
#include "service/protocol.h"

namespace cirfix::e2e {

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Named counts attached to a span (evals, hits, ...). */
using Counts = std::vector<std::pair<std::string, double>>;

/** One finished span. Parent 0 means a root span. */
struct Span
{
    std::string name;
    Clock::time_point start, end;
    long id = 0;
    long parent = 0;
    int tid = 0;
    Counts counts;

    double seconds() const { return secondsBetween(start, end); }
};

/**
 * In-memory span store, written once at exit as Chrome trace-event
 * JSON. Thread-safe. When off, add() drops the span, so instrumented
 * code runs the same calls with tracing on and off.
 */
class Tracer
{
  public:
    explicit Tracer(bool on) : on_(on) {}

    /** A fresh span id, for parents recorded after their children. */
    long newId() { return next_.fetch_add(1); }
    /** Record @p s (assigning an id when it has none); returns the id. */
    long add(Span s);
    std::vector<Span> spans() const;
    std::string chromeJson() const;

  private:
    bool on_;
    Clock::time_point origin_ = Clock::now();
    std::atomic<long> next_{1};
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

/** One request of a workload: a repair run, an island run or a job. */
struct Request
{
    long index = 0;       //!< position in the run's request order
    int round = 0;
    std::string defect;
    uint64_t seed = 0;    //!< GA seed of the request's round
    bool failed = false;  //!< error, rejected submit, dropped link
    std::string error;
    bool found = false;
    bool correct = false; //!< held-out check (repair workload only)
    int generations = 0;
    long evals = 0;       //!< RepairResult::fitnessEvals (summed)
    long sharedHits = 0;  //!< islands: shared fitness-store hits
    /** Deterministic part of the outcome: hash of found flag,
     *  repaired source, generations and (except islands) evals. */
    uint64_t digest = 0;
    std::string repairedSource;
    double seconds = 0;   //!< wall time of the request
    double correctSeconds = 0;  //!< run + checkCorrectness (repair)
    /** Service-only client-side timings. */
    double submitMs = 0, resultMs = 0, queueWaitS = 0, runS = 0,
           engineSeconds = 0;
};

// ------------------------------------------------------------ replay

/**
 * Rebuild the engine's generation-0 neighbourhood of @p sc (popSize
 * candidates: fault localization on the original trace, then
 * templateEdit with probability rtThreshold, else mutate) and run every
 * candidate through the evaluation layers one call at a time, with one
 * span per call under @p parent.
 */
void replayCandidates(const core::Scenario &sc,
                      const core::EngineConfig &cfg, Tracer &tracer,
                      long parent);

// ----------------------------------------------------------- service

/** Knobs of one service load run. */
struct ServiceLoad
{
    std::string cirfixBin;
    std::string workDir;     //!< parent of the mkdtemp state dir
    int workers = 2;
    int clients = 4;
    long count = 0;          //!< jobs in the run
    /** Job @p index of the run. */
    std::function<service::JobSpec(long index)> job;
};

/** What a service load run measured. */
struct ServiceRun
{
    std::vector<double> setupSeconds;  //!< spawn -> first hello, each
    std::vector<Request> warmup;       //!< untimed, not in metrics
    std::vector<Request> requests;     //!< in job-index order
    double wallSeconds = 0;
    double daemonCpuSeconds = 0;       //!< during the measured loop
    double daemonPeakRssMb = 0;
    long snapshotBytes = 0;            //!< size of one job-N.snap
    double snapshotEncodeMs = 0, snapshotDecodeMs = 0,
           snapshotLoadMs = 0;
    /** Untraced re-run of the same jobs (trace mode only). */
    std::vector<Request> rerun;
    double rerunWallSeconds = 0;
};

/**
 * Spawn `cirfix serve`, then drive it with ServiceLoad::clients closed-
 * loop connections (submit -> subscribe -> end_of_stream -> result)
 * through ServiceLoad::count jobs. With
 * @p rerun, replays the same jobs untraced afterwards. The daemon is
 * stopped and reaped, and its state dir deleted, on every exit path.
 */
ServiceRun runServiceLoad(const ServiceLoad &load, Tracer &tracer,
                          bool rerun);

/** Set by SIGINT/SIGTERM; every loop polls it. */
extern std::atomic<bool> g_interrupted;
/** The live daemon (0 when none): the signal handler stops it. */
extern std::atomic<pid_t> g_daemonPid;

} // namespace cirfix::e2e
