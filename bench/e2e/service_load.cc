#include <algorithm>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "core/snapshot.h"
#include "e2e_bench.h"
#include "service/client.h"

extern char **environ;

namespace cirfix::e2e {

namespace fs = std::filesystem;

std::atomic<pid_t> g_daemonPid{0};

namespace {

/** utime + stime of @p pid from /proc (0 when unreadable). */
double
processCpuSeconds(pid_t pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
    std::string stat((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    size_t close = stat.rfind(')');
    if (close == std::string::npos)
        return 0;
    std::istringstream rest(stat.substr(close + 2));
    std::string field;
    double ticks = 0;
    for (int i = 3; i <= 15 && rest >> field; ++i)
        if (i >= 14)
            ticks += std::stod(field);
    return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

/**
 * One `cirfix serve` child with its own mkdtemp state dir and socket.
 * The destructor sends SIGTERM, reaps the child (SIGKILL after 10 s)
 * and deletes the directory, so no exit path leaves a daemon behind.
 */
class Daemon
{
  public:
    Daemon(const std::string &bin, const std::string &workDir, int workers)
    {
        fs::create_directories(workDir);
        std::string tmpl = (fs::path(workDir) / "svc-XXXXXX").string();
        if (!mkdtemp(tmpl.data()))
            throw std::runtime_error("mkdtemp failed under " + workDir);
        dir_ = tmpl;
        // sun_path holds 107 bytes; a path relative to the shared cwd
        // stays short however deep the checkout is.
        socket_ = fs::relative(fs::path(dir_) / "s").string();
        if (socket_.size() > 100)
            socket_ = (fs::path(dir_) / "s").string();
        if (socket_.size() > 100)
            throw std::runtime_error("socket path too long: " + socket_);

        std::string stateDir = (fs::path(dir_) / "state").string();
        std::string workerArg = std::to_string(workers);
        std::vector<std::string> args{bin,        "serve",     "--socket",
                                      socket_,    "--state-dir", stateDir,
                                      "--workers", workerArg};
        std::vector<char *> argv;
        for (std::string &a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);
        posix_spawn_file_actions_t fa;
        posix_spawn_file_actions_init(&fa);
        posix_spawn_file_actions_addopen(&fa, STDOUT_FILENO, "/dev/null",
                                         O_WRONLY, 0);
        int rc = posix_spawn(&pid_, bin.c_str(), &fa, nullptr, argv.data(),
                             environ);
        posix_spawn_file_actions_destroy(&fa);
        if (rc != 0) {
            fs::remove_all(dir_);
            throw std::runtime_error("cannot spawn " + bin);
        }
        g_daemonPid = pid_;
    }

    ~Daemon()
    {
        try {
            stop();
        } catch (...) {
        }
    }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** Block until a client completes the hello handshake. */
    std::unique_ptr<service::Client>
    connect(double timeoutSeconds = 20.0)
    {
        Clock::time_point t0 = Clock::now();
        for (;;) {
            try {
                service::ClientOptions o;
                o.connectTimeout = 1.0;
                return std::make_unique<service::Client>("unix:" + socket_,
                                                         o);
            } catch (const std::exception &e) {
                if (exited())
                    throw std::runtime_error("cirfix serve exited");
                if (secondsBetween(t0, Clock::now()) > timeoutSeconds)
                    throw std::runtime_error(
                        std::string("daemon never answered: ") + e.what());
                std::this_thread::sleep_for(std::chrono::milliseconds(2));
            }
        }
    }

    /** True once the child has exited (reaping it). Thread-safe. */
    bool
    exited()
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (pid_ > 0 && waitpid(pid_, nullptr, WNOHANG) == pid_) {
            pid_ = 0;
            g_daemonPid = 0;
        }
        return pid_ == 0;
    }

    pid_t
    pid()
    {
        std::lock_guard<std::mutex> lock(mu_);
        return pid_;
    }

    std::string
    snapshotPath(long id) const
    {
        return (fs::path(dir_) / "state" /
                ("job-" + std::to_string(id) + ".snap"))
            .string();
    }

    /** SIGTERM, reap, delete the state dir. Returns the child's peak
     *  RSS in MB (0 when it already exited). Idempotent. */
    double
    stop()
    {
        std::lock_guard<std::mutex> lock(mu_);
        double peakMb = 0;
        if (pid_ > 0) {
            kill(pid_, SIGTERM);
            struct rusage ru{};
            Clock::time_point t0 = Clock::now();
            while (wait4(pid_, nullptr, WNOHANG, &ru) == 0) {
                if (secondsBetween(t0, Clock::now()) > 10.0) {
                    kill(pid_, SIGKILL);
                    wait4(pid_, nullptr, 0, &ru);
                    break;
                }
                std::this_thread::sleep_for(std::chrono::milliseconds(5));
            }
            peakMb = static_cast<double>(ru.ru_maxrss) / 1024.0;
            pid_ = 0;
            g_daemonPid = 0;
        }
        if (!dir_.empty()) {
            std::error_code ec;
            fs::remove_all(dir_, ec);
            dir_.clear();
        }
        return peakMb;
    }

  private:
    std::mutex mu_;  //!< guards pid_ (client threads poll it)
    pid_t pid_ = 0;
    std::string dir_;
    std::string socket_;
};

bool
isTerminalState(const std::string &s)
{
    return s == "done" || s == "failed" || s == "canceled";
}

/** One closed-loop request: submit -> subscribe -> result. Never
 *  throws for service-side failures; they mark the request failed. */
void
runJob(service::Client &client, const service::JobSpec &spec, Request &r,
       Tracer &tracer, int tid, long *jobId)
{
    const long root = tracer.newId();
    Clock::time_point t0 = Clock::now(), tAck = t0, tRun = t0, tTerm = t0;
    try {
        *jobId = client.submit(spec);
        tAck = Clock::now();
        tRun = tTerm = tAck;
        client.subscribe(*jobId);
        service::Json ev;
        bool ended = false;
        while (client.recv(&ev)) {
            std::string type = ev.str("type");
            if (type == "end_of_stream") {
                ended = true;
                break;
            }
            if (type == "error")
                throw service::ServiceError(ev.str("code"),
                                            ev.str("message"));
            if (ev.str("event") != "state")
                continue;
            std::string st = ev.str("state");
            if (st == "running")
                tRun = Clock::now();
            else if (isTerminalState(st))
                tTerm = Clock::now();
        }
        if (!ended)
            throw std::runtime_error("connection dropped mid-stream");
        Clock::time_point tRes = Clock::now();
        service::Json reply = client.result(*jobId);
        Clock::time_point tEnd = Clock::now();
        r.seconds = secondsBetween(t0, tEnd);
        r.submitMs = 1e3 * secondsBetween(t0, tAck);
        r.resultMs = 1e3 * secondsBetween(tRes, tEnd);
        r.queueWaitS = secondsBetween(tAck, tRun);
        r.runS = secondsBetween(tRun, tTerm);
        if (reply.str("state") != "done") {
            r.failed = true;
            r.error = "job " + reply.str("state") + ": " +
                      reply.str("error");
        }
        if (const service::Json *res = reply.find("result")) {
            r.found = res->flag("found");
            r.generations = static_cast<int>(res->num("generations"));
            r.evals = res->num("fitness_evals");
            r.engineSeconds = res->real("seconds");
            r.repairedSource = res->str("repaired_source");
        }
        tracer.add(Span{"service.submit", t0, tAck, 0, root, tid, {}});
        tracer.add(Span{"service.queue_wait", tAck, tRun, 0, root, tid, {}});
        tracer.add(Span{"service.run", tRun, tTerm, 0, root, tid, {}});
        tracer.add(Span{"service.result", tRes, tEnd, 0, root, tid, {}});
        tracer.add(Span{"service.job", t0, tEnd, root, 0, tid,
                        {{"index", static_cast<double>(r.index)},
                         {"evals", static_cast<double>(r.evals)}}});
    } catch (const service::ServiceError &e) {
        r.failed = true;
        r.error = e.code() + ": " + e.what();
        r.seconds = secondsBetween(t0, Clock::now());
    }
}

/**
 * Drive the daemon with load.clients closed-loop connections through
 * jobs [0, load.count), handed out in order. A client that loses its
 * connection counts the job failed and reconnects; when the daemon
 * itself is gone every client stops.
 */
std::vector<Request>
drive(Daemon &daemon, const ServiceLoad &load, Tracer &tracer,
      double *wall, std::vector<long> *ids)
{
    std::mutex mu;
    long next = 0;
    bool closed = false;
    std::vector<Request> out;
    Clock::time_point start = Clock::now();

    auto take = [&](long *j) {
        std::lock_guard<std::mutex> lock(mu);
        if (closed || g_interrupted || next >= load.count)
            return false;
        *j = next++;
        return true;
    };

    auto client = [&](int tid) {
        std::unique_ptr<service::Client> conn;
        long j = 0;
        while (take(&j)) {
            Request r;
            r.index = j;
            long id = -1;
            try {
                if (!conn)
                    conn = daemon.connect(5.0);
                service::JobSpec spec = load.job(j);
                r.seed = spec.params.seed;
                runJob(*conn, spec, r, tracer, tid, &id);
            } catch (const std::exception &e) {
                // A dropped or broken connection: count it, reconnect.
                r.failed = true;
                r.error = e.what();
                conn.reset();
            }
            std::lock_guard<std::mutex> lock(mu);
            if (r.failed && daemon.exited())
                closed = true;
            out.push_back(std::move(r));
            ids->push_back(id);
        }
    };

    std::vector<std::thread> threads;
    for (int t = 0; t < load.clients; ++t)
        threads.emplace_back(client, t + 1);
    for (std::thread &t : threads)
        t.join();
    *wall = secondsBetween(start, Clock::now());
    std::sort(out.begin(), out.end(),
              [](const Request &a, const Request &b) {
                  return a.index < b.index;
              });
    return out;
}

} // namespace

ServiceRun
runServiceLoad(const ServiceLoad &load, Tracer &tracer, bool rerun)
{
    ServiceRun run;
    std::unique_ptr<Daemon> daemon;
    std::unique_ptr<service::Client> probe;
    // Set-up is timed three times; setup_s is the median.
    for (int i = 0; i < 3; ++i) {
        if (daemon)
            daemon->stop();
        Clock::time_point t0 = Clock::now();
        daemon = std::make_unique<Daemon>(load.cirfixBin, load.workDir,
                                          load.workers);
        probe = daemon->connect();
        Clock::time_point t1 = Clock::now();
        run.setupSeconds.push_back(secondsBetween(t0, t1));
        tracer.add(Span{"setup.daemon", t0, t1, 0, 0, 0, {}});
        probe.reset();
    }

    // Untimed warm-up: one job through the daemon.
    {
        Tracer off(false);
        ServiceLoad one = load;
        one.clients = 1;
        one.count = 1;
        double wall = 0;
        std::vector<long> ids;
        run.warmup = drive(*daemon, one, off, &wall, &ids);
    }

    std::vector<long> ids;
    const double cpu0 = processCpuSeconds(daemon->pid());
    run.requests = drive(*daemon, load, tracer, &run.wallSeconds, &ids);
    run.daemonCpuSeconds = processCpuSeconds(daemon->pid()) - cpu0;

    // One finished job's checkpoint: its size, and what reading it back
    // and re-encoding it costs (outside the timed loop).
    for (long id : ids) {
        std::string path = daemon->snapshotPath(id);
        if (id < 0 || !fs::exists(path))
            continue;
        run.snapshotBytes = static_cast<long>(fs::file_size(path));
        Clock::time_point t0 = Clock::now();
        core::EngineState st = core::loadSnapshot(path);
        Clock::time_point t1 = Clock::now();
        std::string text = core::encodeSnapshot(st);
        Clock::time_point t2 = Clock::now();
        core::decodeSnapshot(text);
        Clock::time_point t3 = Clock::now();
        run.snapshotLoadMs = 1e3 * secondsBetween(t0, t1);
        run.snapshotEncodeMs = 1e3 * secondsBetween(t1, t2);
        run.snapshotDecodeMs = 1e3 * secondsBetween(t2, t3);
        break;
    }

    if (rerun) {
        Tracer off(false);
        std::vector<long> rerunIds;
        run.rerun = drive(*daemon, load, off, &run.rerunWallSeconds,
                          &rerunIds);
    }
    run.daemonPeakRssMb = daemon->stop();
    return run;
}

} // namespace cirfix::e2e
