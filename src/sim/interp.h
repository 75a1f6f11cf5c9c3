#pragma once

/**
 * @file
 * Coroutine-based execution of behavioral Verilog.
 *
 * Every initial/always block becomes a Process whose body is executed
 * by a recursive C++20 coroutine (Task). Timing controls (#delay,
 * @(events), wait) suspend the whole coroutine stack; the scheduler
 * resumes the innermost frame when the delay elapses or a matching
 * edge fires, and completion propagates outward via symmetric
 * transfer. This mirrors how an event-driven simulator interleaves the
 * parallel processes of a hardware design.
 */

#include <coroutine>
#include <exception>
#include <string>
#include <utility>

#include "sim/design.h"
#include "verilog/ast.h"

namespace cirfix::sim {

/**
 * An eagerly-recursive coroutine task with symmetric transfer.
 *
 * Tasks are awaited exactly once ("co_await execStmt(...)"); the
 * temporary Task owns the child frame for the duration of the await,
 * so destroying a suspended root frame unwinds the whole stack.
 */
class [[nodiscard]] Task
{
  public:
    struct promise_type
    {
        std::coroutine_handle<> continuation = std::noop_coroutine();
        std::exception_ptr exception;

        Task
        get_return_object()
        {
            return Task(
                std::coroutine_handle<promise_type>::from_promise(*this));
        }
        std::suspend_always initial_suspend() noexcept { return {}; }

        struct FinalAwaiter
        {
            bool await_ready() noexcept { return false; }
            std::coroutine_handle<>
            await_suspend(std::coroutine_handle<promise_type> h) noexcept
            {
                return h.promise().continuation;
            }
            void await_resume() noexcept {}
        };

        FinalAwaiter final_suspend() noexcept { return {}; }
        void return_void() {}
        void
        unhandled_exception()
        {
            exception = std::current_exception();
        }
    };

    explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}
    Task(Task &&o) noexcept : handle_(std::exchange(o.handle_, {})) {}
    Task(const Task &) = delete;
    Task &operator=(const Task &) = delete;
    ~Task()
    {
        if (handle_)
            handle_.destroy();
    }

    // Awaiting a task starts the child frame via symmetric transfer.
    bool await_ready() const noexcept { return false; }
    std::coroutine_handle<>
    await_suspend(std::coroutine_handle<> cont) noexcept
    {
        handle_.promise().continuation = cont;
        return handle_;
    }
    void
    await_resume()
    {
        if (handle_.promise().exception)
            std::rethrow_exception(handle_.promise().exception);
    }

    /** Kick off a root task (non-awaited use). */
    void resume() { handle_.resume(); }
    bool done() const { return handle_.done(); }
    std::exception_ptr
    exception() const
    {
        return handle_.promise().exception;
    }

  private:
    std::coroutine_handle<promise_type> handle_;
};

/** One initial or always block, running as a coroutine. */
class Process
{
  public:
    enum class Kind { Always, Initial };

    Process(Design &design, InstanceScope &scope, Kind kind,
            const verilog::Stmt &body, std::string name);

    /** Schedule the first resumption (elaboration calls this at t=0). */
    void start();

    const std::string &name() const { return name_; }
    bool done() const { return root_.done(); }

  private:
    static Task root(Process *self);

    Design &design_;
    InstanceScope &scope_;
    Kind kind_;
    const verilog::Stmt &body_;
    std::string name_;
    Task root_;
};

/**
 * Execute one statement in @p scope. This is the interpreter entry
 * point; Process::root drives it, and it recurses via co_await.
 */
Task execStmt(Design &design, InstanceScope &scope,
              const verilog::Stmt &stmt);

/**
 * Synchronously execute a statement that cannot suspend (see
 * mightSuspend); used by the interpreter's fast path and by
 * user-defined function evaluation.
 */
void execStmtSync(Design &design, InstanceScope &scope,
                  const verilog::Stmt &stmt);

/** Can executing @p stmt suspend the process? (cached analysis) */
bool mightSuspend(const verilog::Stmt &stmt);

} // namespace cirfix::sim
