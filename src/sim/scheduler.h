#pragma once

/**
 * @file
 * Event scheduler implementing the IEEE 1364 stratified event queue.
 *
 * Each simulation time slot holds four regions processed in order:
 *
 *   active    -- process resumptions, blocking assignments, continuous
 *                assignment re-evaluations
 *   inactive  -- #0-delayed events (promoted when active drains)
 *   NBA       -- non-blocking assignment updates (promoted when both
 *                active and inactive have drained)
 *   postponed -- read-only sampling (the instrumented-testbench probe);
 *                runs once when the time slot is otherwise exhausted
 *
 * NBA updates change signal values, which wakes edge-sensitive
 * processes back into the active region of the same time slot, so the
 * loop iterates until the slot is quiescent before time advances.
 *
 * The scheduler also implements the resource bounds CirFix relies on to
 * survive pathological mutants: a maximum simulation time and a maximum
 * callback budget ("runaway" detection, the analogue of a simulator
 * timeout in the original VCS-based pipeline).
 *
 * Allocation discipline: candidate evaluation creates one Design (and
 * one Scheduler) per mutant, so per-event allocator traffic multiplies
 * by the whole population. Time slots are pooled nodes on an intrusive
 * sorted list whose region buffers keep their capacity when the slot is
 * recycled, and events are stored as EventFn — a move-only callable
 * with an inline buffer sized for the largest hot-path capture (an NBA
 * update carrying a WriteTarget plus a LogicVec payload) — so a
 * steady-state simulation schedules events without touching the global
 * allocator. allocStats() exposes the counters the benchmark-regression
 * gate alarms on.
 */

#include <cstddef>
#include <cstdint>
#include <new>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace cirfix::sim {

using SimTime = uint64_t;

/** Exception used to abort a simulation from inside a process. */
struct SimAbort : std::runtime_error
{
    /**
     * Why the abort was thrown. Carried on the exception so the repair
     * engine can classify a SimAbort even when it unwinds out of
     * elaborate() before any Design (and its scheduler latch) exists —
     * the elab-throw path previously defaulted every such abort to
     * "runaway".
     */
    enum class Cause { Budget, Deadline, Crash };

    explicit SimAbort(const std::string &what, Cause c = Cause::Budget)
        : std::runtime_error(what), cause(c)
    {}

    Cause cause;
};

/**
 * Move-only type-erased callable with a large inline buffer.
 *
 * std::function's small-object buffer (16 bytes in libstdc++) forces a
 * heap allocation for every scheduled NBA update, because the capture
 * carries the resolved write target and the four-state payload. EventFn
 * inlines callables up to kInlineSize bytes and falls back to the heap
 * beyond that (counted, see eventHeapAllocs()).
 */
class EventFn
{
  public:
    /** Inline capture budget: fits WriteTarget + LogicVec with room to
     *  spare; measured, not guessed — see test_scheduler.cc. */
    static constexpr size_t kInlineSize = 128;

    EventFn() = default;

    template <typename F,
              std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, EventFn>, int> = 0>
    EventFn(F &&f)  // NOLINT: implicit by design, mirrors std::function
    {
        using Fn = std::decay_t<F>;
        if constexpr (sizeof(Fn) <= kInlineSize &&
                      alignof(Fn) <= alignof(std::max_align_t)) {
            new (buf_) Fn(std::forward<F>(f));
            vt_ = &vtableInline<Fn>;
        } else {
            *reinterpret_cast<void **>(buf_) =
                new Fn(std::forward<F>(f));
            noteHeapAlloc();
            vt_ = &vtableHeap<Fn>;
        }
    }

    EventFn(EventFn &&o) noexcept { moveFrom(o); }

    EventFn &
    operator=(EventFn &&o) noexcept
    {
        if (this != &o) {
            reset();
            moveFrom(o);
        }
        return *this;
    }

    EventFn(const EventFn &) = delete;
    EventFn &operator=(const EventFn &) = delete;

    ~EventFn() { reset(); }

    void operator()() { vt_->invoke(buf_); }
    explicit operator bool() const { return vt_ != nullptr; }

    /** Heap fallbacks performed on this thread (oversized captures). */
    static uint64_t heapAllocs();

  private:
    struct VTable
    {
        void (*invoke)(void *);
        void (*relocate)(void *dst, void *src);  //!< move + destroy src
        void (*destroy)(void *);
    };

    template <typename Fn> static const VTable vtableInline;
    template <typename Fn> static const VTable vtableHeap;

    static void noteHeapAlloc();

    void
    moveFrom(EventFn &o) noexcept
    {
        vt_ = o.vt_;
        if (vt_)
            vt_->relocate(buf_, o.buf_);
        o.vt_ = nullptr;
    }

    void
    reset()
    {
        if (vt_) {
            vt_->destroy(buf_);
            vt_ = nullptr;
        }
    }

    const VTable *vt_ = nullptr;
    alignas(std::max_align_t) unsigned char buf_[kInlineSize];
};

template <typename Fn>
const EventFn::VTable EventFn::vtableInline = {
    [](void *b) { (*static_cast<Fn *>(static_cast<void *>(b)))(); },
    [](void *dst, void *src) {
        Fn *s = static_cast<Fn *>(src);
        new (dst) Fn(std::move(*s));
        s->~Fn();
    },
    [](void *b) { static_cast<Fn *>(static_cast<void *>(b))->~Fn(); },
};

template <typename Fn>
const EventFn::VTable EventFn::vtableHeap = {
    [](void *b) { (**static_cast<Fn **>(static_cast<void *>(b)))(); },
    [](void *dst, void *src) {
        *static_cast<void **>(dst) = *static_cast<void **>(src);
    },
    [](void *b) { delete *static_cast<Fn **>(static_cast<void *>(b)); },
};

using Callback = EventFn;

class Scheduler
{
  public:
    /** Why a run() call returned. */
    enum class Status {
        Finished,   //!< $finish was executed
        Idle,       //!< event queue drained (no more activity)
        MaxTime,    //!< simulated up to the max_time bound
        Runaway,    //!< callback/statement budget exhausted, sim aborted
        Deadline,   //!< wall-clock deadline exceeded, sim aborted
        Crashed,    //!< internal error escaped a process, sim aborted
    };

    struct RunResult
    {
        Status status = Status::Idle;
        SimTime endTime = 0;
        uint64_t callbacks = 0;
    };

    /** Allocator accounting for the run (deterministic; gated in CI). */
    struct AllocStats
    {
        uint64_t slotsAllocated = 0;  //!< time-slot nodes newly created
        uint64_t slotsRecycled = 0;   //!< nodes reused from the pool
        uint64_t eventsScheduled = 0; //!< total events enqueued
    };

    Scheduler() = default;
    ~Scheduler();

    Scheduler(const Scheduler &) = delete;
    Scheduler &operator=(const Scheduler &) = delete;

    SimTime now() const { return now_; }

    /** Schedule into the active region of the current time slot. */
    void scheduleActive(Callback cb);
    /** Schedule into the inactive (#0) region of the current slot. */
    void scheduleInactive(Callback cb);
    /** Schedule into the active region at absolute time @p t. */
    void scheduleAt(SimTime t, Callback cb);
    /** Schedule an NBA update at the current time. */
    void scheduleNba(Callback cb);
    /** Schedule an NBA update at absolute time @p t (a <= #d v). */
    void scheduleNbaAt(SimTime t, Callback cb);
    /** Schedule a read-only sampling callback at end of current slot. */
    void schedulePostponed(Callback cb);

    /** Request termination ($finish); takes effect between callbacks. */
    void requestFinish() { finish_ = true; }
    bool finishRequested() const { return finish_; }

    /** Record an abort (runaway mutant); stops the run loop. */
    void noteAbort(const std::string &reason);
    /** Record a wall-clock deadline abort (status Deadline). */
    void noteDeadline(const std::string &reason);
    /** Record an internal-error abort (status Crashed). */
    void noteCrash(const std::string &reason);
    bool aborted() const { return aborted_; }
    const std::string &abortReason() const { return abortReason_; }

    /** Status the latched abort maps to (Idle when not aborted); lets
     *  callers classify a SimAbort that escaped the run loop. */
    Status
    abortStatus() const
    {
        if (!aborted_)
            return Status::Idle;
        switch (abortKind_) {
          case AbortKind::Deadline: return Status::Deadline;
          case AbortKind::Crash: return Status::Crashed;
          case AbortKind::Budget: break;
        }
        return Status::Runaway;
    }

    /**
     * Run the simulation.
     *
     * @param max_time         Stop (status MaxTime) once now() passes
     *                         this.
     * @param max_callbacks    Abort (status Runaway) after this many
     *                         scheduled callbacks have executed.
     * @param max_wall_seconds Abort (status Deadline) once this much
     *                         wall-clock time has elapsed, checked
     *                         every 1024 callbacks (0 disables the
     *                         watchdog). Layered on the budgets: it
     *                         reaps candidates that burn real time
     *                         without burning callbacks.
     */
    RunResult run(SimTime max_time, uint64_t max_callbacks,
                  double max_wall_seconds = 0.0);

    const AllocStats &allocStats() const { return allocStats_; }

  private:
    /**
     * FIFO event region backed by a vector plus a drain cursor, so the
     * buffer (and its capacity) survives slot recycling. Callbacks may
     * push while the region drains (edge wakeups of the same slot);
     * index-based access keeps that safe across reallocation.
     */
    struct EventQueue
    {
        std::vector<Callback> items;
        size_t head = 0;

        bool empty() const { return head >= items.size(); }
        void push(Callback cb) { items.push_back(std::move(cb)); }

        Callback
        pop()
        {
            Callback cb = std::move(items[head]);
            ++head;
            if (head >= items.size())
                clear();
            return cb;
        }

        void
        clear()
        {
            items.clear();
            head = 0;
        }
    };

    /** Pooled node of the pending-slot list (sorted by time). */
    struct TimeSlot
    {
        SimTime time = 0;
        TimeSlot *next = nullptr;
        EventQueue active;
        EventQueue inactive;
        EventQueue nba;
        EventQueue postponed;

        bool
        busy() const
        {
            return !active.empty() || !inactive.empty() || !nba.empty();
        }

        void
        clear()
        {
            active.clear();
            inactive.clear();
            nba.clear();
            postponed.clear();
        }
    };

    TimeSlot &slotAt(SimTime t);
    /** Unlink the head slot and return its node to the free pool. */
    void retireHead();

    /** What kind of abort latched first (decides the run status). */
    enum class AbortKind { Budget, Deadline, Crash };

    void note(const std::string &reason, AbortKind kind);

    TimeSlot *head_ = nullptr;  //!< pending slots, ascending time
    TimeSlot *free_ = nullptr;  //!< recycled nodes (capacity retained)
    SimTime now_ = 0;
    bool finish_ = false;
    bool aborted_ = false;
    AbortKind abortKind_ = AbortKind::Budget;
    std::string abortReason_;
    AllocStats allocStats_;
    /** Scratch buffers for NBA/postponed drains; swapped with the slot
     *  regions so both sides keep their capacity. */
    std::vector<Callback> nbaScratch_;
    std::vector<Callback> postScratch_;
};

} // namespace cirfix::sim
