#include "sim/scheduler.h"

#include <chrono>

namespace cirfix::sim {

namespace {
/// Thread-local so concurrent candidate evaluations (one Design per
/// worker) never contend; deterministic for a deterministic workload.
thread_local uint64_t g_event_heap_allocs = 0;
} // namespace

uint64_t
EventFn::heapAllocs()
{
    return g_event_heap_allocs;
}

void
EventFn::noteHeapAlloc()
{
    ++g_event_heap_allocs;
}

Scheduler::~Scheduler()
{
    for (TimeSlot *list : {head_, free_}) {
        while (list) {
            TimeSlot *next = list->next;
            delete list;
            list = next;
        }
    }
}

Scheduler::TimeSlot &
Scheduler::slotAt(SimTime t)
{
    // The pending list is short (current slot plus a handful of future
    // delays), and the common case — scheduling into the current slot —
    // hits the head node immediately, so a linear walk beats the old
    // std::map both on lookup and on allocator traffic.
    TimeSlot **link = &head_;
    while (*link && (*link)->time < t)
        link = &(*link)->next;
    if (*link && (*link)->time == t)
        return **link;
    TimeSlot *s;
    if (free_) {
        s = free_;
        free_ = s->next;
        ++allocStats_.slotsRecycled;
    } else {
        s = new TimeSlot;
        ++allocStats_.slotsAllocated;
    }
    s->time = t;
    s->next = *link;
    *link = s;
    return *s;
}

void
Scheduler::retireHead()
{
    TimeSlot *s = head_;
    head_ = s->next;
    s->clear(); // destroys callbacks, keeps each region's capacity
    s->next = free_;
    free_ = s;
}

void
Scheduler::scheduleActive(Callback cb)
{
    ++allocStats_.eventsScheduled;
    slotAt(now_).active.push(std::move(cb));
}

void
Scheduler::scheduleInactive(Callback cb)
{
    ++allocStats_.eventsScheduled;
    slotAt(now_).inactive.push(std::move(cb));
}

void
Scheduler::scheduleAt(SimTime t, Callback cb)
{
    ++allocStats_.eventsScheduled;
    slotAt(t < now_ ? now_ : t).active.push(std::move(cb));
}

void
Scheduler::scheduleNba(Callback cb)
{
    ++allocStats_.eventsScheduled;
    slotAt(now_).nba.push(std::move(cb));
}

void
Scheduler::scheduleNbaAt(SimTime t, Callback cb)
{
    ++allocStats_.eventsScheduled;
    slotAt(t < now_ ? now_ : t).nba.push(std::move(cb));
}

void
Scheduler::schedulePostponed(Callback cb)
{
    ++allocStats_.eventsScheduled;
    slotAt(now_).postponed.push(std::move(cb));
}

void
Scheduler::note(const std::string &reason, AbortKind kind)
{
    // First abort wins: later notes (e.g. the generic noteAbort from a
    // process unwinding a deadline SimAbort) must not reclassify it.
    if (aborted_)
        return;
    aborted_ = true;
    abortKind_ = kind;
    abortReason_ = reason;
}

void
Scheduler::noteAbort(const std::string &reason)
{
    note(reason, AbortKind::Budget);
}

void
Scheduler::noteDeadline(const std::string &reason)
{
    note(reason, AbortKind::Deadline);
}

void
Scheduler::noteCrash(const std::string &reason)
{
    note(reason, AbortKind::Crash);
}

Scheduler::RunResult
Scheduler::run(SimTime max_time, uint64_t max_callbacks,
               double max_wall_seconds)
{
    RunResult res;
    const auto wall_start = std::chrono::steady_clock::now();
    uint64_t next_wall_check = 1024;
    auto tick = [&] {
        ++res.callbacks;
        if (max_wall_seconds > 0 && res.callbacks >= next_wall_check) {
            next_wall_check = res.callbacks + 1024;
            double secs = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() -
                              wall_start)
                              .count();
            if (secs > max_wall_seconds)
                noteDeadline("wall-clock deadline exceeded");
        }
    };
    while (head_) {
        now_ = head_->time;
        if (now_ > max_time) {
            res.status = Status::MaxTime;
            res.endTime = now_;
            return res;
        }
        // Drain the slot: active, then promote inactive, then NBA.
        // NBA updates may refill active (edge wakeups), so loop.
        // Scheduling from inside callbacks can only target now_ or
        // later (scheduleAt clamps), so head_ stays this node until we
        // retire it below.
        TimeSlot &slot = *head_;
        for (;;) {
            if (!slot.active.empty()) {
                Callback cb = slot.active.pop();
                cb();
                tick();
                if (finish_ || aborted_ || res.callbacks > max_callbacks)
                    break;
                continue;
            }
            if (!slot.inactive.empty()) {
                // Promote #0 events; active is drained (empty buffer),
                // so this is a pure buffer exchange.
                std::swap(slot.active.items, slot.inactive.items);
                std::swap(slot.active.head, slot.inactive.head);
                continue;
            }
            if (!slot.nba.empty()) {
                // NBA updates execute in scheduling order; each may wake
                // processes into the (currently empty) active region.
                // Swap into the scratch buffer so both vectors keep
                // their capacity across slots.
                nbaScratch_.clear();
                nbaScratch_.swap(slot.nba.items);
                size_t first = slot.nba.head;
                slot.nba.head = 0;
                for (size_t i = first; i < nbaScratch_.size(); ++i) {
                    nbaScratch_[i]();
                    tick();
                    if (finish_ || aborted_ ||
                        res.callbacks > max_callbacks)
                        break;
                }
                nbaScratch_.clear();
                if (finish_ || aborted_ || res.callbacks > max_callbacks)
                    break;
                continue;
            }
            // Slot quiescent: run postponed (read-only) callbacks.
            if (!slot.postponed.empty()) {
                postScratch_.clear();
                postScratch_.swap(slot.postponed.items);
                size_t first = slot.postponed.head;
                slot.postponed.head = 0;
                for (size_t i = first; i < postScratch_.size(); ++i) {
                    postScratch_[i]();
                    tick();
                }
                postScratch_.clear();
                // Sampling must not create same-slot activity, but be
                // defensive: loop again if it somehow did.
                if (slot.busy())
                    continue;
            }
            break;
        }
        if (aborted_) {
            res.status = abortStatus();
            res.endTime = now_;
            return res;
        }
        if (res.callbacks > max_callbacks) {
            noteAbort("callback budget exhausted");
            res.status = Status::Runaway;
            res.endTime = now_;
            return res;
        }
        if (finish_) {
            res.status = Status::Finished;
            res.endTime = now_;
            return res;
        }
        retireHead();
    }
    res.status = Status::Idle;
    res.endTime = now_;
    return res;
}

} // namespace cirfix::sim
