#pragma once

/**
 * @file
 * Deterministic network fault injection for the fleet transport,
 * mirroring sim::FaultPlan: instead of hoping a flaky network shows
 * up in CI, the chaos tests *compile the faults in* and prove the
 * coordinator/worker protocol never loses or duplicates a job under
 * them.
 *
 * The injector is process-global and consulted by transport::Conn on
 * every framed read/write and by dial() on every connect attempt. All
 * counters are 1-based; 0 disables a hook. Two firing modes:
 *
 *  - one-shot (every = false): the hook fires exactly at the Nth
 *    operation and never again — for surgical tests ("drop the 3rd
 *    frame the worker writes");
 *  - periodic (every = true): the hook fires at every Nth operation
 *    (modulo) — for sustained chaos (the fleet chaos tests run whole
 *    repair fleets under periodic frame drops).
 *
 * Disarmed (the default and production state) the hooks are a single
 * relaxed atomic load — the transport pays nothing for the harness.
 */

#include <atomic>
#include <cstdint>
#include <mutex>

namespace cirfix::service {

/** What a transport hook should do at this operation. */
enum class NetFaultAction {
    None,     //!< proceed normally
    Stall,    //!< sleep stallSeconds first, then proceed
    Partial,  //!< (writes) put a truncated frame on the wire, then drop
    Drop,     //!< fail the operation as a peer disconnect
};

/** Injectable network-fault schedule (all counters 1-based; 0 = off). */
struct NetFaultPlan
{
    /** Fail the Nth dial() with an injected connection refusal —
     *  a partition between this process and the listener. */
    uint64_t refuseConnectAt = 0;
    /** Drop the connection instead of writing the Nth frame. */
    uint64_t dropWriteAt = 0;
    /** Write only half of the Nth frame, then drop the connection
     *  (the reader sees a truncated frame, not a clean EOF). */
    uint64_t partialWriteAt = 0;
    /** Sleep stallSeconds before writing the Nth frame. */
    uint64_t stallWriteAt = 0;
    /** Fail the Nth frame read as a peer disconnect. */
    uint64_t dropReadAt = 0;
    /** Sleep stallSeconds before reading the Nth frame. */
    uint64_t stallReadAt = 0;
    /** Stall duration for the stall hooks. */
    double stallSeconds = 0.02;
    /** false: each hook fires once, at its Nth operation.
     *  true: each hook fires at every multiple of N. */
    bool every = false;

    bool
    any() const
    {
        return refuseConnectAt || dropWriteAt || partialWriteAt ||
               stallWriteAt || dropReadAt || stallReadAt;
    }
};

/** Hook-hit totals since the last arm(). */
struct NetFaultCounters
{
    uint64_t connectsRefused = 0;
    uint64_t writesDropped = 0;
    uint64_t writesTruncated = 0;
    uint64_t writeStalls = 0;
    uint64_t readsDropped = 0;
    uint64_t readStalls = 0;

    uint64_t
    total() const
    {
        return connectsRefused + writesDropped + writesTruncated +
               writeStalls + readsDropped + readStalls;
    }
};

/**
 * Process-global injector. Tests arm() a plan, run the scenario, and
 * disarm(); the transport consults the hooks on every operation. All
 * methods are thread-safe — operation counters are shared across
 * every connection in the process, which is exactly what sustained
 * chaos wants (faults land on whichever peer happens to do the Nth
 * operation).
 */
class NetFaultInjector
{
  public:
    static NetFaultInjector &instance();

    /** Install @p plan and reset all operation and hit counters. */
    void arm(const NetFaultPlan &plan);
    /** Remove the plan; hooks return None/false until the next arm. */
    void disarm();
    bool armed() const { return armed_.load(std::memory_order_relaxed); }

    /** @return true when this dial attempt should fail (partition). */
    bool onConnect();
    /** Consult the write-frame schedule (counts one frame write). */
    NetFaultAction onWriteFrame();
    /** Consult the read-frame schedule (counts one frame read). */
    NetFaultAction onReadFrame();

    double stallSeconds() const;
    NetFaultCounters counters() const;

  private:
    NetFaultInjector() = default;

    /** Does a 1-based schedule point @p at fire at operation @p op? */
    bool fires(uint64_t at, uint64_t op) const;

    std::atomic<bool> armed_{false};
    mutable std::mutex mu_;
    NetFaultPlan plan_;
    uint64_t connects_ = 0;
    uint64_t writes_ = 0;
    uint64_t reads_ = 0;
    NetFaultCounters hits_;
};

} // namespace cirfix::service
