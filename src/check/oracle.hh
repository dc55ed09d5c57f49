/**
 * @file
 * Cross-agent coherence oracle.
 *
 * The per-hierarchy checkInvariants() routines verify each agent's
 * *internal* bookkeeping. The oracle checks the properties that span
 * agents -- the ones a broken snoop path, presence filter, or shadow
 * write-back would violate while every hierarchy still looks locally
 * consistent:
 *
 *  - single-writer: a block held Private (or dirty anywhere, including
 *    parked in a write buffer) is held by exactly one agent, and that
 *    agent is the one the bus history says owns it;
 *  - invalidation completeness: after an invalidate/read-mod-write, no
 *    non-source agent retains any form of the block;
 *  - shared-ack honesty: a read-miss/update reports "shared" exactly
 *    when some other agent still holds the block afterwards;
 *  - data supply: a cache only supplies data when the bus history shows
 *    a tracked exclusive owner existed to have dirtied it;
 *  - synonym uniqueness: inclusive hierarchies never hold two level-1
 *    copies of one physical sub-block;
 *  - presence-filter soundness: a filterable agent's presence bit on
 *    the bus agrees with its second-level directory;
 *  - linkage: inclusion/buffer directory bits match a physical scan of
 *    the level-1 arrays and the write buffer.
 *
 * The oracle observes the bus (BusObserver) and every hierarchy
 * (EventObserver), keeps a shadow line table (exclusive owner plus a
 * version/memory-version pair modelling the authoritative value), and
 * probes all agents' actual state through CacheHierarchy::probeBlock()
 * after every transaction. All checks run in the direction
 * "actual state implies shadow claim": the shadow is deliberately
 * allowed to go stale on silent local actions (clean evictions,
 * write-back drains, silent Private upgrades), which never produces a
 * false positive under this direction.
 *
 * On a violation the last N protocol events are dumped as JSON (the
 * event ring) and the configured handler runs -- by default panic();
 * tests and the fuzzer install a collecting handler instead.
 */

#ifndef VRC_CHECKING_ORACLE_HH
#define VRC_CHECKING_ORACLE_HH

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "check/event_ring.hh"
#include "coherence/bus.hh"
#include "core/hierarchy.hh"

namespace vrc
{

class MpSimulator;

/** Cross-agent coherence checker (see the file comment). */
class CoherenceOracle : public BusObserver, public EventObserver
{
  public:
    /** One detected violation. */
    struct Violation
    {
        std::string message;      ///< what was violated
        std::string context;      ///< "transaction" or "sweep"
        std::uint32_t blockAddr;  ///< the offending line address
    };

    using ViolationHandler = std::function<void(const Violation &)>;

    explicit CoherenceOracle(std::size_t ring_capacity = 256);
    ~CoherenceOracle() override;

    CoherenceOracle(const CoherenceOracle &) = delete;
    CoherenceOracle &operator=(const CoherenceOracle &) = delete;

    /**
     * Attach to a whole machine: observe its bus and register every
     * hierarchy as an agent. Call before running traffic.
     */
    void attach(MpSimulator &sim);

    /** Lower-level wiring for unit tests: observe @p bus. */
    void attachBus(SharedBus &bus, std::uint32_t line_bytes);

    /**
     * Register one agent. Must be called in bus-attach order (the
     * agent's cpuId() must equal the number of agents registered so
     * far). @p inclusive enables the checks that only hold for
     * inclusion-enforcing hierarchies (synonym uniqueness, presence).
     */
    void addAgent(CacheHierarchy &hier, bool inclusive);

    /** Stop observing (also done by the destructor). */
    void detach();

    /**
     * Replace the violation response. The default dumps the event ring
     * to stderr and panics; a collecting handler lets a fuzz run record
     * the failure and keep its process alive.
     */
    void setViolationHandler(ViolationHandler h) { _handler = std::move(h); }

    // --- observer callbacks ------------------------------------------

    void onTransaction(const BusTransaction &tx,
                       const BusResult &result) override;
    void onEvent(const HierarchyEvent &ev) override;

    /**
     * Check every line any agent currently holds (plus every presence
     * entry on the bus). Catches corruption introduced by purely local
     * actions between bus transactions.
     */
    void sweep();

    std::uint64_t violations() const { return _violations; }
    std::uint64_t transactionsChecked() const { return _txChecked; }
    const ProtocolEventRing &ring() const { return _ring; }

    /** Dump counters and the retained event ring as one JSON object. */
    void dumpJson(std::ostream &os) const;

  private:
    /**
     * Bus-history shadow of one line. `version` counts writes the bus
     * has seen; `memVersion` is the version memory holds. A gap means
     * some cache must be holding the newer (dirty) data.
     */
    struct ShadowLine
    {
        CpuId exclusiveOwner = invalidCpu;
        std::uint64_t version = 0;
        std::uint64_t memVersion = 0;
    };

    struct AgentInfo
    {
        CacheHierarchy *hier;
        bool inclusive;
    };

    /** Align to the bus coherence granularity. */
    std::uint32_t lineOf(std::uint32_t addr) const
    {
        return addr & ~(_lineBytes - 1);
    }

    void report(std::uint32_t block, std::string message,
                const char *context);

    /**
     * Probe every agent for @p block and run the cross-agent checks.
     * @p tx/@p res are null during sweeps (skips the per-transaction
     * checks that only make sense right after a broadcast).
     */
    void checkLine(std::uint32_t block, const BusTransaction *tx,
                   const BusResult *res, const char *context);

    SharedBus *_bus = nullptr;
    std::uint32_t _lineBytes = 32;
    std::vector<AgentInfo> _agents;
    std::unordered_map<std::uint32_t, ShadowLine> _shadow;
    ProtocolEventRing _ring;
    ViolationHandler _handler;
    std::uint64_t _violations = 0;
    std::uint64_t _txChecked = 0;
};

} // namespace vrc

#endif // VRC_CHECKING_ORACLE_HH
