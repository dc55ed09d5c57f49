/**
 * @file
 * Experiment helpers: run one simulation and summarize the counters the
 * paper's tables report. Shared by the bench binaries and the
 * integration tests.
 */

#ifndef VRC_SIM_EXPERIMENT_HH
#define VRC_SIM_EXPERIMENT_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "base/cancel.hh"
#include "base/error.hh"
#include "sim/mp_sim.hh"
#include "trace/generator.hh"

namespace vrc
{

/** Everything the paper's tables need from one simulation run. */
struct SimSummary
{
    HierarchyKind kind = HierarchyKind::VirtualReal;
    std::uint32_t l1Size = 0;
    std::uint32_t l2Size = 0;
    bool split = false;

    double h1 = 0.0;       ///< level-1 hit ratio
    double h2 = 0.0;       ///< local level-2 hit ratio
    double h1Instr = 0.0;
    double h1Read = 0.0;
    double h1Write = 0.0;

    std::vector<std::uint64_t> l1MsgsPerCpu; ///< Tables 11-13 columns
    std::uint64_t inclusionInvalidations = 0;
    std::uint64_t synonymHits = 0;
    std::uint64_t synonymMoves = 0;
    std::uint64_t writebackCancels = 0;
    std::uint64_t swappedWritebacks = 0;
    std::uint64_t writeBufferStalls = 0;
    std::uint64_t busTransactions = 0;
    std::uint64_t memoryWrites = 0;
    std::uint64_t refs = 0;

    // --- timing engine (core/clock.hh) -------------------------------

    /** Timing engine the cell ran under. */
    TimingMode timingMode = TimingMode::Analytic;

    /** Measured per-reference level cost (both engines). */
    double avgAccessTime = 0.0;

    /** Cycle engine only (zero under the analytic model): */
    double avgAccessCycles = 0.0;  ///< per-ref latency incl. bus
    double busUtilization = 0.0;   ///< bus busy fraction of horizon
    double avgBusWait = 0.0;       ///< per-ref bus queueing delay
};

/** Default machine configuration for a size pair and organization. */
MachineConfig makeMachineConfig(HierarchyKind kind, std::uint32_t l1_size,
                                std::uint32_t l2_size,
                                std::uint32_t page_size, bool split = false);

/**
 * Run one full simulation of @p bundle on the given organization and
 * sizes and collect the summary.
 *
 * @param invariant_period when nonzero, checkInvariants() runs every
 *                         that many references (slow; tests only)
 */
SimSummary runSimulation(const TraceBundle &bundle, HierarchyKind kind,
                         std::uint32_t l1_size, std::uint32_t l2_size,
                         bool split = false,
                         std::uint64_t invariant_period = 0,
                         TimingMode timing_mode = TimingMode::Analytic);

/** One cell of an experiment table: a config to simulate. */
struct SimJob
{
    HierarchyKind kind = HierarchyKind::VirtualReal;
    std::uint32_t l1Size = 0;
    std::uint32_t l2Size = 0;
    bool split = false;
    std::uint64_t invariantPeriod = 0;

    /** Timing engine for this cell (functional results identical). */
    TimingMode timingMode = TimingMode::Analytic;
};

/** runSimulation() spelled with a SimJob (all knobs, incl. timing). */
SimSummary runSimulationJob(const TraceBundle &bundle, const SimJob &job);

/** Collect the table-facing counters from a finished simulator. */
SimSummary summarizeSimulation(const MpSimulator &sim,
                               const SimJob &job);

/** Records replayed between two polls of a ReplayPoll. */
inline constexpr std::size_t kReplayChunk = 8192;

/**
 * Called with the count of records replayed so far: before the first
 * chunk, between chunks and after the last. Stops the replay by
 * throwing.
 */
using ReplayPoll = std::function<void(std::size_t)>;

/**
 * The one replay loop behind every cell and served segment: build the
 * machine for @p job, replay @p records through the devirtualized
 * MpSimulator::runBatch() in kReplayChunk chunks, polling @p poll (may
 * be empty) only at chunk boundaries, and summarize.
 */
SimSummary replaySimulation(const WorkloadProfile &profile,
                            const SimJob &job, const TraceRecord *records,
                            std::size_t n, const ReplayPoll &poll);

/**
 * runSimulationJob() that unwinds with an ErrorException of kind
 * Cancelled at the first chunk boundary after @p token is cancelled
 * (before any record when it already is). Used by the campaign engine.
 */
SimSummary runSimulationCancellable(const TraceBundle &bundle,
                                    const SimJob &job,
                                    const CancelToken &token);

/**
 * Run every job against @p bundle, possibly concurrently, and return
 * the summaries in job order. Each job gets its own MpSimulator; the
 * bundle is shared read-only, so results are bit-identical for any
 * thread count.
 *
 * @param threads worker count; 0 means ParallelRunner::defaultJobs()
 */
std::vector<SimSummary> runSimulations(const TraceBundle &bundle,
                                       const std::vector<SimJob> &jobs,
                                       unsigned threads = 0);

/** The paper's three large size pairs (Table 6, 8-13). */
std::vector<std::pair<std::uint32_t, std::uint32_t>> paperSizePairs();

/** The paper's three small size pairs (Table 7). */
std::vector<std::pair<std::uint32_t, std::uint32_t>> smallSizePairs();

/**
 * Resolve the trace-length scale factor for bench binaries: 1.0 by
 * default, smaller when --quick is passed or VRC_QUICK is set in the
 * environment.
 */
double benchScaleFromArgs(int argc, char **argv, double quick = 0.05);

} // namespace vrc

#endif // VRC_SIM_EXPERIMENT_HH
