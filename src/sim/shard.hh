/**
 * @file
 * Distributed sweep sharding: coordinator, worker, and journal merge
 * (DESIGN.md section 14).
 *
 * The coordinator partitions a campaign grid into shards, dispatches
 * them to workers over the VRCW wire layer (SHARD_ASSIGN / CELL_RESULT
 * / SHARD_DONE / HEARTBEAT frames) and journals each accepted cell
 * through the same CheckpointJournal and ResilienceOptions as the
 * single-process sweep (campaign.hh), so a finished distributed
 * journal is byte-identical to a local one. On top of that:
 *
 *  - Stable cell identity: shardCellId() hashes the cell's CONTENT,
 *    never its grid index. The first valid result per cell wins; a
 *    later copy is discarded when byte-identical and is a hard
 *    conflict error otherwise.
 *  - Liveness: an assignment with no heartbeat or result inside the
 *    deadline is speculatively re-dispatched and its worker struck
 *    (serve/conn.hh StrikeBook). A lost worker's unfinished cells go
 *    back under bounded retry with backoff, then quarantine.
 *  - Drain: SIGTERM stops new dispatch; in-flight shards finish and
 *    the run ends with the sweep's exit-5 contract. --resume re-reads
 *    the journal and dispatches only the missing cells.
 *
 * vrc-merge reuses the journal loader to merge the partial journals of
 * independent runs: same key and cell count required, torn tails
 * tolerated, byte-identical duplicates collapsed, disagreeing
 * duplicates a hard error naming both sources.
 */

#ifndef VRC_SIM_SHARD_HH
#define VRC_SIM_SHARD_HH

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/error.hh"
#include "sim/campaign.hh"
#include "sim/experiment.hh"
#include "trace/generator.hh"

namespace vrc
{

/**
 * Content-derived stable cell id: a hash of the workload identity
 * (profile name, seed, the trace's exact record count) and the job's
 * full knob set. Independent of the cell's position in -- or the size
 * of -- the job grid, so ids survive grid growth and reordering.
 */
std::uint64_t shardCellId(const WorkloadProfile &profile,
                          std::uint64_t records, const SimJob &job);

/** shardCellId() of a generated or loaded trace. */
std::uint64_t shardCellId(const TraceBundle &bundle, const SimJob &job);

/** True for the Mismatch errors that mean "conflicting summaries". */
bool isConflictError(const Error &e);

// ---- journal merge (vrc-merge) --------------------------------------

/** Outcome of merging N partial journals. */
struct ShardMerge
{
    JournalContents merged;  ///< canonical union of the inputs
    std::size_t inputs = 0;  ///< journals merged
    std::size_t duplicates = 0; ///< byte-identical repeats collapsed
    std::size_t torn = 0;       ///< torn/corrupt lines skipped
    std::vector<std::size_t> missing; ///< cells no input completed
};

/**
 * Merge partial journals given as (context, text) pairs. All inputs
 * must share the first input's campaign key and cell count; a cell
 * completed by several inputs must have byte-identical lines, else
 * the result is a conflict error naming both file/line locations.
 */
Result<ShardMerge>
mergeJournalTexts(const std::vector<std::pair<std::string, std::string>>
                      &inputs);

/** mergeJournalTexts() over files. */
Result<ShardMerge> mergeJournalFiles(const std::vector<std::string> &paths);

/** Merge manifest JSON (inputs, cells, completed, missing list). */
std::string mergeManifestJson(const ShardMerge &m);

// ---- coordinator ----------------------------------------------------

/**
 * Knobs for one coordinated (sharded) campaign. The inherited
 * deadlineSeconds is a no-progress deadline per assignment: an
 * assignment whose worker neither heartbeats nor delivers a cell for
 * that long is a straggler (speculative re-dispatch + a strike), and
 * maxRetries counts re-dispatches after a cell's first failed one.
 */
struct ShardCoordinatorOptions : ResilienceOptions
{
    ShardCoordinatorOptions() { maxRetries = 2; }

    std::string listenUnix; ///< unix socket path; empty = none
    int listenTcp = -1;     ///< TCP port (0 = ephemeral); -1 = none

    /**
     * The scale that produced the profile run() is given. Workers
     * regenerate the trace from (profile name, this exact double), so
     * it must be that scale or results will silently describe a
     * different trace.
     */
    double profileScale = 1.0;

    /** Cells per dispatched shard; 0 = auto (grid / 4, min 1). */
    std::size_t cellsPerShard = 0;
};

/** Coordinator-side counters (tests and the CLI report). */
struct ShardStats
{
    std::uint64_t workersSeen = 0;
    std::uint64_t workersLost = 0;
    std::uint64_t workersQuarantined = 0;
    std::uint64_t assignmentsDispatched = 0;
    std::uint64_t speculativeDispatches = 0; ///< straggler re-dispatches
    std::uint64_t duplicateResults = 0;      ///< discarded by cell id
    std::uint64_t cellResults = 0;           ///< accepted journal lines
    std::uint64_t heartbeats = 0;
};

/**
 * The sharded campaign driver. bind() first (tests read tcpPort()
 * before starting workers), then run() blocks until the grid is
 * complete, quarantined out, or drained by a shutdown signal.
 */
class ShardCoordinator
{
  public:
    explicit ShardCoordinator(ShardCoordinatorOptions opt);
    ~ShardCoordinator();

    ShardCoordinator(const ShardCoordinator &) = delete;
    ShardCoordinator &operator=(const ShardCoordinator &) = delete;

    /** Create the listeners (so the address is live before run()). */
    Status bind();

    /** The bound TCP port after bind() (ephemeral ports resolved). */
    int tcpPort() const;

    /**
     * Drive @p jobs over the trace of @p profile, which holds exactly
     * @p records records (traceRecordCount()), through the connected
     * workers. The coordinator never generates the trace: workers do.
     * Returns the same CampaignResult a single-process sweep would,
     * with quarantined cells for work no worker could finish. A
     * conflicting duplicate result aborts the run with an error for
     * which conflictDetected() is true.
     */
    Result<CampaignResult> run(const WorkloadProfile &profile,
                               std::uint64_t records,
                               const std::vector<SimJob> &jobs);

    /** run() over an already generated or loaded trace. */
    Result<CampaignResult> run(const TraceBundle &bundle,
                               const std::vector<SimJob> &jobs);

    ShardStats stats() const;

    /** True when run() failed because two results disagreed. */
    bool conflictDetected() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> _impl;
};

// ---- worker ---------------------------------------------------------

/** Knobs for one shard worker process. */
struct ShardWorkerOptions
{
    std::string connectUnix; ///< coordinator unix socket; or...
    int connectTcp = -1;     ///< ...coordinator TCP port on localhost
    std::string name = "shard-worker"; ///< stable identity (quarantine key)
    double heartbeatSeconds = 0.2;     ///< per-assignment heartbeat period
    double idleTimeoutSeconds = 600.0; ///< give up waiting for work
};

/** Worker-side counters for the CLI report. */
struct ShardWorkerStats
{
    std::uint64_t assignments = 0;
    std::uint64_t cellsRun = 0;
    std::uint64_t cellsFailed = 0;
};

/**
 * Run a worker until the coordinator says BYE/DRAINING/QUARANTINED or
 * closes the connection. Traces are regenerated locally (and cached)
 * from the assignment's profile name + scale; results stream back as
 * CELL_RESULT frames carrying the exact hexfloat journal lines.
 */
Result<ShardWorkerStats> runShardWorker(const ShardWorkerOptions &opt);

} // namespace vrc

#endif // VRC_SIM_SHARD_HH
