/**
 * @file
 * Fault-tolerant experiment campaigns.
 *
 * A campaign is a sweep of independent cells (one simulation each)
 * that must survive the failures a multi-hour run actually meets:
 * a killed process, a corrupt input, a cell that throws, a cell that
 * hangs. CampaignRunner layers four mechanisms over ParallelRunner:
 *
 *  - Checkpoint journal: every completed cell is appended (and
 *    flushed) to a line-oriented journal as an exact, hexfloat-coded
 *    SimSummary. A run killed at any instant -- including mid-write;
 *    a line without its terminator is discarded -- resumes with
 *    `resume = true`, replays nothing it already has, and produces
 *    bit-identical results to an uninterrupted run for any worker
 *    count. A key derived from the workload and the job list guards
 *    against resuming someone else's checkpoint.
 *  - Watchdog: each cell attempt runs under an optional wall-clock
 *    deadline. On expiry the cell's CancelToken is cancelled (the
 *    simulation loop polls it), the attempt is declared timed out,
 *    and the sweep moves on. Straggler threads are joined before
 *    run() returns, so nothing outlives the caller's data.
 *  - Bounded retry: a failing attempt is retried up to maxRetries
 *    times with exponential backoff before the cell is quarantined.
 *  - Quarantine: cells that exhaust their retries land in a failure
 *    manifest (who, how many attempts, last error, timed out or not)
 *    while every healthy cell completes; the result JSON carries the
 *    partial table plus the casualty list.
 *
 * The journal (CheckpointJournal) and the retry policy
 * (ResilienceOptions) are shared with the shard coordinator (shard.hh).
 * Fault injection (base/fault.hh, -DVRC_FAULTS=ON) hooks each attempt
 * so all of the above is exercised in CI rather than trusted on faith.
 */

#ifndef VRC_SIM_CAMPAIGN_HH
#define VRC_SIM_CAMPAIGN_HH

#include <algorithm>
#include <cstddef>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "base/cancel.hh"
#include "base/error.hh"
#include "sim/experiment.hh"

namespace vrc
{

/** Retry backoff ceiling. */
inline constexpr double kBackoffCapSeconds = 2.0;

/** The resilience policy --sweep and --coordinate share. */
struct ResilienceOptions
{
    /** Journal path; empty disables checkpointing. */
    std::string checkpoint;
    /** Load the journal and skip already-completed cells. */
    bool resume = false;
    /**
     * Wall-clock deadline in seconds, 0 = none: per attempt for a
     * campaign, per assignment's quiet time for the coordinator.
     */
    double deadlineSeconds = 0.0;
    /** Retries after the first failed attempt. */
    unsigned maxRetries = 0;
    /** First retry backoff; doubles per retry up to the cap. */
    double backoffSeconds = 0.05;
    /** Failure manifest path; empty = don't write one. */
    std::string manifest;

    /** The wait before retry number @p retry (0 = the first). */
    double backoffBefore(unsigned retry) const;
};

/** Resilience policy for one campaign. */
struct CampaignOptions : ResilienceOptions
{
    /** Worker threads; 0 = ParallelRunner::defaultJobs(). */
    unsigned jobs = 0;
};

/** One quarantined cell in the failure manifest. */
struct CellFailure
{
    std::size_t index = 0;
    unsigned attempts = 0;   ///< attempts actually made
    bool timedOut = false;   ///< last failure was the watchdog
    ErrorKind kind = ErrorKind::Worker;
    std::string error;       ///< last failure message
};

/** Outcome of a campaign: partial results plus the casualty list. */
struct CampaignResult
{
    std::vector<SimSummary> summaries; ///< index-ordered; failed cells
                                       ///< hold default summaries
    std::vector<bool> completed;       ///< per-cell success flag
    std::vector<CellFailure> quarantined; ///< sorted by index
    std::size_t restored = 0; ///< cells restored from the checkpoint

    /**
     * A shutdown signal arrived mid-sweep: dispatching stopped, cells
     * already running finished (and were journaled), the rest were
     * left pending. A checkpointed run picks them up with resume.
     */
    bool interrupted = false;

    bool
    allOk() const
    {
        return quarantined.empty();
    }

    std::size_t
    completedCells() const
    {
        return static_cast<std::size_t>(
            std::count(completed.begin(), completed.end(), true));
    }
};

/**
 * The work of one cell. Runs on a worker (or watchdog) thread; must
 * poll @p token at reasonable intervals if watchdog deadlines are to
 * bite. Report failure by throwing; ErrorException keeps the
 * taxonomy kind, anything else is recorded as ErrorKind::Worker.
 */
using CampaignCellFn =
    std::function<SimSummary(std::size_t, const CancelToken &)>;

/** Checkpoint-journaling, watchdogged, retrying sweep driver. */
class CampaignRunner
{
  public:
    explicit CampaignRunner(CampaignOptions opt);

    /**
     * Run cells [0, n). @p key identifies the campaign (workload +
     * job list); a resume against a journal with a different key or
     * cell count is a Mismatch error. Io errors opening or creating
     * the journal also fail the whole run; individual cell failures
     * never do.
     */
    Result<CampaignResult> run(std::size_t n, const std::string &key,
                               const CampaignCellFn &fn) const;

  private:
    CampaignOptions _opt;
};

/**
 * FNV-1a over the workload identity (profile name, seed, record count)
 * followed by the knobs of @p n jobs. campaignKey() hashes the whole
 * grid, shardCellId() a single job.
 */
std::uint64_t hashWorkloadJobs(const TraceBundle &bundle,
                               const SimJob *jobs, std::size_t n);

/** Key for a simulation campaign: workload identity + job list. */
std::string campaignKey(const TraceBundle &bundle,
                        const std::vector<SimJob> &jobs);

/**
 * Run @p jobs over @p bundle as a campaign. Cells replay through the
 * cancellation-aware simulation loop, so the watchdog can actually
 * stop one; fault injection (when armed) perturbs each attempt.
 */
Result<CampaignResult>
runSimulationCampaign(const TraceBundle &bundle,
                      const std::vector<SimJob> &jobs,
                      const CampaignOptions &opt);

/**
 * Partial-result JSON: cell count, completed count, per-cell summary
 * objects for completed cells, and the quarantine list. Deliberately
 * independent of how many cells were restored from a checkpoint, so
 * an interrupted+resumed campaign serializes bit-identically to an
 * uninterrupted one.
 */
std::string campaignResultToJson(const CampaignResult &r);

/** The failure manifest alone, as JSON. */
std::string failureManifestToJson(const CampaignResult &r);

/** Exact (hexfloat) one-line encoding of a summary, for the journal. */
std::string encodeSummaryLine(std::size_t index, const SimSummary &s);

/** Parse one journal cell line back. */
Result<std::pair<std::size_t, SimSummary>>
decodeSummaryLine(const std::string &line);

/**
 * Decoded contents of one checkpoint journal (or the union of
 * several), possibly partial. The verbatim cell-line bytes ride along
 * with the decoded summaries so merge tools can compare and re-emit
 * lines without a re-encode.
 */
struct JournalContents
{
    std::string key;                  ///< campaign key from the header
    std::size_t cells = 0;            ///< grid size from the header
    std::vector<bool> present;        ///< per-cell: line seen
    std::vector<SimSummary> summaries;
    std::vector<std::string> lines;   ///< verbatim line per cell
    std::vector<std::uint64_t> firstLine; ///< 1-based line of first copy
    std::vector<std::size_t> input;   ///< per cell: inputs[] of first copy
    std::vector<std::string> inputs;  ///< contexts of the loaded journals
    std::size_t torn = 0;       ///< corrupt/torn lines skipped
    std::size_t duplicates = 0; ///< byte-identical repeats tolerated

    std::size_t
    completedCells() const
    {
        return static_cast<std::size_t>(
            std::count(present.begin(), present.end(), true));
    }
};

/**
 * The validating journal loader behind resume, the shard coordinator
 * and vrc-merge: fold the journal in @p in, named @p context, into
 * @p into. The first journal sets key and cell count; later ones must
 * match them. Torn tail lines (a crash mid-append) are skipped with a
 * warning; a cell line byte-identical to the first copy is tolerated;
 * one whose bytes DISAGREE is a hard Mismatch error ("conflicting
 * summaries") naming both locations -- never last-writer-wins.
 */
Status mergeJournal(std::istream &in, const std::string &context,
                    JournalContents &into);

/** mergeJournal() of a single journal. */
Result<JournalContents> tryLoadJournal(std::istream &in,
                                       const std::string &context);

/**
 * The canonical byte encoding of a (possibly partial) journal: header
 * plus the present cells' verbatim lines in index order. Two runs
 * that completed the same cells -- whatever the completion order,
 * worker count or shard layout -- produce identical bytes.
 */
std::string canonicalJournalText(const JournalContents &j);

/**
 * The checkpoint journal of one run, shared by CampaignRunner and
 * ShardCoordinator. Keeps each completed cell's line (in memory even
 * without a file) and appends+flushes new ones. Not thread-safe.
 */
class CheckpointJournal
{
  public:
    /**
     * Start the journal for campaign @p key over res.completed.size()
     * cells. Under opt.resume an existing journal must match key and
     * cell count (else Mismatch) and its cells are restored into
     * @p res; otherwise the file is created with its header.
     */
    Status open(const ResilienceOptions &opt, const std::string &key,
                CampaignResult &res);

    /** Cell @p idx's accepted line (empty when it has none). */
    const std::string &
    line(std::size_t idx) const
    {
        return _book.lines[idx];
    }

    /** Record cell @p idx's line, appending it to the file. */
    void append(std::size_t idx, std::string line);

    /**
     * Close out a run: unless @p res was interrupted, atomically
     * rewrite the file as canonicalJournalText(), so any two runs that
     * completed the same cells -- sharded, resumed or straight through
     * -- end with identical bytes; then write the failure manifest.
     */
    void finish(const CampaignResult &res);

  private:
    std::string _path;
    std::string _manifest;
    JournalContents _book;
    std::ofstream _file;
};

} // namespace vrc

#endif // VRC_SIM_CAMPAIGN_HH
