#include "sim/shard.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "base/fault.hh"
#include "base/log.hh"
#include "base/shutdown.hh"
#include "serve/client.hh"
#include "serve/conn.hh"
#include "serve/wire.hh"
#include "trace/workload.hh"

namespace vrc
{

namespace
{

using Clock = std::chrono::steady_clock;

/** Strikes before a worker name is quarantined (serve's default). */
constexpr unsigned kWorkerStrikeLimit = 3;

constexpr const char *conflictPrefix = "conflicting summaries";

} // namespace

std::uint64_t
shardCellId(const TraceBundle &bundle, const SimJob &job)
{
    return hashWorkloadJobs(bundle, &job, 1);
}

bool
isConflictError(const Error &e)
{
    return e.kind == ErrorKind::Mismatch &&
           e.message.rfind(conflictPrefix, 0) == 0;
}

// ---- journal merge --------------------------------------------------

Result<ShardMerge>
mergeJournalTexts(
    const std::vector<std::pair<std::string, std::string>> &inputs)
{
    if (inputs.empty())
        return makeError(ErrorKind::Bounds, "no journals to merge");
    ShardMerge m;
    for (const auto &[ctx, text] : inputs) {
        std::istringstream is(text);
        Status merged = mergeJournal(is, ctx, m.merged);
        if (!merged)
            return merged.error();
    }
    m.inputs = inputs.size();
    m.duplicates = m.merged.duplicates;
    m.torn = m.merged.torn;
    for (std::size_t i = 0; i < m.merged.cells; ++i)
        if (!m.merged.present[i])
            m.missing.push_back(i);
    return m;
}

Result<ShardMerge>
mergeJournalFiles(const std::vector<std::string> &paths)
{
    std::vector<std::pair<std::string, std::string>> inputs;
    inputs.reserve(paths.size());
    for (const std::string &path : paths) {
        std::ifstream in(path, std::ios::binary);
        if (!in)
            return makeError(ErrorKind::Io,
                             "cannot open journal: ", path);
        std::ostringstream text;
        text << in.rdbuf();
        inputs.emplace_back(path, text.str());
    }
    return mergeJournalTexts(inputs);
}

std::string
mergeManifestJson(const ShardMerge &m)
{
    std::ostringstream os;
    os << "{\"inputs\":" << m.inputs
       << ",\"cells\":" << m.merged.cells
       << ",\"completed\":" << m.merged.completedCells()
       << ",\"duplicates\":" << m.duplicates
       << ",\"torn\":" << m.torn << ",\"missing\":[";
    for (std::size_t i = 0; i < m.missing.size(); ++i)
        os << (i ? "," : "") << m.missing[i];
    os << "]}";
    return os.str();
}

// ---- coordinator ----------------------------------------------------

namespace
{

/** One connected worker. */
struct WorkerConn
{
    explicit WorkerConn(int fd) : conn(fd) {}

    std::uint64_t id = 0;
    Connection conn;
    std::string name;       ///< from HELLO; empty until then
    bool ready = false;     ///< HELLO accepted
    bool gone = false;      ///< connection dead (no more dispatch)
    std::int64_t assignment = -1; ///< active assignment id, -1 = idle
    std::thread reader;
};

/** One dispatched shard. */
struct Assignment
{
    std::uint64_t id = 0;
    std::uint64_t workerId = 0;
    std::string workerName;
    std::vector<std::size_t> cells;
    Clock::time_point lastProgress;
    bool active = false;
    bool speculated = false; ///< watchdog already rescued this one
};

} // namespace

struct ShardCoordinator::Impl
{
    ShardCoordinatorOptions opt;
    Listener listener;

    // All coordinator state below is guarded by mu; cv wakes the
    // scheduler loop on every event (result, done, hello, loss).
    std::mutex mu;
    std::condition_variable cv;
    std::atomic<bool> stopping{false};

    const TraceBundle *bundle = nullptr;
    const std::vector<SimJob> *jobs = nullptr;
    std::string key;
    std::size_t n = 0;
    std::vector<std::uint64_t> cellIds;
    std::unordered_map<std::uint64_t, std::size_t> idToIndex;

    CampaignResult res;
    CheckpointJournal journal; ///< accepted result line per cell
    std::vector<bool> cellQuarantined;
    std::vector<CellFailure> lastFail; ///< attempts = failed dispatches
    std::vector<unsigned> dispatchCount; ///< wire `attempt` source
    std::vector<Clock::time_point> earliest; ///< backoff gate
    std::deque<std::size_t> pending;

    std::vector<std::shared_ptr<WorkerConn>> workers;
    std::uint64_t nextWorkerId = 1;
    std::map<std::uint64_t, Assignment> assignments;
    std::uint64_t nextAssignId = 1;
    StrikeBook book{kWorkerStrikeLimit, "worker"};

    ShardStats stats;
    bool conflict = false;
    Error conflictError;
    bool draining = false;

    std::thread acceptThread;

    // ---- accept + reader threads -----------------------------------

    void
    acceptLoop()
    {
        auto adopt = [this](int fd) {
            auto w = std::make_shared<WorkerConn>(fd);
            {
                std::lock_guard<std::mutex> g(mu);
                w->id = nextWorkerId++;
                workers.push_back(w);
            }
            w->reader = std::thread([this, w] { readerLoop(*w); });
        };
        while (!stopping.load(std::memory_order_acquire) &&
               listener.accept(100, adopt)) {
        }
    }

    void
    readerLoop(WorkerConn &w)
    {
        Connection::ReadEnd end = w.conn.readFrames(
            [this] { return !stopping.load(std::memory_order_acquire); },
            [this, &w](Frame f) { return handleFrame(w, std::move(f)); });
        std::lock_guard<std::mutex> g(mu);
        if (end == Connection::ReadEnd::Broken) {
            warn("coordinate: torn frame stream from worker '", w.name,
                 "': ", w.conn.frameError().message);
            strikeLocked(w.name);
        }
        markGoneLocked(w);
        cv.notify_all();
    }

    /** Dispatch one frame from @p w. False ends the connection. */
    bool
    handleFrame(WorkerConn &w, Frame f)
    {
        std::lock_guard<std::mutex> g(mu);
        if (!w.ready) {
            if (f.type != FrameType::Hello) {
                warn("coordinate: worker sent ", frameTypeName(f.type),
                     " before hello");
                return false;
            }
            Result<HelloRequest> hello = decodeHello(f.payload);
            if (!hello) {
                warn("coordinate: bad hello: ",
                     hello.error().message);
                return false;
            }
            w.name = hello.value().client;
            if (book.quarantined(w.name)) {
                w.conn.send(book.refusal(w.name));
                return false;
            }
            w.ready = true;
            ++stats.workersSeen;
            cv.notify_all();
            return true;
        }
        switch (f.type) {
          case FrameType::CellResult:
            return handleCellResultLocked(w, f.payload);
          case FrameType::ShardDone:
            return handleShardDoneLocked(w, f.payload);
          case FrameType::Heartbeat:
            return handleHeartbeatLocked(w, f.payload);
          case FrameType::Bye:
            return false;
          default:
            warn("coordinate: unexpected ", frameTypeName(f.type),
                 " frame from worker '", w.name, "'");
            strikeLocked(w.name);
            return false;
        }
    }

    bool
    handleCellResultLocked(WorkerConn &w, const std::string &payload)
    {
        Result<CellResultReply> r = decodeCellResult(payload);
        if (!r)
            return poisonLocked(w, r.error().message);
        const CellResultReply &cr = r.value();
        if (cr.index >= n)
            return poisonLocked(w, "cell index out of range");
        Result<std::pair<std::size_t, SimSummary>> decoded =
            decodeSummaryLine(cr.summaryLine);
        if (!decoded)
            return poisonLocked(w, decoded.error().message);
        const auto &[idx, s] = decoded.value();
        if (idx != cr.index)
            return poisonLocked(w, "summary line names another cell");
        const SimJob &job = (*jobs)[idx];
        if (s.kind != job.kind || s.l1Size != job.l1Size ||
            s.l2Size != job.l2Size || s.split != job.split ||
            s.timingMode != job.timingMode)
            return poisonLocked(w,
                                "summary geometry does not match the "
                                "assigned cell");

        // Dedup by stable cell id: the first valid result wins; a
        // straggler's late copy must be byte-identical to be dropped
        // silently, otherwise somebody computed a wrong answer and
        // the run must not paper over it.
        if (res.completed[idx]) {
            if (journal.line(idx) == cr.summaryLine) {
                ++stats.duplicateResults;
            } else if (!conflict) {
                conflict = true;
                conflictError = makeError(
                    ErrorKind::Mismatch, conflictPrefix,
                    " for cell ", idx, " (id ", std::hex,
                    cellIds[idx], std::dec, "): worker '", w.name,
                    "' disagrees with the journaled line");
                cv.notify_all();
            }
            noteProgressLocked(w, cr.assignId);
            return !conflict;
        }
        res.completed[idx] = true;
        res.summaries[idx] = s;
        journal.append(idx, cr.summaryLine);
        ++stats.cellResults;
        noteProgressLocked(w, cr.assignId);
        cv.notify_all();
        return true;
    }

    void
    noteProgressLocked(WorkerConn &w, std::uint64_t assignId)
    {
        auto it = assignments.find(assignId);
        if (it != assignments.end() && it->second.workerId == w.id)
            it->second.lastProgress = Clock::now();
    }

    bool
    handleShardDoneLocked(WorkerConn &w, const std::string &payload)
    {
        Result<ShardDoneReply> r = decodeShardDone(payload);
        if (!r)
            return poisonLocked(w, r.error().message);
        const ShardDoneReply &d = r.value();
        for (const ShardFailureInfo &f : d.failures) {
            if (f.index >= n)
                return poisonLocked(w, "failure index out of range");
            warn("coordinate: worker '", w.name, "' failed cell ",
                 f.index, ": ", f.message);
            recordCellFailureLocked(f.index, f.kind, f.message,
                                    f.kind == ErrorKind::Timeout);
        }
        auto it = assignments.find(d.assignId);
        if (it != assignments.end() && it->second.workerId == w.id) {
            it->second.active = false;
            if (w.assignment ==
                static_cast<std::int64_t>(it->second.id))
                w.assignment = -1;
        }
        cv.notify_all();
        return true;
    }

    bool
    handleHeartbeatLocked(WorkerConn &w, const std::string &payload)
    {
        Result<HeartbeatMsg> r = decodeHeartbeat(payload);
        if (!r)
            return poisonLocked(w, r.error().message);
        ++stats.heartbeats;
        noteProgressLocked(w, r.value().assignId);
        return true;
    }

    /** A worker sent garbage: strike it and cut the connection. */
    bool
    poisonLocked(WorkerConn &w, const std::string &why)
    {
        warn("coordinate: poisoning worker '", w.name, "': ", why);
        strikeLocked(w.name);
        return false;
    }

    void
    strikeLocked(const std::string &name)
    {
        if (!book.strike(name))
            return;
        ++stats.workersQuarantined;
        warn("coordinate: quarantining worker '", name, "' after ",
             kWorkerStrikeLimit, " strikes");
        for (auto &w : workers)
            if (w->name == name && !w->gone)
                w->conn.sendAndShut(book.refusal(name));
    }

    /** The connection died: return its unfinished cells to the pool. */
    void
    markGoneLocked(WorkerConn &w)
    {
        if (w.gone)
            return;
        w.gone = true;
        w.conn.shutdown();
        if (w.ready && !stopping.load(std::memory_order_acquire))
            ++stats.workersLost;
        if (w.assignment >= 0) {
            auto it = assignments.find(
                static_cast<std::uint64_t>(w.assignment));
            if (it != assignments.end() && it->second.active) {
                Assignment &a = it->second;
                a.active = false;
                if (!stopping.load(std::memory_order_acquire)) {
                    std::ostringstream os;
                    os << "lost worker '" << w.name
                       << "' mid-shard";
                    for (std::size_t idx : a.cells)
                        if (!res.completed[idx])
                            recordCellFailureLocked(
                                idx, ErrorKind::Worker, os.str(),
                                false);
                }
            }
            w.assignment = -1;
        }
    }

    /**
     * One definite failure for @p idx: bounded retry with backoff,
     * then quarantine. Results that arrive later anyway (a straggler
     * finishing after its loss was declared) still count -- the
     * quarantine list is filtered against completions at the end.
     */
    void
    recordCellFailureLocked(std::size_t idx, ErrorKind kind,
                            const std::string &message, bool timedOut)
    {
        if (res.completed[idx] || cellQuarantined[idx])
            return;
        CellFailure &f = lastFail[idx];
        unsigned fails = ++f.attempts;
        f.index = idx;
        f.timedOut = timedOut;
        f.kind = kind;
        f.error = message;
        if (fails > opt.maxRetries) {
            cellQuarantined[idx] = true;
            warn("coordinate: cell ", idx, " quarantined after ",
                 fails, " failed dispatch", fails == 1 ? "" : "es",
                 ": ", message);
            return;
        }
        earliest[idx] =
            Clock::now() +
            std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(opt.backoffBefore(fails - 1)));
        pending.push_back(idx);
    }

    // ---- scheduler -------------------------------------------------

    /** Straggler watchdog: one pass over the active assignments. */
    void
    watchdogLocked(Clock::time_point now)
    {
        if (opt.deadlineSeconds <= 0.0)
            return;
        for (auto &[id, a] : assignments) {
            if (!a.active)
                continue;
            double quiet =
                std::chrono::duration<double>(now - a.lastProgress)
                    .count();
            if (quiet < opt.deadlineSeconds)
                continue;
            std::vector<std::size_t> missing;
            for (std::size_t idx : a.cells)
                if (!res.completed[idx] && !cellQuarantined[idx])
                    missing.push_back(idx);
            if (missing.empty() || draining) {
                // Nothing left to rescue (or we are draining and
                // must not start new work): abandon the assignment.
                a.active = false;
                for (auto &w : workers)
                    if (w->id == a.workerId &&
                        w->assignment ==
                            static_cast<std::int64_t>(a.id))
                        w->assignment = -1;
                continue;
            }
            // One rescue per assignment: a stalled shard earns its
            // worker one strike and one speculative copy, not a new
            // strike every deadline period while it sleeps.
            if (a.speculated)
                continue;
            a.speculated = true;
            warn("coordinate: worker '", a.workerName,
                 "' is a straggler on assignment ", a.id, " (",
                 missing.size(), " cells quiet for ", quiet,
                 " s); re-dispatching speculatively");
            ++stats.speculativeDispatches;
            strikeLocked(a.workerName);
            // Speculate: the lagging range goes back in the queue
            // while the original assignment stays live -- whichever
            // copy lands first wins, the other is a dedup discard.
            for (std::size_t idx : missing)
                pending.push_front(idx);
        }
    }

    /** Hand pending cells to idle workers. */
    void
    dispatchLocked()
    {
        if (draining || conflict)
            return;
        Clock::time_point now = Clock::now();
        for (auto &w : workers) {
            if (pending.empty())
                return;
            if (!w->ready || w->gone || w->assignment >= 0 ||
                book.quarantined(w->name))
                continue;
            std::size_t shard_size =
                opt.cellsPerShard
                    ? opt.cellsPerShard
                    : std::max<std::size_t>(1, n / 4);
            std::vector<std::size_t> cells;
            std::deque<std::size_t> deferred;
            while (!pending.empty() && cells.size() < shard_size) {
                std::size_t idx = pending.front();
                pending.pop_front();
                if (res.completed[idx] || cellQuarantined[idx])
                    continue;
                if (earliest[idx] > now) {
                    deferred.push_back(idx);
                    continue;
                }
                cells.push_back(idx);
            }
            for (std::size_t idx : deferred)
                pending.push_back(idx);
            if (cells.empty())
                return;

            ShardAssignment assign;
            assign.assignId = nextAssignId++;
            assign.campaignKey = key;
            assign.profileName = bundle->profile.name;
            assign.scale = opt.profileScale;
            assign.cells.reserve(cells.size());
            for (std::size_t idx : cells) {
                ShardCell c;
                c.index = static_cast<std::uint32_t>(idx);
                // The attempt counts every dispatch (including
                // speculative copies), so deterministic fault
                // injection keyed on (cell, attempt) fires once and
                // the rescue completes.
                c.attempt = dispatchCount[idx]++;
                c.job = (*jobs)[idx];
                assign.cells.push_back(c);
            }
            Assignment a;
            a.id = assign.assignId;
            a.workerId = w->id;
            a.workerName = w->name;
            a.cells = cells;
            a.lastProgress = now;
            a.active = true;
            if (!w->conn.send(encodeShardAssign(assign))) {
                // The write failed: the reader will notice EOF and
                // recycle the cells; just put them straight back.
                for (std::size_t idx : cells)
                    pending.push_front(idx);
                continue;
            }
            ++stats.assignmentsDispatched;
            w->assignment = static_cast<std::int64_t>(a.id);
            assignments[a.id] = std::move(a);
        }
    }

    bool
    allSettledLocked() const
    {
        for (std::size_t i = 0; i < n; ++i)
            if (!res.completed[i] && !cellQuarantined[i])
                return false;
        return true;
    }

    /** Stop accepting, wave goodbye, join the readers (idempotent). */
    void
    teardown()
    {
        stopping.store(true, std::memory_order_release);
        if (acceptThread.joinable())
            acceptThread.join();
        for (auto &w : workers) {
            w->conn.sendAndShut(encodeBye());
            if (w->reader.joinable())
                w->reader.join();
        }
        listener.close();
    }

    bool
    anyActiveLocked() const
    {
        for (const auto &[id, a] : assignments)
            if (a.active)
                return true;
        return false;
    }
};

ShardCoordinator::ShardCoordinator(ShardCoordinatorOptions opt)
    : _impl(std::make_unique<Impl>())
{
    _impl->opt = std::move(opt);
}

ShardCoordinator::~ShardCoordinator()
{
    _impl->teardown();
}

Status
ShardCoordinator::bind()
{
    return _impl->listener.bind(_impl->opt.listenUnix,
                                _impl->opt.listenTcp, "coordinate");
}

int
ShardCoordinator::tcpPort() const
{
    return _impl->listener.tcpPort();
}

ShardStats
ShardCoordinator::stats() const
{
    std::lock_guard<std::mutex> g(_impl->mu);
    return _impl->stats;
}

bool
ShardCoordinator::conflictDetected() const
{
    std::lock_guard<std::mutex> g(_impl->mu);
    return _impl->conflict;
}

Result<CampaignResult>
ShardCoordinator::run(const TraceBundle &bundle,
                      const std::vector<SimJob> &jobs)
{
    Impl &im = *_impl;
    if (!im.listener.bound()) {
        Status bound = bind();
        if (!bound)
            return bound.error();
    }

    im.bundle = &bundle;
    im.jobs = &jobs;
    im.key = campaignKey(bundle, jobs);
    im.n = jobs.size();
    im.res.summaries.resize(im.n);
    im.res.completed.assign(im.n, false);
    im.cellQuarantined.assign(im.n, false);
    im.lastFail.resize(im.n);
    im.dispatchCount.assign(im.n, 0);
    im.earliest.assign(im.n, Clock::time_point{});

    im.cellIds.resize(im.n);
    for (std::size_t i = 0; i < im.n; ++i) {
        im.cellIds[i] = shardCellId(bundle, jobs[i]);
        auto [it, fresh] = im.idToIndex.emplace(im.cellIds[i], i);
        if (!fresh)
            return makeError(ErrorKind::Bounds, "cells ", it->second,
                             " and ", i,
                             " have identical content (the grid has "
                             "duplicate jobs)");
    }

    // Resume: the journal IS the recovery state. Replay it, then
    // dispatch only what is missing.
    Status opened = im.journal.open(im.opt, im.key, im.res);
    if (!opened)
        return opened.error();

    for (std::size_t i = 0; i < im.n; ++i)
        if (!im.res.completed[i])
            im.pending.push_back(i);

    im.acceptThread = std::thread([&im] { im.acceptLoop(); });

    {
        std::unique_lock<std::mutex> lk(im.mu);
        for (;;) {
            if (im.conflict)
                break;
            im.draining = shutdownRequested() > 0;
            if (im.allSettledLocked())
                break;
            if (im.draining && !im.anyActiveLocked())
                break;
            im.watchdogLocked(Clock::now());
            im.dispatchLocked();
            im.cv.wait_for(lk, std::chrono::milliseconds(50));
        }
    }

    im.teardown();

    std::lock_guard<std::mutex> g(im.mu);
    if (im.conflict)
        return im.conflictError;

    im.res.interrupted = shutdownRequested() > 0;
    for (std::size_t i = 0; i < im.n; ++i) // index order: sorted
        if (im.cellQuarantined[i] && !im.res.completed[i])
            im.res.quarantined.push_back(im.lastFail[i]);

    im.journal.finish(im.res);
    return im.res;
}

// ---- worker ---------------------------------------------------------

namespace
{

/** Injected stall length (compiled-out builds never stall). */
double
shardStallSeconds()
{
#ifdef VRC_FAULTS_ENABLED
    return faultConfig().stallSeconds;
#else
    return 0.0;
#endif
}

/** Per-assignment heartbeat pump. */
struct HeartbeatPump
{
    ServeClient &client;
    std::mutex &sendMu;
    std::uint64_t assignId;
    double period;
    std::atomic<bool> stop{false};
    std::atomic<bool> pause{false};
    std::atomic<std::uint32_t> cellsDone{0};
    std::thread th;

    HeartbeatPump(ServeClient &c, std::mutex &m, std::uint64_t id,
                  double p)
        : client(c), sendMu(m), assignId(id), period(p)
    {
        th = std::thread([this] { pump(); });
    }

    ~HeartbeatPump()
    {
        stop.store(true, std::memory_order_release);
        th.join();
    }

    void
    pump()
    {
        double slept = period; // heartbeat immediately on start
        while (!stop.load(std::memory_order_acquire)) {
            if (slept >= period) {
                slept = 0.0;
                if (!pause.load(std::memory_order_acquire)) {
                    std::lock_guard<std::mutex> g(sendMu);
                    Status sent = client.send(encodeHeartbeat(
                        HeartbeatMsg{assignId,
                                     cellsDone.load()}));
                    if (!sent)
                        return; // coordinator is gone; cell send
                                // will notice too
                }
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(20));
            slept += 0.02;
        }
    }
};

} // namespace

Result<ShardWorkerStats>
runShardWorker(const ShardWorkerOptions &opt)
{
    ServeClient client;
    if (!opt.connectUnix.empty()) {
        Status c = client.connectUnix(opt.connectUnix);
        if (!c)
            return c.error();
    } else if (opt.connectTcp >= 0) {
        Status c = client.connectTcp(opt.connectTcp);
        if (!c)
            return c.error();
    } else {
        return makeError(ErrorKind::Io,
                         "shard-worker: no coordinator address "
                         "(need --connect-unix or --connect-tcp)");
    }

    std::mutex sendMu;
    {
        std::lock_guard<std::mutex> g(sendMu);
        Status h = client.hello(opt.name);
        if (!h)
            return h.error();
    }

    ShardWorkerStats stats;

    // Workers regenerate traces locally: deterministic generation
    // means the bytes never need to cross the wire. Cache by
    // (profile, exact scale bits) across assignments.
    std::map<std::pair<std::string, std::uint64_t>, TraceBundle>
        bundles;
    auto bundleFor = [&](const std::string &profile,
                         double scale) -> const TraceBundle & {
        std::uint64_t bits;
        std::memcpy(&bits, &scale, sizeof(bits));
        auto key = std::make_pair(profile, bits);
        auto it = bundles.find(key);
        if (it == bundles.end())
            it = bundles
                     .emplace(key, generateTrace(scaled(
                                       profileByName(profile), scale)))
                     .first;
        return it->second;
    };

    for (;;) {
        Result<Frame> fr = client.readFrame(opt.idleTimeoutSeconds);
        if (!fr) {
            // EOF is the coordinator's normal teardown; an idle
            // timeout means it silently died. Either way, stop
            // cleanly -- the coordinator's books are authoritative.
            return stats;
        }
        Frame f = fr.take();
        switch (f.type) {
          case FrameType::Bye:
          case FrameType::Draining:
          case FrameType::Quarantined:
            return stats;
          case FrameType::ShardAssign:
            break;
          default:
            return makeError(ErrorKind::Format,
                             "unexpected ", frameTypeName(f.type),
                             " frame from the coordinator");
        }

        Result<ShardAssignment> ar = decodeShardAssign(f.payload);
        if (!ar)
            return ar.error();
        ShardAssignment assign = ar.take();
        ++stats.assignments;

        ShardDoneReply done;
        done.assignId = assign.assignId;

        if (!isBuiltinProfile(assign.profileName)) {
            for (const ShardCell &cell : assign.cells)
                done.failures.push_back(
                    {cell.index, ErrorKind::Bounds,
                     "unknown workload profile '" +
                         assign.profileName + "'"});
            std::lock_guard<std::mutex> g(sendMu);
            Status sent = client.send(encodeShardDone(done));
            if (!sent)
                return stats;
            continue;
        }
        const TraceBundle &bundle =
            bundleFor(assign.profileName, assign.scale);

        HeartbeatPump hb(client, sendMu, assign.assignId,
                         opt.heartbeatSeconds);
        for (const ShardCell &cell : assign.cells) {
            ShardFaultKind fault =
                maybeInjectShardFault(cell.index, cell.attempt);
            if (fault == ShardFaultKind::Crash) {
                warn("shard-worker '", opt.name,
                     "': injected crash before cell ", cell.index);
                std::_Exit(137);
            }
            if (fault == ShardFaultKind::Stall) {
                // Freeze: mute the heartbeats and sleep through the
                // coordinator's deadline, then wake and carry on --
                // the classic straggler. Our late results arrive as
                // dedup discards.
                warn("shard-worker '", opt.name,
                     "': injected stall before cell ", cell.index);
                hb.pause.store(true, std::memory_order_release);
                std::this_thread::sleep_for(
                    std::chrono::duration<double>(
                        shardStallSeconds()));
                hb.pause.store(false, std::memory_order_release);
            }
            SimSummary s;
            std::optional<Error> err = catchAsError([&] {
                s = runSimulationCancellable(bundle, cell.job,
                                             CancelToken());
            });
            if (err) {
                done.failures.push_back(
                    {cell.index, err->kind, err->message});
                ++stats.cellsFailed;
                continue;
            }
            std::string frame = encodeCellResult(CellResultReply{
                assign.assignId, cell.index,
                encodeSummaryLine(cell.index, s)});
            if (fault == ShardFaultKind::Tear) {
                warn("shard-worker '", opt.name,
                     "': injected reply tear on cell ", cell.index);
                std::lock_guard<std::mutex> g(sendMu);
                [[maybe_unused]] Status torn =
                    client.send(frame.substr(0, frame.size() / 2));
                std::_Exit(141);
            }
            {
                std::lock_guard<std::mutex> g(sendMu);
                Status sent = client.send(frame);
                if (!sent)
                    return stats;
            }
            ++done.completed;
            hb.cellsDone.fetch_add(1);
            ++stats.cellsRun;
        }
        std::lock_guard<std::mutex> g(sendMu);
        Status sent = client.send(encodeShardDone(done));
        if (!sent)
            return stats;
    }
}

} // namespace vrc
