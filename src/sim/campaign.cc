#include "sim/campaign.hh"

#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>
#include <utility>

#include "base/atomic_file.hh"
#include "base/fault.hh"
#include "base/log.hh"
#include "base/shutdown.hh"
#include "sim/json_stats.hh"
#include "sim/parallel_runner.hh"

namespace vrc
{

namespace
{

constexpr const char *journalMagicLine = "vrc-campaign-checkpoint v1";

bool
parseU64(const std::string &tok, std::uint64_t &out)
{
    char *end = nullptr;
    out = std::strtoull(tok.c_str(), &end, 10);
    return end && *end == '\0' && !tok.empty();
}

bool
parseDouble(const std::string &tok, double &out)
{
    char *end = nullptr;
    out = std::strtod(tok.c_str(), &end); // accepts hexfloat
    return end && *end == '\0' && !tok.empty();
}

/** Outcome of one cell attempt. */
struct AttemptOutcome
{
    std::optional<Error> error; ///< empty = success
    bool timedOut = false;      ///< the watchdog fired
    SimSummary summary;
};

/** Shared state between a watchdogged attempt thread and its waiter. */
struct AttemptState
{
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    AttemptOutcome out;
    CancelToken token;
};

} // namespace

std::string
encodeSummaryLine(std::size_t index, const SimSummary &s)
{
    std::ostringstream os;
    os << "cell " << index << ' '
       << static_cast<unsigned>(s.kind) << ' ' << s.l1Size << ' '
       << s.l2Size << ' ' << (s.split ? 1 : 0) << ' ' << std::hexfloat
       << s.h1 << ' ' << s.h2 << ' ' << s.h1Instr << ' ' << s.h1Read
       << ' ' << s.h1Write << ' ';
    if (s.l1MsgsPerCpu.empty()) {
        os << '-';
    } else {
        for (std::size_t i = 0; i < s.l1MsgsPerCpu.size(); ++i)
            os << (i ? "," : "") << s.l1MsgsPerCpu[i];
    }
    os << ' ' << s.inclusionInvalidations << ' ' << s.synonymHits
       << ' ' << s.synonymMoves << ' ' << s.writebackCancels << ' '
       << s.swappedWritebacks << ' ' << s.writeBufferStalls << ' '
       << s.busTransactions << ' ' << s.memoryWrites << ' ' << s.refs
       << ' ' << static_cast<unsigned>(s.timingMode) << ' '
       << std::hexfloat << s.avgAccessTime << ' ' << s.avgAccessCycles
       << ' ' << s.busUtilization << ' ' << s.avgBusWait << " end";
    return os.str();
}

Result<std::pair<std::size_t, SimSummary>>
decodeSummaryLine(const std::string &line)
{
    std::istringstream is(line);
    std::vector<std::string> tok;
    std::string t;
    while (is >> t)
        tok.push_back(t);
    if (tok.size() != 27 || tok.front() != "cell" ||
        tok.back() != "end")
        return makeError(ErrorKind::Parse,
                         "malformed checkpoint cell line");

    std::uint64_t idx, kind, l1, l2, split;
    if (!parseU64(tok[1], idx) || !parseU64(tok[2], kind) ||
        !parseU64(tok[3], l1) || !parseU64(tok[4], l2) ||
        !parseU64(tok[5], split) || kind >= kHierarchyKindCount ||
        split > 1)
        return makeError(ErrorKind::Parse,
                         "malformed checkpoint cell geometry");

    SimSummary s;
    s.kind = static_cast<HierarchyKind>(kind);
    s.l1Size = static_cast<std::uint32_t>(l1);
    s.l2Size = static_cast<std::uint32_t>(l2);
    s.split = split != 0;

    double *doubles[] = {&s.h1, &s.h2, &s.h1Instr, &s.h1Read,
                         &s.h1Write};
    for (std::size_t i = 0; i < 5; ++i)
        if (!parseDouble(tok[6 + i], *doubles[i]))
            return makeError(ErrorKind::Parse,
                             "malformed checkpoint hit ratio '",
                             tok[6 + i], "'");

    if (tok[11] != "-") {
        std::istringstream ms(tok[11]);
        std::string item;
        while (std::getline(ms, item, ',')) {
            std::uint64_t v;
            if (!parseU64(item, v))
                return makeError(ErrorKind::Parse,
                                 "malformed checkpoint message list");
            s.l1MsgsPerCpu.push_back(v);
        }
    }

    std::uint64_t *counts[] = {
        &s.inclusionInvalidations, &s.synonymHits, &s.synonymMoves,
        &s.writebackCancels, &s.swappedWritebacks,
        &s.writeBufferStalls, &s.busTransactions, &s.memoryWrites,
        &s.refs};
    for (std::size_t i = 0; i < 9; ++i)
        if (!parseU64(tok[12 + i], *counts[i]))
            return makeError(ErrorKind::Parse,
                             "malformed checkpoint counter '",
                             tok[12 + i], "'");

    std::uint64_t timing_mode;
    if (!parseU64(tok[21], timing_mode) || timing_mode > 1)
        return makeError(ErrorKind::Parse,
                         "malformed checkpoint timing mode");
    s.timingMode = static_cast<TimingMode>(timing_mode);
    double *timing_doubles[] = {&s.avgAccessTime, &s.avgAccessCycles,
                                &s.busUtilization, &s.avgBusWait};
    for (std::size_t i = 0; i < 4; ++i)
        if (!parseDouble(tok[22 + i], *timing_doubles[i]))
            return makeError(ErrorKind::Parse,
                             "malformed checkpoint timing field '",
                             tok[22 + i], "'");

    return std::make_pair(static_cast<std::size_t>(idx), s);
}

double
ResilienceOptions::backoffBefore(unsigned retry) const
{
    return std::min(backoffSeconds *
                        static_cast<double>(std::uint64_t{1}
                                            << std::min(retry, 20u)),
                    kBackoffCapSeconds);
}

std::uint64_t
hashWorkloadJobs(const TraceBundle &bundle, const SimJob *jobs,
                 std::size_t n)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto word = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i, v >>= 8)
            h = (h ^ (v & 0xFF)) * 0x100000001b3ull;
    };
    for (char c : bundle.profile.name)
        h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
    word(bundle.profile.seed);
    word(bundle.records.size());
    for (std::size_t i = 0; i < n; ++i) {
        const SimJob &j = jobs[i];
        word(static_cast<std::uint64_t>(j.kind));
        word(j.l1Size);
        word(j.l2Size);
        word(j.split ? 1 : 0);
        word(j.invariantPeriod);
        word(static_cast<std::uint64_t>(j.timingMode));
    }
    return h;
}

std::string
campaignKey(const TraceBundle &bundle, const std::vector<SimJob> &jobs)
{
    std::ostringstream os;
    os << std::hex << hashWorkloadJobs(bundle, jobs.data(), jobs.size());
    return os.str();
}

CampaignRunner::CampaignRunner(CampaignOptions opt)
    : _opt(std::move(opt))
{
}

Status
mergeJournal(std::istream &in, const std::string &context,
             JournalContents &j)
{
    std::string line, key, kw1, kw2;
    std::uint64_t cells = 0;
    if (!std::getline(in, line) || line != journalMagicLine)
        return makeErrorAt(ErrorKind::Mismatch, context, 1,
                           "not a vrc campaign checkpoint journal");
    if (!std::getline(in, line))
        return makeErrorAt(ErrorKind::Mismatch, context, 2,
                           "checkpoint journal missing its key line");
    std::istringstream ls(line);
    if (!(ls >> kw1 >> key >> kw2 >> cells) || kw1 != "key" ||
        kw2 != "cells")
        return makeErrorAt(ErrorKind::Mismatch, context, 2,
                           "malformed checkpoint key line");
    if (cells > (std::uint64_t{1} << 24))
        return makeErrorAt(ErrorKind::Bounds, context, 2,
                           "implausible checkpoint cell count ", cells);
    if (j.inputs.empty()) {
        j.key = key;
        j.cells = static_cast<std::size_t>(cells);
        j.present.assign(j.cells, false);
        j.summaries.resize(j.cells);
        j.lines.resize(j.cells);
        j.firstLine.assign(j.cells, 0);
        j.input.assign(j.cells, 0);
    } else if (key != j.key) {
        return makeErrorAt(ErrorKind::Mismatch, context, 2,
                           "journal belongs to campaign ", key, " but ",
                           j.inputs[0], " is campaign ", j.key);
    } else if (cells != j.cells) {
        return makeErrorAt(ErrorKind::Mismatch, context, 2,
                           "journal has ", cells, " cells but ",
                           j.inputs[0], " has ", j.cells);
    }
    const std::size_t me = j.inputs.size();
    j.inputs.push_back(context);
    for (std::uint64_t lineno = 3; std::getline(in, line); ++lineno) {
        if (line.empty())
            continue;
        Result<std::pair<std::size_t, SimSummary>> cell =
            decodeSummaryLine(line);
        if (!cell) {
            // Expected after a SIGKILL mid-append: the torn tail line
            // simply does not count as completed work.
            warn("ignoring corrupt checkpoint line ", lineno, " in ",
                 context, " (", cell.error().message, ")");
            ++j.torn;
            continue;
        }
        auto [idx, s] = cell.take();
        if (idx >= j.cells) {
            warn("ignoring out-of-range checkpoint cell ", idx,
                 " in ", context);
            ++j.torn;
            continue;
        }
        if (j.present[idx]) {
            if (j.lines[idx] == line) {
                ++j.duplicates;
                continue;
            }
            // Two summaries for the same cell that disagree: one of
            // them is wrong, and guessing (last-writer-wins) would
            // silently corrupt the merged table. Hard error, both
            // locations named.
            if (j.input[idx] == me)
                return makeErrorAt(
                    ErrorKind::Mismatch, context, lineno,
                    "conflicting summaries for cell ", idx,
                    " (disagrees with line ", j.firstLine[idx],
                    " of the same journal)");
            return makeErrorAt(ErrorKind::Mismatch, context, lineno,
                               "conflicting summaries for cell ", idx,
                               " (disagrees with ", j.inputs[j.input[idx]],
                               ":", j.firstLine[idx], ")");
        }
        j.present[idx] = true;
        j.summaries[idx] = s;
        j.lines[idx] = line;
        j.firstLine[idx] = lineno;
        j.input[idx] = me;
    }
    return okStatus();
}

Result<JournalContents>
tryLoadJournal(std::istream &in, const std::string &context)
{
    JournalContents j;
    Status loaded = mergeJournal(in, context, j);
    if (!loaded)
        return loaded.error();
    return j;
}

std::string
canonicalJournalText(const JournalContents &j)
{
    std::ostringstream os;
    os << journalMagicLine << "\nkey " << j.key << " cells "
       << j.cells << "\n";
    for (std::size_t i = 0; i < j.cells; ++i)
        if (j.present[i])
            os << j.lines[i] << "\n";
    return os.str();
}

Status
CheckpointJournal::open(const ResilienceOptions &opt,
                        const std::string &key, CampaignResult &res)
{
    const std::size_t n = res.completed.size();
    _path = opt.checkpoint;
    _manifest = opt.manifest;
    _book.key = key;
    _book.cells = n;
    _book.present.assign(n, false);
    _book.lines.assign(n, std::string());
    if (_path.empty())
        return okStatus();

    bool append = false;
    if (opt.resume) {
        std::ifstream in(_path);
        if (in) {
            Result<JournalContents> loaded = tryLoadJournal(in, _path);
            if (!loaded)
                return loaded.error();
            const JournalContents &j = loaded.value();
            if (j.key != key)
                return makeErrorAt(
                    ErrorKind::Mismatch, _path, 2,
                    "checkpoint belongs to a different campaign (key ",
                    j.key, ", this campaign is ", key, ")");
            if (j.cells != n)
                return makeErrorAt(
                    ErrorKind::Mismatch, _path, 2,
                    "checkpoint cell count ", j.cells,
                    " does not match this campaign (", n, " cells)");
            for (std::size_t i = 0; i < n; ++i) {
                if (!j.present[i])
                    continue;
                res.completed[i] = true;
                res.summaries[i] = j.summaries[i];
                ++res.restored;
            }
            _book = loaded.take();
            append = true;
        }
    }
    _file.open(_path, append ? std::ios::app : std::ios::trunc);
    if (!_file)
        return makeError(ErrorKind::Io,
                         "cannot open checkpoint journal for writing: ",
                         _path);
    if (!append) {
        _file << journalMagicLine << "\nkey " << key << " cells " << n
              << "\n";
        _file.flush();
    }
    return okStatus();
}

void
CheckpointJournal::append(std::size_t idx, std::string line)
{
    if (_file.is_open()) {
        _file << line << "\n";
        _file.flush();
    }
    _book.present[idx] = true;
    _book.lines[idx] = std::move(line);
}

void
CheckpointJournal::finish(const CampaignResult &res)
{
    if (_file.is_open()) {
        _file.close();
        if (!res.interrupted) {
            Status rewrote =
                writeFileAtomic(_path, canonicalJournalText(_book));
            if (!rewrote)
                warn("cannot canonicalize checkpoint journal ", _path,
                     ": ", rewrote.error().message);
        }
    }
    if (!_manifest.empty()) {
        Status wrote = writeFileAtomic(
            _manifest, failureManifestToJson(res) + "\n");
        if (!wrote)
            warn("cannot write failure manifest ", _manifest, ": ",
                 wrote.error().message);
    }
}

Result<CampaignResult>
CampaignRunner::run(std::size_t n, const std::string &key,
                    const CampaignCellFn &fn) const
{
    CampaignResult res;
    res.summaries.resize(n);
    res.completed.assign(n, false);

    CheckpointJournal journal;
    Status opened = journal.open(_opt, key, res);
    if (!opened)
        return opened.error();

    std::vector<std::size_t> pending;
    for (std::size_t i = 0; i < n; ++i)
        if (!res.completed[i])
            pending.push_back(i);

    std::mutex mu; // journal, quarantine list, stragglers
    std::vector<std::thread> stragglers;

    // One attempt of one cell, under the watchdog when configured.
    auto attempt = [&](std::size_t idx,
                       unsigned attempt_no) -> AttemptOutcome {
        // The cell body, every throw mapped onto the taxonomy.
        auto invoke = [&fn, idx, attempt_no](const CancelToken &tok) {
            AttemptOutcome out;
            out.error = catchAsError([&] {
                maybeInjectCellFault(idx, attempt_no, tok);
                out.summary = fn(idx, tok);
            });
            return out;
        };
        if (_opt.deadlineSeconds <= 0.0) {
            CancelToken token;
            return invoke(token);
        }
        auto st = std::make_shared<AttemptState>();
        std::thread th([st, invoke] {
            AttemptOutcome out = invoke(st->token);
            {
                std::lock_guard<std::mutex> g(st->mu);
                st->out = std::move(out);
                st->done = true;
            }
            st->cv.notify_all();
        });
        std::unique_lock<std::mutex> lk(st->mu);
        bool finished = st->cv.wait_for(
            lk, std::chrono::duration<double>(_opt.deadlineSeconds),
            [&] { return st->done; });
        if (finished) {
            lk.unlock();
            th.join();
            return st->out;
        }
        // Watchdog: ask the cell to stop and move on; the straggler
        // thread is joined before run() returns so it cannot outlive
        // the caller's data.
        st->token.cancel();
        lk.unlock();
        {
            std::lock_guard<std::mutex> g(mu);
            stragglers.push_back(std::move(th));
        }
        AttemptOutcome out;
        out.timedOut = true;
        out.error = makeError(ErrorKind::Timeout, "watchdog: deadline of ",
                              _opt.deadlineSeconds, " s exceeded");
        return out;
    };

    ParallelRunner pool(_opt.jobs);
    pool.forEachIndex(pending.size(), [&](std::size_t pi) {
        // Graceful interruption: after the first SIGINT/SIGTERM no
        // new cell starts; cells already replaying finish (and are
        // journaled) so a resume loses nothing.
        if (shutdownRequested() > 0)
            return;
        std::size_t idx = pending[pi];
        CellFailure fail;
        fail.index = idx;
        for (unsigned a = 0;; ++a) {
            fail.attempts = a + 1;
            AttemptOutcome out = attempt(idx, a);
            if (!out.error) {
                std::lock_guard<std::mutex> g(mu);
                res.summaries[idx] = std::move(out.summary);
                res.completed[idx] = true;
                journal.append(idx,
                               encodeSummaryLine(idx, res.summaries[idx]));
                return;
            }
            fail.timedOut = out.timedOut;
            fail.kind = out.error->kind;
            fail.error = out.error->message;
            if (a >= _opt.maxRetries)
                break;
            double backoff = _opt.backoffBefore(a);
            warn("cell ", idx, " attempt ", a + 1, " failed (",
                 fail.error, "); retrying in ", backoff, " s");
            std::this_thread::sleep_for(
                std::chrono::duration<double>(backoff));
        }
        warn("cell ", idx, " quarantined after ", fail.attempts,
             " attempt", fail.attempts == 1 ? "" : "s", ": ",
             fail.error);
        std::lock_guard<std::mutex> g(mu);
        res.quarantined.push_back(fail);
    });

    for (std::thread &t : stragglers)
        t.join();

    std::sort(res.quarantined.begin(), res.quarantined.end(),
              [](const CellFailure &a, const CellFailure &b) {
                  return a.index < b.index;
              });

    res.interrupted = shutdownRequested() > 0;

    journal.finish(res);
    return res;
}

Result<CampaignResult>
runSimulationCampaign(const TraceBundle &bundle,
                      const std::vector<SimJob> &jobs,
                      const CampaignOptions &opt)
{
    CampaignRunner runner(opt);
    return runner.run(
        jobs.size(), campaignKey(bundle, jobs),
        [&](std::size_t i, const CancelToken &token) {
            return runSimulationCancellable(bundle, jobs[i], token);
        });
}

namespace
{

/** The quarantine list as a JSON array; the manifest adds each kind. */
void
quarantineJson(std::ostream &os, const CampaignResult &r, bool kinds)
{
    os << '[';
    for (std::size_t i = 0; i < r.quarantined.size(); ++i) {
        const CellFailure &f = r.quarantined[i];
        os << (i ? "," : "") << "{\"cell\":" << f.index
           << ",\"attempts\":" << f.attempts << ",\"timed_out\":"
           << (f.timedOut ? "true" : "false");
        if (kinds)
            os << ",\"kind\":\"" << errorKindName(f.kind) << '"';
        os << ",\"error\":\"" << jsonEscapeText(f.error) << "\"}";
    }
    os << ']';
}

} // namespace

std::string
failureManifestToJson(const CampaignResult &r)
{
    std::ostringstream os;
    os << "{\"cells\":" << r.completed.size()
       << ",\"completed\":" << r.completedCells()
       << ",\"interrupted\":" << (r.interrupted ? "true" : "false")
       << ",\"quarantined\":";
    quarantineJson(os, r, true);
    os << "}";
    return os.str();
}

std::string
campaignResultToJson(const CampaignResult &r)
{
    std::ostringstream os;
    os << "{\"cells\":" << r.completed.size()
       << ",\"completed\":" << r.completedCells()
       << ",\"results\":[";
    bool first = true;
    for (std::size_t i = 0; i < r.completed.size(); ++i) {
        if (!r.completed[i])
            continue;
        if (!first)
            os << ",";
        first = false;
        os << "{\"cell\":" << i
           << ",\"summary\":" << toJson(r.summaries[i]) << "}";
    }
    os << "],\"quarantined\":";
    quarantineJson(os, r, false);
    os << "}";
    return os.str();
}

} // namespace vrc
