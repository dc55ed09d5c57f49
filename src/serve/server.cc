#include "serve/server.hh"

#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>
#include <sstream>
#include <thread>

#include "base/atomic_file.hh"
#include "base/fault.hh"
#include "base/log.hh"
#include "base/shutdown.hh"
#include "serve/conn.hh"
#include "serve/wire.hh"
#include "sim/campaign.hh"
#include "sim/json_stats.hh"
#include "trace/workload.hh"

namespace vrc
{

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t)
{
    return std::chrono::duration<double>(Clock::now() - t).count();
}

} // namespace

/** One connected client. */
struct Session
{
    Session(int fd, std::size_t maxFrameBytes) : conn(fd, maxFrameBytes) {}

    std::uint64_t id = 0;
    Connection conn;
    std::atomic<SessionState> state{SessionState::AwaitHello};
    std::string client; ///< HELLO name; reader thread writes it once
                        ///< before flipping state to Ready

    std::atomic<std::size_t> inflight{0};
    std::atomic<std::uint64_t> txSeq{0};
    std::atomic<bool> readerDone{false};
    std::thread reader;

    bool
    alive() const
    {
        SessionState s = state.load(std::memory_order_acquire);
        return s == SessionState::AwaitHello ||
               s == SessionState::Ready;
    }
};

/** One admitted segment waiting for (or on) a worker. */
struct Work
{
    std::shared_ptr<Session> session;
    SubmitRequest submit;
    WorkloadProfile profile; ///< resolved and scaled at admission
};

struct ServeServer::Impl
{
    explicit Impl(ServeOptions o)
        : opt(std::move(o)), book(opt.quarantineThreshold, "client")
    {
    }

    ServeOptions opt;
    StrikeBook book; ///< poisoned sessions per client name

    Listener listener;
    int drainPipe[2] = {-1, -1};
    int signalWakeFd = -1;

    std::thread acceptThread;
    std::vector<std::thread> workers;

    // Admission queue. `draining` flips under qMu so an admission
    // that saw it false has its push ordered before the workers'
    // final drain of the queue.
    std::mutex qMu;
    std::condition_variable qCv;
    std::deque<Work> queue;
    bool draining = false;

    std::mutex sessMu;
    std::vector<std::shared_ptr<Session>> sessions;
    std::uint64_t nextSessionId = 1;

    mutable std::mutex statsMu;
    ServiceStats st;
    std::uint64_t sessionsReaped = 0;

    std::atomic<bool> started{false};

    // ---- session write side ----------------------------------------

    /**
     * Send one frame, applying an injected service fault when armed:
     * the reply is torn in half, or sent whole before the connection
     * drops. Returns false when the session is gone (or was just cut).
     */
    bool
    sendFrame(Session &s, const std::string &frame,
              ServeFault fault = ServeFault::None)
    {
        if (fault == ServeFault::None) {
            if (s.conn.send(frame))
                return true;
        } else {
            bool tear = fault == ServeFault::Tear;
            if (s.conn.sendAndShut(frame, tear ? frame.size() / 2
                                               : frame.size())) {
                warn("serve: fault injection ",
                     tear ? "tearing a frame on" : "dropping",
                     " session ", s.id);
                bumpStat(tear ? &ServiceStats::responsesTorn
                              : &ServiceStats::responsesDropped);
            }
        }
        closeSession(s);
        return false;
    }

    void
    bumpStat(std::uint64_t ServiceStats::*field)
    {
        std::lock_guard<std::mutex> g(statsMu);
        ++(st.*field);
    }

    /**
     * Poison a session: count the offense toward its client's
     * quarantine budget, then best-effort error frame and cut the
     * socket. The strike must land before the shutdown: a client that
     * observes EOF and reconnects immediately has to see its updated
     * count at the next HELLO.
     */
    void
    poison(Session &s, const Error &err)
    {
        warn("serve: poisoning session ", s.id,
             s.client.empty() ? "" : (" (" + s.client + ")"), ": ",
             err.describe());
        bumpStat(&ServiceStats::sessionsPoisoned);
        book.strike(s.client);
        s.conn.sendAndShut(encodeErrorReply(
            FrameType::Error, ErrorReply{0, err.kind, err.message}));
        s.state.store(SessionState::Poisoned,
                      std::memory_order_release);
    }

    /** Close a session cleanly (BYE handled, EOF, drain teardown). */
    void
    closeSession(Session &s)
    {
        s.conn.shutdown();
        if (s.alive())
            s.state.store(SessionState::Closed,
                          std::memory_order_release);
    }

    // ---- session read side (one thread per connection) -------------

    void
    readerLoop(std::shared_ptr<Session> sp)
    {
        Session &s = *sp;
        const Clock::time_point never = Clock::time_point{};
        Clock::time_point frame_started = never;
        Connection::ReadEnd end = s.conn.readFrames(
            [&s] { return s.alive(); },
            [&](Frame f) {
                handleFrame(sp, std::move(f));
                return s.alive();
            },
            [&] {
                // Slowloris guillotine: a frame must complete within
                // readTimeoutSeconds of its first byte. Completed
                // frames reset the clock; an idle connection (no
                // partial frame) is fine indefinitely.
                if (s.conn.pendingBytes() == 0)
                    frame_started = never;
                else if (frame_started == never)
                    frame_started = Clock::now();
                else if (secondsSince(frame_started) >
                         opt.readTimeoutSeconds)
                    poison(s, makeError(ErrorKind::Timeout,
                                        "frame stalled for more than ",
                                        opt.readTimeoutSeconds,
                                        " s (slowloris?)"));
            });
        if (end == Connection::ReadEnd::Broken)
            poison(s, s.conn.frameError());
        else if (end == Connection::ReadEnd::Eof)
            closeSession(s);
        s.readerDone.store(true, std::memory_order_release);
    }

    void
    handleFrame(const std::shared_ptr<Session> &sp, Frame f)
    {
        Session &s = *sp;
        if (f.type == FrameType::Bye) {
            closeSession(s);
            return;
        }
        switch (s.state.load(std::memory_order_acquire)) {
          case SessionState::AwaitHello:
            if (f.type != FrameType::Hello) {
                poison(s, makeError(ErrorKind::Format,
                                    frameTypeName(f.type),
                                    " frame before hello"));
                return;
            }
            handleHello(s, f.payload);
            return;
          case SessionState::Ready:
            if (f.type == FrameType::Submit) {
                handleSubmit(sp, f.payload);
                return;
            }
            poison(s, makeError(ErrorKind::Format,
                                "unexpected ", frameTypeName(f.type),
                                " frame from a client"));
            return;
          case SessionState::Poisoned:
          case SessionState::Closed:
            return;
        }
    }

    void
    handleHello(Session &s, const std::string &payload)
    {
        Result<HelloRequest> h = decodeHello(payload);
        if (!h) {
            poison(s, h.error());
            return;
        }
        HelloRequest req = h.take();
        if (book.quarantined(req.client)) {
            bumpStat(&ServiceStats::hellosRejected);
            sendFrame(s, book.refusal(req.client));
            closeSession(s);
            return;
        }
        s.client = req.client;
        s.state.store(SessionState::Ready,
                      std::memory_order_release);
    }

    void
    handleSubmit(const std::shared_ptr<Session> &sp,
                 const std::string &payload)
    {
        Session &s = *sp;
        Result<SubmitRequest> sub = decodeSubmit(payload);
        if (!sub) {
            // A frame whose body does not parse is hostile or
            // corrupt either way -- the stream cannot be trusted.
            poison(s, sub.error());
            return;
        }
        SubmitRequest req = sub.take();
        auto refuse = [&](FrameType t, ErrorKind kind,
                          const std::string &msg) {
            sendFrame(s, encodeErrorReply(
                t, ErrorReply{req.segmentId, kind, msg}));
        };

        // Well-formed but wrong content: reject the segment, keep
        // the session (an honest client with a bad request).
        if (!isBuiltinProfile(req.profileName)) {
            refuse(FrameType::Error, ErrorKind::Bounds,
                   "unknown workload profile '" + req.profileName +
                       "'");
            return;
        }
        WorkloadProfile profile =
            scaled(profileByName(req.profileName), req.scale);
        for (const TraceRecord &r : req.records) {
            if (r.cpu >= profile.numCpus) {
                refuse(FrameType::Error, ErrorKind::Bounds,
                       "record cpu out of range for profile");
                return;
            }
        }

        // Admission control, under the queue lock so a drain or a
        // full queue cannot race past the bound.
        {
            std::unique_lock<std::mutex> lk(qMu);
            if (draining) {
                lk.unlock();
                refuse(FrameType::Draining, ErrorKind::Cancelled,
                       "server is draining; no new segments");
                bumpStat(&ServiceStats::segmentsDrained);
                return;
            }
            if (s.inflight.load(std::memory_order_relaxed) >=
                opt.perClientCap) {
                lk.unlock();
                refuse(FrameType::Shed, ErrorKind::Bounds,
                       "per-client in-flight cap reached; resubmit "
                       "later");
                bumpStat(&ServiceStats::segmentsShed);
                return;
            }
            if (queue.size() >= opt.queueCap) {
                lk.unlock();
                refuse(FrameType::Shed, ErrorKind::Bounds,
                       "server admission queue full; resubmit later");
                bumpStat(&ServiceStats::segmentsShed);
                return;
            }
            s.inflight.fetch_add(1, std::memory_order_relaxed);
            queue.push_back(
                Work{sp, std::move(req), std::move(profile)});
        }
        qCv.notify_one();
    }

    // ---- workers ---------------------------------------------------

    void
    workerLoop()
    {
        for (;;) {
            Work w;
            {
                std::unique_lock<std::mutex> lk(qMu);
                qCv.wait(lk, [&] {
                    return !queue.empty() || draining;
                });
                if (queue.empty())
                    return; // draining and nothing left
                w = std::move(queue.front());
                queue.pop_front();
            }
            runSegment(w);
            w.session->inflight.fetch_sub(
                1, std::memory_order_relaxed);
        }
    }

    void
    runSegment(Work &w)
    {
        Session &s = *w.session;
        const SubmitRequest &req = w.submit;
        if (opt.beforeSegment)
            opt.beforeSegment(req.segmentId);

        SimSummary summary;
        std::optional<Error> err;
        for (unsigned attempt = 0;; ++attempt) {
            if (s.state.load(std::memory_order_acquire) !=
                SessionState::Ready) {
                err = makeError(ErrorKind::Cancelled, "session closed");
                break;
            }
            err = catchAsError([&] {
                CancelToken token;
                maybeInjectCellFault(
                    static_cast<std::size_t>(req.segmentId), attempt,
                    token);
                // The deadline clock starts once the machine is built.
                Clock::time_point start;
                summary = replaySimulation(
                    w.profile, req.job, req.records.data(),
                    req.records.size(), [&](std::size_t done) {
                        if (done == 0)
                            start = Clock::now();
                        else if (opt.segmentDeadline > 0.0 &&
                                 secondsSince(start) >
                                     opt.segmentDeadline)
                            throw ErrorException(makeError(
                                ErrorKind::Timeout,
                                "segment deadline of ",
                                opt.segmentDeadline, " s exceeded"));
                        if (!s.alive())
                            throw ErrorException(makeError(
                                ErrorKind::Cancelled,
                                "client went away mid-segment"));
                    });
            });
            // No retry for a gone client (Cancelled), a deadline that
            // would expire again, or a simulated machine check, which
            // is deterministic for the segment.
            if (!err || err->kind == ErrorKind::Cancelled ||
                err->kind == ErrorKind::Timeout ||
                err->kind == ErrorKind::Unrecoverable ||
                attempt >= opt.maxRetries)
                break;
        }

        if (!err) {
            // Index 0 keeps the line byte-comparable with batch
            // vrc-sim --summary output; the frame carries the id.
            ResultReply r{req.segmentId,
                          encodeSummaryLine(0, summary)};
            ServeFault fault = maybeInjectServeFault(
                s.id,
                s.txSeq.fetch_add(1, std::memory_order_relaxed) + 1);
            sendFrame(s, encodeResult(r), fault);
            bumpStat(&ServiceStats::segmentsCompleted);
            return;
        }
        if (err->kind == ErrorKind::Cancelled) {
            bumpStat(&ServiceStats::segmentsAbandoned);
            return;
        }
        sendFrame(s, encodeErrorReply(
            FrameType::Error,
            ErrorReply{req.segmentId, err->kind, err->message}));
        bumpStat(&ServiceStats::segmentsFailed);
        if (err->kind == ErrorKind::Timeout)
            bumpStat(&ServiceStats::segmentsTimedOut);
    }

    // ---- accept / drain --------------------------------------------

    void
    acceptLoop()
    {
        auto adopt = [this](int fd) {
            auto s = std::make_shared<Session>(fd, opt.maxFrameBytes);
            {
                std::lock_guard<std::mutex> g(sessMu);
                s->id = nextSessionId++;
                sessions.push_back(s);
            }
            bumpStat(&ServiceStats::sessionsAccepted);
            s->reader = std::thread([this, s] { readerLoop(s); });
        };
        while (listener.accept(200, adopt, {drainPipe[0], signalWakeFd}) &&
               shutdownRequested() == 0 && !drainFlagged())
            reapDeadSessions();
        beginDrain();
        listener.close();
    }

    bool
    drainFlagged()
    {
        std::lock_guard<std::mutex> g(qMu);
        return draining;
    }

    /**
     * Join and forget sessions whose reader has exited and whose
     * segments have all completed: a long-running server must not
     * grow a thread/fd per client that ever connected.
     */
    void
    reapDeadSessions()
    {
        std::vector<std::shared_ptr<Session>> dead;
        {
            std::lock_guard<std::mutex> g(sessMu);
            for (auto it = sessions.begin();
                 it != sessions.end();) {
                Session &s = **it;
                if (!s.alive() &&
                    s.readerDone.load(std::memory_order_acquire) &&
                    s.inflight.load(std::memory_order_relaxed) ==
                        0) {
                    dead.push_back(std::move(*it));
                    it = sessions.erase(it);
                } else {
                    ++it;
                }
            }
        }
        for (auto &s : dead) {
            if (s->reader.joinable())
                s->reader.join();
            std::lock_guard<std::mutex> g(statsMu);
            ++sessionsReaped;
        }
    }

    void
    beginDrain()
    {
        {
            std::lock_guard<std::mutex> g(qMu);
            draining = true;
        }
        qCv.notify_all();
    }
};

ServeServer::ServeServer(ServeOptions opt)
    : _impl(std::make_unique<Impl>(std::move(opt)))
{
}

ServeServer::~ServeServer()
{
    if (_impl->started.load()) {
        requestDrain();
        waitUntilDrained();
    }
    if (_impl->drainPipe[0] >= 0)
        ::close(_impl->drainPipe[0]);
    if (_impl->drainPipe[1] >= 0)
        ::close(_impl->drainPipe[1]);
}

Status
ServeServer::start()
{
    Impl &im = *_impl;
    if (im.started.load())
        return makeError(ErrorKind::Io, "server already started");
    if (::pipe(im.drainPipe) != 0)
        return makeError(ErrorKind::Io, "pipe: ",
                         std::strerror(errno));
    im.signalWakeFd = installShutdownHandlers();
    Status bound =
        im.listener.bind(im.opt.unixPath, im.opt.tcpPort, "serve");
    if (!bound)
        return bound;
    unsigned workers = im.opt.workers ? im.opt.workers : 2;
    for (unsigned i = 0; i < workers; ++i)
        im.workers.emplace_back([&im] { im.workerLoop(); });
    im.acceptThread = std::thread([&im] { im.acceptLoop(); });
    im.started.store(true);
    return okStatus();
}

int
ServeServer::waitUntilDrained()
{
    Impl &im = *_impl;
    if (!im.started.load())
        return 2;
    if (im.acceptThread.joinable())
        im.acceptThread.join();
    // Workers exit once the queue is empty under drain; everything
    // admitted before the drain completes first.
    im.qCv.notify_all();
    for (std::thread &w : im.workers)
        if (w.joinable())
            w.join();
    im.workers.clear();

    // Say goodbye, cut the sockets, and join every reader.
    std::vector<std::shared_ptr<Session>> all;
    {
        std::lock_guard<std::mutex> g(im.sessMu);
        all = im.sessions;
        im.sessions.clear();
    }
    std::string bye = encodeBye();
    for (auto &s : all) {
        im.sendFrame(*s, bye);
        im.closeSession(*s);
    }
    for (auto &s : all)
        if (s->reader.joinable())
            s->reader.join();
    im.started.store(false);

    int sig = shutdownSignal();
    if (!im.opt.manifest.empty()) {
        Status wrote = writeFileAtomic(
            im.opt.manifest,
            manifestJson(true, sig) + "\n");
        if (!wrote)
            warn("serve: ", wrote.error().describe());
    }
    return shutdownRequested() > 0 ? kExitInterrupted : 0;
}

void
ServeServer::requestDrain()
{
    Impl &im = *_impl;
    im.beginDrain();
    if (im.drainPipe[1] >= 0) {
        // Best-effort wake, but don't let a signal eat it: a dropped
        // byte would stall the drain until the next poll timeout.
        char b = 1;
        ssize_t r;
        do {
            r = ::write(im.drainPipe[1], &b, 1);
        } while (r < 0 && errno == EINTR);
    }
}

int
ServeServer::tcpPort() const
{
    return _impl->listener.tcpPort();
}

ServiceStats
ServeServer::stats() const
{
    Impl &im = *_impl;
    std::lock_guard<std::mutex> g(im.statsMu);
    ServiceStats s = im.st;
    s.quarantinedClients = im.book.quarantinedNames();
    return s;
}

std::string
ServeServer::manifestJson(bool drained, int signal) const
{
    Impl &im = *_impl;
    std::size_t open_sessions;
    {
        std::lock_guard<std::mutex> g(im.sessMu);
        open_sessions = im.sessions.size();
    }
    ServiceStats s = stats();
    std::uint64_t reaped;
    {
        std::lock_guard<std::mutex> g(im.statsMu);
        reaped = im.sessionsReaped;
    }
    std::ostringstream os;
    os << "{\"service\":\"vrc-sim --serve\",\"drained\":"
       << (drained ? "true" : "false")
       << ",\"interrupted_signal\":" << signal << ",\"sessions\":{"
       << "\"accepted\":" << s.sessionsAccepted
       << ",\"poisoned\":" << s.sessionsPoisoned
       << ",\"hellos_rejected\":" << s.hellosRejected
       << ",\"reaped\":" << reaped
       << ",\"open_at_drain\":" << open_sessions
       << "},\"segments\":{"
       << "\"completed\":" << s.segmentsCompleted
       << ",\"failed\":" << s.segmentsFailed
       << ",\"shed\":" << s.segmentsShed
       << ",\"drained\":" << s.segmentsDrained
       << ",\"timed_out\":" << s.segmentsTimedOut
       << ",\"abandoned\":" << s.segmentsAbandoned
       << "},\"faults\":{"
       << "\"responses_dropped\":" << s.responsesDropped
       << ",\"responses_torn\":" << s.responsesTorn
       << "},\"quarantined_clients\":[";
    for (std::size_t i = 0; i < s.quarantinedClients.size(); ++i)
        os << (i ? "," : "") << '"'
           << jsonEscapeText(s.quarantinedClients[i]) << '"';
    os << "]}";
    return os.str();
}

} // namespace vrc
