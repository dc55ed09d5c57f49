/**
 * @file
 * ServeServer tests: an in-process server on a unix socket in the
 * test temp dir, driven through the real ServeClient. Covers batch
 * byte-equality, session poisoning isolation, backpressure shedding,
 * per-segment deadlines, graceful drain, and client quarantine.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "serve/client.hh"
#include "serve/server.hh"
#include "serve/wire.hh"
#include "sim/campaign.hh"
#include "sim/experiment.hh"
#include "trace/generator.hh"
#include "trace/workload.hh"

namespace vrc
{
namespace
{

/** RAII socket path in the test temp dir. */
struct TempSock
{
    std::string path;

    explicit TempSock(const std::string &name)
        : path(std::string(::testing::TempDir()) + name)
    {
        std::remove(path.c_str());
    }

    ~TempSock() { std::remove(path.c_str()); }
};

/** Small shared workload for every test in this file. */
const TraceBundle &
bundle()
{
    static TraceBundle b =
        generateTrace(scaled(profileByName("pops"), 0.002));
    return b;
}

SimJob
job()
{
    return SimJob{HierarchyKind::VirtualReal, 16 * 1024, 256 * 1024,
                  false, 0, TimingMode::Analytic};
}

SubmitRequest
submitFor(std::uint64_t seg, std::size_t lo, std::size_t hi)
{
    SubmitRequest req;
    req.segmentId = seg;
    req.job = job();
    req.profileName = "pops";
    req.scale = 0.002;
    req.records.assign(bundle().records.begin() + lo,
                       bundle().records.begin() + hi);
    return req;
}

/** Connect + HELLO or fail the test. */
void
attach(ServeClient &c, const std::string &sock,
       const std::string &name)
{
    Status conn = c.connectUnix(sock);
    ASSERT_TRUE(conn.ok()) << conn.error().describe();
    Status hi = c.hello(name);
    ASSERT_TRUE(hi.ok()) << hi.error().describe();
}

TEST(ServeTest, ResultIsByteIdenticalToBatchMode)
{
    TempSock sock("serve_eq.sock");
    ServeOptions opt;
    opt.unixPath = sock.path;
    opt.workers = 2;
    ServeServer server(opt);
    ASSERT_TRUE(server.start().ok());

    ServeClient c;
    attach(c, sock.path, "eq-client");
    std::size_t n = bundle().records.size();
    ASSERT_TRUE(c.submit(submitFor(7, 0, n / 2)).ok());
    auto fr = c.readFrame(60.0);
    ASSERT_TRUE(fr.ok()) << fr.error().describe();
    ASSERT_EQ(fr.value().type, FrameType::Result);
    auto r = decodeResult(fr.value().payload);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().segmentId, 7u);

    // Ground truth: the batch code path on the same records.
    TraceBundle seg;
    seg.profile = bundle().profile;
    seg.records.assign(bundle().records.begin(),
                       bundle().records.begin() + n / 2);
    std::string expected =
        encodeSummaryLine(0, runSimulationJob(seg, job()));
    EXPECT_EQ(r.value().summaryLine, expected);

    server.requestDrain();
    EXPECT_EQ(server.waitUntilDrained(), 0);
    ServiceStats st = server.stats();
    EXPECT_EQ(st.segmentsCompleted, 1u);
    EXPECT_EQ(st.segmentsFailed, 0u);
}

TEST(ServeTest, MalformedFramePoisonsOnlyThatSession)
{
    TempSock sock("serve_poison.sock");
    ServeOptions opt;
    opt.unixPath = sock.path;
    ServeServer server(opt);
    ASSERT_TRUE(server.start().ok());

    ServeClient good, evil;
    attach(good, sock.path, "good");
    attach(evil, sock.path, "evil");

    // The hostile session gets an error frame and the boot.
    ASSERT_TRUE(evil.send("not a frame at all............").ok());
    auto err = evil.readFrame(10.0);
    ASSERT_TRUE(err.ok()) << err.error().describe();
    EXPECT_EQ(err.value().type, FrameType::Error);
    auto eof = evil.readFrame(10.0);
    EXPECT_FALSE(eof.ok()); // connection cut

    // The healthy session keeps working, completely unaffected.
    ASSERT_TRUE(good.submit(submitFor(1, 0, 512)).ok());
    auto fr = good.readFrame(60.0);
    ASSERT_TRUE(fr.ok()) << fr.error().describe();
    EXPECT_EQ(fr.value().type, FrameType::Result);

    server.requestDrain();
    EXPECT_EQ(server.waitUntilDrained(), 0);
    EXPECT_EQ(server.stats().sessionsPoisoned, 1u);
}

TEST(ServeTest, WellFormedBadContentKeepsSessionAlive)
{
    TempSock sock("serve_badreq.sock");
    ServeOptions opt;
    opt.unixPath = sock.path;
    ServeServer server(opt);
    ASSERT_TRUE(server.start().ok());

    ServeClient c;
    attach(c, sock.path, "picky");
    SubmitRequest bad = submitFor(5, 0, 64);
    bad.profileName = "nosuchprofile";
    ASSERT_TRUE(c.submit(bad).ok());
    auto err = c.readFrame(10.0);
    ASSERT_TRUE(err.ok()) << err.error().describe();
    ASSERT_EQ(err.value().type, FrameType::Error);
    auto e = decodeErrorReply(err.value().payload);
    ASSERT_TRUE(e.ok());
    EXPECT_EQ(e.value().segmentId, 5u);
    EXPECT_EQ(e.value().kind, ErrorKind::Bounds);

    // Same connection, valid request: still served.
    ASSERT_TRUE(c.submit(submitFor(6, 0, 256)).ok());
    auto fr = c.readFrame(60.0);
    ASSERT_TRUE(fr.ok()) << fr.error().describe();
    EXPECT_EQ(fr.value().type, FrameType::Result);

    server.requestDrain();
    EXPECT_EQ(server.waitUntilDrained(), 0);
    EXPECT_EQ(server.stats().sessionsPoisoned, 0u);
}

/** Holds every segment in its worker until opened. */
class SegmentGate
{
  public:
    void
    pass()
    {
        std::unique_lock<std::mutex> lk(_mu);
        _cv.wait(lk, [this] { return _open; });
    }

    void
    open()
    {
        {
            std::lock_guard<std::mutex> g(_mu);
            _open = true;
        }
        _cv.notify_all();
    }

  private:
    std::mutex _mu;
    std::condition_variable _cv;
    bool _open = false;
};

TEST(ServeTest, PerClientCapShedsExcessSubmits)
{
    TempSock sock("serve_shed.sock");
    auto gate = std::make_shared<SegmentGate>();
    ServeOptions opt;
    opt.unixPath = sock.path;
    opt.workers = 1;
    opt.perClientCap = 1;
    opt.beforeSegment = [gate](std::uint64_t) { gate->pass(); };
    ServeServer server(opt);
    ASSERT_TRUE(server.start().ok());
    // Declared after the server, so destroyed first: the gate opens
    // before the server drains, even when an assertion fails.
    struct Opener
    {
        std::shared_ptr<SegmentGate> gate;
        ~Opener() { gate->open(); }
    } opener{gate};

    ServeClient c;
    attach(c, sock.path, "greedy");
    // The first submit is admitted and held in the worker by the
    // gate, so the second arrives while it is in flight and must be
    // SHED; only then does the first finish.
    std::size_t n = bundle().records.size();
    ASSERT_TRUE(c.submit(submitFor(1, 0, n)).ok());
    ASSERT_TRUE(c.submit(submitFor(2, 0, n)).ok());

    auto shed = c.readFrame(10.0);
    ASSERT_TRUE(shed.ok()) << shed.error().describe();
    ASSERT_EQ(shed.value().type, FrameType::Shed);
    auto e = decodeErrorReply(shed.value().payload);
    ASSERT_TRUE(e.ok());
    EXPECT_EQ(e.value().segmentId, 2u);

    gate->open();
    auto fr = c.readFrame(60.0);
    ASSERT_TRUE(fr.ok()) << fr.error().describe();
    ASSERT_EQ(fr.value().type, FrameType::Result);
    auto r = decodeResult(fr.value().payload);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().segmentId, 1u);

    server.requestDrain();
    EXPECT_EQ(server.waitUntilDrained(), 0);
    EXPECT_EQ(server.stats().segmentsShed, 1u);
    EXPECT_EQ(server.stats().segmentsCompleted, 1u);
}

TEST(ServeTest, SegmentDeadlineTimesOut)
{
    TempSock sock("serve_deadline.sock");
    ServeOptions opt;
    opt.unixPath = sock.path;
    opt.segmentDeadline = 1e-9; // everything is too slow
    ServeServer server(opt);
    ASSERT_TRUE(server.start().ok());

    ServeClient c;
    attach(c, sock.path, "slow-segment");
    ASSERT_TRUE(c.submit(submitFor(1, 0, 4096)).ok());
    auto fr = c.readFrame(60.0);
    ASSERT_TRUE(fr.ok()) << fr.error().describe();
    ASSERT_EQ(fr.value().type, FrameType::Error);
    auto e = decodeErrorReply(fr.value().payload);
    ASSERT_TRUE(e.ok());
    EXPECT_EQ(e.value().kind, ErrorKind::Timeout);

    server.requestDrain();
    EXPECT_EQ(server.waitUntilDrained(), 0);
    EXPECT_EQ(server.stats().segmentsTimedOut, 1u);
}

TEST(ServeTest, DrainRefusesNewWorkAndFinishesInFlight)
{
    TempSock sock("serve_drain.sock");
    ServeOptions opt;
    opt.unixPath = sock.path;
    ServeServer server(opt);
    ASSERT_TRUE(server.start().ok());

    ServeClient c;
    attach(c, sock.path, "drain-client");
    // A full round trip first: the session is accepted and Ready
    // before the drain starts, so the rest is deterministic.
    ASSERT_TRUE(c.submit(submitFor(1, 0, 2048)).ok());
    auto first = c.readFrame(60.0);
    ASSERT_TRUE(first.ok()) << first.error().describe();
    ASSERT_EQ(first.value().type, FrameType::Result);

    server.requestDrain();
    // Submitted after the drain: must be refused, not queued.
    ASSERT_TRUE(c.submit(submitFor(2, 0, 2048)).ok());
    auto fr = c.readFrame(60.0);
    ASSERT_TRUE(fr.ok()) << fr.error().describe();
    ASSERT_EQ(fr.value().type, FrameType::Draining);
    auto e = decodeErrorReply(fr.value().payload);
    ASSERT_TRUE(e.ok());
    EXPECT_EQ(e.value().segmentId, 2u);

    EXPECT_EQ(server.waitUntilDrained(), 0);
    ServiceStats st = server.stats();
    EXPECT_EQ(st.segmentsCompleted, 1u);
    EXPECT_EQ(st.segmentsDrained, 1u);
}

TEST(ServeTest, RepeatOffendersAreQuarantinedByName)
{
    TempSock sock("serve_quarantine.sock");
    ServeOptions opt;
    opt.unixPath = sock.path;
    opt.quarantineThreshold = 2;
    ServeServer server(opt);
    ASSERT_TRUE(server.start().ok());

    for (int round = 0; round < 2; ++round) {
        ServeClient evil;
        attach(evil, sock.path, "repeat-offender");
        ASSERT_TRUE(evil.send("garbage garbage garbage").ok());
        while (evil.readFrame(10.0).ok()) {
        }
    }
    // Third connection: refused at HELLO.
    ServeClient evil;
    attach(evil, sock.path, "repeat-offender");
    auto fr = evil.readFrame(10.0);
    ASSERT_TRUE(fr.ok()) << fr.error().describe();
    EXPECT_EQ(fr.value().type, FrameType::Quarantined);

    // A different name is still welcome.
    ServeClient good;
    attach(good, sock.path, "honest");
    ASSERT_TRUE(good.submit(submitFor(1, 0, 256)).ok());
    auto ok = good.readFrame(60.0);
    ASSERT_TRUE(ok.ok()) << ok.error().describe();
    EXPECT_EQ(ok.value().type, FrameType::Result);

    server.requestDrain();
    EXPECT_EQ(server.waitUntilDrained(), 0);
    ServiceStats st = server.stats();
    ASSERT_EQ(st.quarantinedClients.size(), 1u);
    EXPECT_EQ(st.quarantinedClients[0], "repeat-offender");
    EXPECT_GE(st.hellosRejected, 1u);
}

TEST(ServeTest, SlowlorisSessionIsCutOff)
{
    TempSock sock("serve_slow.sock");
    ServeOptions opt;
    opt.unixPath = sock.path;
    opt.readTimeoutSeconds = 0.3;
    ServeServer server(opt);
    ASSERT_TRUE(server.start().ok());

    ServeClient c;
    attach(c, sock.path, "dribbler");
    // Give the reader a beat to consume the HELLO, then stall a
    // frame: three header bytes and silence.
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    std::string frame = encodeSubmit(submitFor(1, 0, 64));
    ASSERT_TRUE(c.send(frame.substr(0, 3)).ok());
    // Expect the Timeout error frame, then EOF, well within 5 s.
    auto fr = c.readFrame(5.0);
    ASSERT_TRUE(fr.ok()) << fr.error().describe();
    ASSERT_EQ(fr.value().type, FrameType::Error);
    auto e = decodeErrorReply(fr.value().payload);
    ASSERT_TRUE(e.ok());
    EXPECT_EQ(e.value().kind, ErrorKind::Timeout);

    server.requestDrain();
    EXPECT_EQ(server.waitUntilDrained(), 0);
    EXPECT_EQ(server.stats().sessionsPoisoned, 1u);
}

TEST(ServeTest, ManifestJsonCarriesTheCounters)
{
    TempSock sock("serve_manifest.sock");
    ServeOptions opt;
    opt.unixPath = sock.path;
    ServeServer server(opt);
    ASSERT_TRUE(server.start().ok());
    ServeClient c;
    attach(c, sock.path, "m");
    ASSERT_TRUE(c.submit(submitFor(1, 0, 128)).ok());
    ASSERT_TRUE(c.readFrame(60.0).ok());
    server.requestDrain();
    EXPECT_EQ(server.waitUntilDrained(), 0);

    std::string m = server.manifestJson(true, 0);
    EXPECT_NE(m.find("\"drained\":true"), std::string::npos);
    EXPECT_NE(m.find("\"completed\":1"), std::string::npos);
    EXPECT_NE(m.find("\"quarantined_clients\":[]"),
              std::string::npos);
}

} // namespace
} // namespace vrc
