/**
 * @file
 * The socket and peer plumbing shared by the service and the shard
 * coordinator: Listener, Connection and StrikeBook.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "serve/client.hh"
#include "serve/conn.hh"
#include "serve/wire.hh"

namespace vrc
{
namespace
{

TEST(ConnStrikeBook, QuarantinesAtTheThresholdOnce)
{
    StrikeBook book(2, "client");
    EXPECT_FALSE(book.strike("")); // no HELLO yet: never struck
    EXPECT_FALSE(book.strike("a"));
    EXPECT_FALSE(book.quarantined("a"));
    EXPECT_TRUE(book.strike("a"));
    EXPECT_TRUE(book.quarantined("a"));
    EXPECT_FALSE(book.strike("a")); // already quarantined
    EXPECT_FALSE(book.quarantined("b"));
    EXPECT_EQ(book.quarantinedNames(), std::vector<std::string>{"a"});
}

TEST(ConnStrikeBook, RefusalIsAQuarantinedFrameNamingThePeer)
{
    StrikeBook book(1, "worker");
    FrameReader r;
    std::string f = book.refusal("w7");
    r.feed(f.data(), f.size());
    ASSERT_EQ(r.poll(), FrameReader::State::Frame);
    Frame frame = r.take();
    EXPECT_EQ(frame.type, FrameType::Quarantined);
    Result<ErrorReply> e = decodeErrorReply(frame.payload);
    ASSERT_TRUE(e.ok());
    EXPECT_EQ(e.value().message, "worker 'w7' is quarantined");
}

TEST(ConnListener, NeedsAnAddress)
{
    Listener l;
    Status st = l.bind("", -1, "test");
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.error().message.find("test: no listener configured"),
              std::string::npos);
    EXPECT_FALSE(l.bound());
}

TEST(ConnListener, UnixSocketIsUnlinkedOnClose)
{
    std::string path = ::testing::TempDir() + "conn_test_" +
                       std::to_string(::getpid()) + ".sock";
    Listener l;
    ASSERT_TRUE(l.bind(path, -1, "test").ok());
    EXPECT_TRUE(l.bound());
    EXPECT_EQ(l.tcpPort(), -1);
    EXPECT_EQ(::access(path.c_str(), F_OK), 0);
    l.close();
    EXPECT_FALSE(l.bound());
    EXPECT_NE(::access(path.c_str(), F_OK), 0);
}

/** A Listener on an ephemeral port with one accepted Connection. */
struct Pair
{
    Listener listener;
    ServeClient client;
    std::unique_ptr<Connection> conn;

    void
    open()
    {
        ASSERT_TRUE(listener.bind("", 0, "test").ok());
        ASSERT_GT(listener.tcpPort(), 0);
        ASSERT_TRUE(client.connectTcp(listener.tcpPort()).ok());
        while (!conn)
            ASSERT_TRUE(listener.accept(100, [this](int fd) {
                conn = std::make_unique<Connection>(fd);
            }));
    }
};

TEST(ConnConnection, FramesFlowBothWaysThenEof)
{
    Pair p;
    p.open();
    ASSERT_TRUE(p.client.hello("alice").ok());
    ASSERT_TRUE(p.client.send(encodeBye()).ok());

    std::vector<FrameType> seen;
    Connection::ReadEnd end = p.conn->readFrames(
        [] { return true; },
        [&seen](Frame f) {
            seen.push_back(f.type);
            return f.type != FrameType::Bye;
        });
    EXPECT_EQ(end, Connection::ReadEnd::Stopped);
    EXPECT_EQ(seen, (std::vector<FrameType>{FrameType::Hello,
                                             FrameType::Bye}));

    EXPECT_TRUE(p.conn->send(encodeBye()));
    Result<Frame> back = p.client.readFrame(5.0);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value().type, FrameType::Bye);

    // Last words: the frame arrives, then EOF; later sends fail.
    EXPECT_TRUE(p.conn->sendAndShut(encodeBye()));
    EXPECT_TRUE(p.client.readFrame(5.0).ok());
    EXPECT_FALSE(p.client.readFrame(5.0).ok());
    EXPECT_FALSE(p.conn->send(encodeBye()));
    EXPECT_FALSE(p.conn->sendAndShut(encodeBye()));
}

TEST(ConnConnection, GarbageEndsTheLoopBroken)
{
    Pair p;
    p.open();
    ASSERT_TRUE(p.client.send(std::string(16, 'x')).ok());
    Connection::ReadEnd end = p.conn->readFrames(
        [] { return true; }, [](Frame) { return true; });
    EXPECT_EQ(end, Connection::ReadEnd::Broken);
    EXPECT_FALSE(p.conn->frameError().message.empty());
}

TEST(ConnConnection, PeerCloseIsEofAndTicksRunWhileIdle)
{
    Pair p;
    p.open();
    std::atomic<int> ticks{0};
    std::thread closer([&p, &ticks] {
        while (ticks.load() < 2)
            std::this_thread::yield();
        p.client.close();
    });
    Connection::ReadEnd end = p.conn->readFrames(
        [] { return true; }, [](Frame) { return true; },
        [&ticks] { ticks.fetch_add(1); });
    closer.join();
    EXPECT_EQ(end, Connection::ReadEnd::Eof);
    EXPECT_GE(ticks.load(), 2);
}

TEST(ConnConnection, ShutdownWakesABlockedReader)
{
    Pair p;
    p.open();
    std::thread reader([&p] {
        EXPECT_EQ(p.conn->readFrames([] { return true; },
                                     [](Frame) { return true; }),
                  Connection::ReadEnd::Eof);
    });
    p.conn->shutdown();
    reader.join();
}

} // namespace
} // namespace vrc
