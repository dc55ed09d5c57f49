/**
 * @file
 * Socket and peer plumbing shared by the simulation service
 * (server.cc) and the shard coordinator (sim/shard.cc). What a frame
 * means, and every deadline, stays with the caller.
 */

#ifndef VRC_SERVE_CONN_HH
#define VRC_SERVE_CONN_HH

#include <cstddef>
#include <functional>
#include <initializer_list>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "base/error.hh"
#include "serve/wire.hh"

namespace vrc
{

/** A server's unix and/or localhost TCP listening sockets. */
class Listener
{
  public:
    Listener() = default;
    ~Listener() { close(); }
    Listener(const Listener &) = delete;
    Listener &operator=(const Listener &) = delete;

    /**
     * Listen on @p unixPath (empty = none) and/or 127.0.0.1:@p tcpPort
     * (-1 = none, 0 = ephemeral). @p who prefixes the error when
     * neither is configured.
     */
    Status bind(const std::string &unixPath, int tcpPort,
                const char *who);

    bool bound() const { return _unixFd >= 0 || _tcpFd >= 0; }

    /** The bound TCP port (ephemeral resolved); -1 without one. */
    int tcpPort() const { return _tcpPort; }

    /**
     * Wait up to @p timeoutMs for a connection or for a @p wake fd
     * (negative ones ignored) to turn readable; hand each accepted fd
     * to @p adopt. False when poll() fails.
     */
    bool accept(int timeoutMs, const std::function<void(int)> &adopt,
                std::initializer_list<int> wake = {});

    /** Close the sockets and unlink the unix path (idempotent). */
    void close();

  private:
    std::string _unixPath;
    int _unixFd = -1;
    int _tcpFd = -1;
    int _tcpPort = -1;
};

/** One accepted peer socket; closes the fd on destruction. */
class Connection
{
  public:
    explicit Connection(int fd,
                        std::size_t maxFrameBytes = wireMaxPayloadDefault)
        : _fd(fd), _frames(maxFrameBytes)
    {
    }
    ~Connection();
    Connection(const Connection &) = delete;
    Connection &operator=(const Connection &) = delete;

    /**
     * Write one frame under the write lock. False when the socket is
     * shut down, or the write failed (which shuts it down).
     */
    bool send(const std::string &frame);

    /**
     * Last words: unless already shut down, write the first @p n
     * bytes of @p frame, then shut down. True when they went out.
     */
    bool sendAndShut(const std::string &frame,
                     std::size_t n = std::string::npos);

    /** Shut both directions down (idempotent); the reader sees EOF. */
    void shutdown();

    enum class ReadEnd
    {
        Stopped, ///< running() turned false or onFrame() said stop
        Eof,     ///< the peer closed, or the socket failed
        Broken,  ///< malformed frame stream; see frameError()
    };

    /**
     * The reader thread's loop: while @p running(), poll the socket
     * every 100 ms and hand each complete frame to @p onFrame (false
     * stops). @p onTick, if set, runs after each wake-up that leaves
     * the loop running.
     */
    ReadEnd readFrames(const std::function<bool()> &running,
                       const std::function<bool(Frame)> &onFrame,
                       const std::function<void()> &onTick = nullptr);

    const Error &frameError() const { return _frames.error(); }

    /** Bytes of a frame received but not yet complete. */
    std::size_t pendingBytes() const { return _frames.pendingBytes(); }

  private:
    void shutLocked();

    int _fd;
    std::mutex _writeMu;
    bool _shut = false;  ///< under _writeMu
    FrameReader _frames; ///< reader thread only
};

/**
 * Strikes per peer name. A name reaching the threshold is quarantined
 * for the server's life: its HELLOs are refused. Thread-safe.
 */
class StrikeBook
{
  public:
    /** @p noun names the peers in the refusal ("client", "worker"). */
    StrikeBook(unsigned threshold, std::string noun)
        : _threshold(threshold), _noun(std::move(noun))
    {
    }

    /**
     * One strike against @p name (empty = no HELLO yet: never
     * struck). True when this strike quarantined the name.
     */
    bool strike(const std::string &name);

    bool quarantined(const std::string &name) const;

    /** Quarantined names, in quarantine order. */
    std::vector<std::string> quarantinedNames() const;

    /** The QUARANTINED frame that refuses @p name. */
    std::string refusal(const std::string &name) const;

  private:
    unsigned _threshold;
    std::string _noun;
    mutable std::mutex _mu;
    std::map<std::string, unsigned> _strikes;
    std::vector<std::string> _quarantined;
};

} // namespace vrc

#endif // VRC_SERVE_CONN_HH
