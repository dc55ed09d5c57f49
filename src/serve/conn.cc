#include "serve/conn.hh"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace vrc
{

Status
Listener::bind(const std::string &unixPath, int tcpPort, const char *who)
{
    if (unixPath.empty() && tcpPort < 0)
        return makeError(ErrorKind::Io, who,
                         ": no listener configured (need a unix path "
                         "and/or a TCP port)");
    if (!unixPath.empty()) {
        sockaddr_un sa = {};
        if (unixPath.size() >= sizeof(sa.sun_path))
            return makeError(ErrorKind::Bounds,
                             "unix socket path too long: ", unixPath);
        _unixFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (_unixFd < 0)
            return makeError(ErrorKind::Io, "socket(AF_UNIX): ",
                             std::strerror(errno));
        _unixPath = unixPath;
        sa.sun_family = AF_UNIX;
        std::strncpy(sa.sun_path, unixPath.c_str(),
                     sizeof(sa.sun_path) - 1);
        ::unlink(unixPath.c_str());
        if (::bind(_unixFd, reinterpret_cast<sockaddr *>(&sa),
                   sizeof(sa)) != 0 ||
            ::listen(_unixFd, 64) != 0)
            return makeError(ErrorKind::Io, "cannot listen on ",
                             unixPath, ": ", std::strerror(errno));
    }
    if (tcpPort >= 0) {
        _tcpFd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (_tcpFd < 0)
            return makeError(ErrorKind::Io, "socket(AF_INET): ",
                             std::strerror(errno));
        int one = 1;
        ::setsockopt(_tcpFd, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one));
        sockaddr_in sa = {};
        sa.sin_family = AF_INET;
        sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        sa.sin_port = htons(static_cast<std::uint16_t>(tcpPort));
        if (::bind(_tcpFd, reinterpret_cast<sockaddr *>(&sa),
                   sizeof(sa)) != 0 ||
            ::listen(_tcpFd, 64) != 0)
            return makeError(ErrorKind::Io,
                             "cannot listen on 127.0.0.1:", tcpPort,
                             ": ", std::strerror(errno));
        socklen_t len = sizeof(sa);
        ::getsockname(_tcpFd, reinterpret_cast<sockaddr *>(&sa), &len);
        _tcpPort = ntohs(sa.sin_port);
    }
    return okStatus();
}

bool
Listener::accept(int timeoutMs, const std::function<void(int)> &adopt,
                 std::initializer_list<int> wake)
{
    std::vector<pollfd> fds;
    for (int fd : wake)
        if (fd >= 0)
            fds.push_back({fd, POLLIN, 0});
    const std::size_t listeners = fds.size();
    for (int fd : {_unixFd, _tcpFd})
        if (fd >= 0)
            fds.push_back({fd, POLLIN, 0});
    int pr = ::poll(fds.data(), fds.size(), timeoutMs);
    if (pr < 0)
        return errno == EINTR;
    for (std::size_t i = listeners; pr > 0 && i < fds.size(); ++i) {
        if (!(fds[i].revents & POLLIN))
            continue;
        int fd = acceptRetryFd(fds[i].fd);
        if (fd >= 0)
            adopt(fd);
    }
    return true;
}

void
Listener::close()
{
    if (_unixFd >= 0) {
        ::close(_unixFd);
        _unixFd = -1;
        ::unlink(_unixPath.c_str());
    }
    if (_tcpFd >= 0) {
        ::close(_tcpFd);
        _tcpFd = -1;
    }
}

Connection::~Connection()
{
    if (_fd >= 0)
        ::close(_fd);
}

void
Connection::shutLocked()
{
    if (!_shut) {
        _shut = true;
        ::shutdown(_fd, SHUT_RDWR);
    }
}

bool
Connection::send(const std::string &frame)
{
    std::lock_guard<std::mutex> g(_writeMu);
    if (_shut)
        return false;
    if (writeAllFd(_fd, frame.data(), frame.size()))
        return true;
    shutLocked();
    return false;
}

bool
Connection::sendAndShut(const std::string &frame, std::size_t n)
{
    std::lock_guard<std::mutex> g(_writeMu);
    if (_shut)
        return false;
    bool wrote =
        writeAllFd(_fd, frame.data(), std::min(n, frame.size()));
    shutLocked();
    return wrote;
}

void
Connection::shutdown()
{
    std::lock_guard<std::mutex> g(_writeMu);
    shutLocked();
}

Connection::ReadEnd
Connection::readFrames(const std::function<bool()> &running,
                       const std::function<bool(Frame)> &onFrame,
                       const std::function<void()> &onTick)
{
    char buf[64 * 1024];
    while (running()) {
        pollfd p = {_fd, POLLIN, 0};
        int pr = ::poll(&p, 1, 100);
        if (pr < 0) {
            if (errno == EINTR)
                continue;
            return ReadEnd::Eof;
        }
        if (pr > 0 && (p.revents & (POLLIN | POLLHUP | POLLERR))) {
            long n = readSomeFd(_fd, buf, sizeof(buf));
            if (n == 0)
                return ReadEnd::Eof;
            if (n < 0) {
                if (errno == EAGAIN || errno == EWOULDBLOCK)
                    continue;
                return ReadEnd::Eof;
            }
            _frames.feed(buf, static_cast<std::size_t>(n));
            for (;;) {
                FrameReader::State fs = _frames.poll();
                if (fs == FrameReader::State::NeedMore)
                    break;
                if (fs == FrameReader::State::Broken)
                    return ReadEnd::Broken;
                if (!onFrame(_frames.take()))
                    return ReadEnd::Stopped;
            }
        }
        if (onTick && running())
            onTick();
    }
    return ReadEnd::Stopped;
}

bool
StrikeBook::strike(const std::string &name)
{
    if (name.empty())
        return false;
    std::lock_guard<std::mutex> g(_mu);
    if (++_strikes[name] < _threshold ||
        std::find(_quarantined.begin(), _quarantined.end(), name) !=
            _quarantined.end())
        return false;
    _quarantined.push_back(name);
    return true;
}

bool
StrikeBook::quarantined(const std::string &name) const
{
    std::lock_guard<std::mutex> g(_mu);
    return std::find(_quarantined.begin(), _quarantined.end(), name) !=
           _quarantined.end();
}

std::vector<std::string>
StrikeBook::quarantinedNames() const
{
    std::lock_guard<std::mutex> g(_mu);
    return _quarantined;
}

std::string
StrikeBook::refusal(const std::string &name) const
{
    return encodeErrorReply(
        FrameType::Quarantined,
        ErrorReply{0, ErrorKind::Worker,
                   _noun + " '" + name + "' is quarantined"});
}

} // namespace vrc
