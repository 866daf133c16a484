#include "msg/transport/tcp.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <stdexcept>
#include <system_error>
#include <thread>

#include "msg/transport/wire.hpp"

namespace advect::msg {

namespace {

/// How long tcp_connect keeps retrying connection-refused before declaring
/// the peer's listener missing (it may simply not have bound yet).
constexpr double kConnectTimeoutSeconds = 20.0;
constexpr auto kConnectRetryDelay = std::chrono::milliseconds(20);

void enable_nodelay(int fd) {
    // Halo faces and collective tokens are latency-bound small writes;
    // Nagle coalescing would serialize them against the peer's ACK clock.
    const int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

sockaddr_in parse_endpoint(const std::string& endpoint) {
    const auto colon = endpoint.rfind(':');
    if (colon == std::string::npos)
        throw std::invalid_argument("tcp: endpoint missing port: " + endpoint);
    const std::string host = endpoint.substr(0, colon);
    const int port = std::stoi(endpoint.substr(colon + 1));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1)
        throw std::invalid_argument("tcp: bad host address: " + host);
    return addr;
}

}  // namespace

TcpListener::TcpListener(const std::string& host, std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0)
        throw std::system_error(errno, std::generic_category(), "tcp: socket");
    const int one = 1;
    (void)::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        ::close(fd_);
        throw std::invalid_argument("tcp: bad host address: " + host);
    }
    if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
        0) {
        const int err = errno;
        ::close(fd_);
        throw std::system_error(err, std::generic_category(), "tcp: bind");
    }
    if (::listen(fd_, SOMAXCONN) != 0) {
        const int err = errno;
        ::close(fd_);
        throw std::system_error(err, std::generic_category(), "tcp: listen");
    }
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
        const int err = errno;
        ::close(fd_);
        throw std::system_error(err, std::generic_category(),
                                "tcp: getsockname");
    }
    port_ = ntohs(bound.sin_port);
}

TcpListener::~TcpListener() {
    if (fd_ >= 0) ::close(fd_);
}

int TcpListener::accept_one() {
    for (;;) {
        const int fd = ::accept(fd_, nullptr, nullptr);
        if (fd >= 0) {
            enable_nodelay(fd);
            return fd;
        }
        if (errno != EINTR)
            throw std::system_error(errno, std::generic_category(),
                                    "tcp: accept");
    }
}

int tcp_connect(const std::string& endpoint) {
    const sockaddr_in addr = parse_endpoint(endpoint);
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(
                              kConnectTimeoutSeconds);
    for (;;) {
        const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd < 0)
            throw std::system_error(errno, std::generic_category(),
                                    "tcp: socket");
        if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof addr) == 0) {
            enable_nodelay(fd);
            return fd;
        }
        const int err = errno;
        ::close(fd);
        // The peer may not have reached listen() yet; only refusal (and the
        // transient reset some stacks report instead) warrants a retry.
        if (err != ECONNREFUSED && err != ECONNRESET && err != EINTR)
            throw std::system_error(err, std::generic_category(),
                                    "tcp: connect " + endpoint);
        if (std::chrono::steady_clock::now() >= deadline)
            throw std::runtime_error("tcp: connect " + endpoint +
                                     " timed out (listener never appeared)");
        std::this_thread::sleep_for(kConnectRetryDelay);
    }
}

std::vector<int> tcp_connect_mesh(int rank,
                                  const std::vector<std::string>& endpoints,
                                  TcpListener& listener) {
    const int n = static_cast<int>(endpoints.size());
    std::vector<int> fds(endpoints.size(), -1);
    // Dial every lower rank, identifying ourselves with a HELLO frame (so
    // rank 0 never dials: peers connect to it).
    for (int j = 0; j < rank; ++j) {
        const int fd = tcp_connect(endpoints[static_cast<std::size_t>(j)]);
        wire::ByteWriter w;
        w.u32(static_cast<std::uint32_t>(rank));
        wire::write_frame(fd, wire::kFrameHello, w.bytes());
        fds[static_cast<std::size_t>(j)] = fd;
    }
    // Accept one connection per higher rank; the HELLO tells us which.
    for (int k = rank + 1; k < n; ++k) {
        const int fd = listener.accept_one();
        wire::Frame hello;
        if (!wire::read_frame(fd, hello) ||
            hello.type != wire::kFrameHello) {
            ::close(fd);
            throw std::runtime_error("tcp: rendezvous peer sent no HELLO");
        }
        wire::ByteReader r(hello.payload);
        const int peer = static_cast<int>(r.u32());
        if (peer <= rank || peer >= n ||
            fds[static_cast<std::size_t>(peer)] >= 0) {
            ::close(fd);
            throw std::runtime_error("tcp: rendezvous HELLO names rank " +
                                     std::to_string(peer) +
                                     " (invalid or duplicate)");
        }
        fds[static_cast<std::size_t>(peer)] = fd;
    }
    return fds;
}

}  // namespace advect::msg
