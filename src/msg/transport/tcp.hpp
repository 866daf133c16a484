#pragma once
/// \file tcp.hpp
/// The cross-node rendezvous (docs/TRANSPORT.md §stage 2): one of the two
/// ways to produce a MeshTransport's peer fds (mesh.hpp). Each rank is a
/// process (possibly on another host) holding one connected TCP socket per
/// peer, built by host-list rendezvous rather than inherited socketpairs:
///
///   1. every rank binds a listener and publishes "host:port";
///   2. rank i dials every lower rank j < i and sends a HELLO frame carrying
///      its rank id (so rank 0 only listens — peers connect to it);
///   3. rank i accepts one connection per higher rank j > i and reads the
///      HELLO to learn who dialled.
///
/// Once connected, a TCP mesh runs through exactly the same MeshTransport
/// as the socketpair mesh: same frames, same sequence verification, same
/// progress engine in either mode.

#include <cstdint>
#include <string>
#include <vector>

namespace advect::msg {

/// A bound, listening TCP socket. `port() ` reports the actual port (bind
/// with port 0 for an ephemeral one — how run_tcp_ranks workers rendezvous).
class TcpListener {
  public:
    explicit TcpListener(const std::string& host, std::uint16_t port = 0);
    ~TcpListener();
    TcpListener(const TcpListener&) = delete;
    TcpListener& operator=(const TcpListener&) = delete;

    [[nodiscard]] std::uint16_t port() const { return port_; }
    /// Accept one connection (blocking); returns the connected fd.
    [[nodiscard]] int accept_one();

  private:
    int fd_ = -1;
    std::uint16_t port_ = 0;
};

/// Dial a "host:port" endpoint, retrying connection-refused until the peer's
/// listener is up (bounded); returns a connected fd with TCP_NODELAY set.
[[nodiscard]] int tcp_connect(const std::string& endpoint);

/// Build rank `rank`'s full mesh from the published endpoint list (one
/// "host:port" per rank): dial every lower rank (sending HELLO), accept
/// every higher one (reading HELLO). Returns peer_fds indexed by rank, the
/// own index -1, ready for MeshTransport.
[[nodiscard]] std::vector<int> tcp_connect_mesh(
    int rank, const std::vector<std::string>& endpoints,
    TcpListener& listener);


}  // namespace advect::msg
