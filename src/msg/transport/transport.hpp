#pragma once
/// \file transport.hpp
/// The transport seam under msg::Communicator (docs/TRANSPORT.md). A
/// Transport is one rank's endpoint in one job: it moves payload bytes to a
/// destination rank's mailbox and owns (or fronts) the local mailbox that
/// receives traffic addressed to this rank. Two classes implement it:
///
///  * InProcessTransport (inproc.hpp) — ranks are threads sharing a World;
///    deliver() is a direct call into the destination thread's mailbox.
///    This is the seed substrate every existing caller gets by default.
///  * MeshTransport (mesh.hpp) — ranks are processes connected by a full
///    mesh of stream sockets, either inherited socketpairs or a TCP
///    rendezvous (tcp.hpp); deliver() sends a length-prefixed,
///    sequence-numbered frame (wire.hpp), and the waiting rank's own pump
///    reads its sockets into the local mailbox.
///
/// Semantics every transport must preserve (and the tests in
/// tests/test_transport.cpp verify): buffered sends (deliver returns once
/// the payload is captured), per-(src, dst, tag) non-overtaking, and the
/// chaos engine's ticketed-FIFO delivery — the chaos session holds the
/// *closure over deliver()*, so drops and delays behave identically on
/// every transport and seed replay stays bitwise.

#include <span>

#include "msg/mailbox.hpp"

namespace advect::msg {

class Transport {
  public:
    virtual ~Transport() = default;

    [[nodiscard]] virtual int rank() const = 0;
    [[nodiscard]] virtual int size() const = 0;

    /// Move `data` to rank `dst`'s mailbox, tagged. Buffered-send semantics:
    /// returns once the payload has been captured (the caller's buffer is
    /// immediately reusable). Thread-safe: the chaos engine's delivery
    /// threads call this concurrently with the owning rank.
    virtual void deliver(int dst, int tag, std::span<const double> data) = 0;

    /// This rank's incoming-message endpoint.
    [[nodiscard]] virtual Mailbox& mailbox() = 0;

    /// Ask every process of the job to release chaos-dropped sends
    /// (chaos::Session::retransmit_lost). In-process that is one call; the
    /// mesh transport also tells each peer process, since a dropped send is
    /// held inside the *sender's* chaos session.
    virtual void request_retransmits() = 0;
};

}  // namespace advect::msg
