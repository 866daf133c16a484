#pragma once
/// \file process.hpp
/// The process-rank launchers: the `mpirun` of the mesh transport. Each
/// forks one worker per rank, gives it a row of a full stream-socket mesh,
/// runs `rank_main` with a Communicator over a MeshTransport (mesh.hpp), and
/// ships each worker's marshalled result back over a dedicated control
/// socket. The two launchers share that fork-and-collect path and differ
/// only in how a worker gets its peer fds:
///
///  * run_process_ranks — a pre-connected full mesh of Unix-domain
///    socketpairs, created before fork and inherited (no listen/connect
///    rendezvous needed locally);
///  * run_tcp_ranks — the host-list rendezvous of tcp.hpp over localhost,
///    exactly as ranks on different hosts would meet.
///
/// Fork discipline: call only from a quiescent process (no live rank/team
/// threads — every substrate joins its threads before returning, so any
/// point between runs qualifies). Workers `_exit()` so inherited atexit
/// handlers and stdio buffers are not replayed N times.

#include <cstdint>
#include <functional>
#include <vector>

#include "msg/comm.hpp"
#include "msg/transport/mesh.hpp"

namespace advect::msg {

/// Run `nranks` forked worker processes on a socketpair mesh; each runs
/// `rank_main` on its own Communicator over a MeshTransport whose progress
/// engine runs in `mode`, and returns a payload of bytes, which the parent
/// collects in rank order. A worker that throws turns the whole launch into
/// a std::runtime_error carrying the first worker's message (after every
/// worker has been reaped); a worker's own error outranks the "peer rank N
/// disconnected" cascade its death provokes in the others. The error type
/// is not preserved across the process boundary — rank_main should catch
/// anything it wants to assert on and encode it in its payload.
[[nodiscard]] std::vector<std::vector<std::uint8_t>> run_process_ranks(
    int nranks,
    const std::function<std::vector<std::uint8_t>(Communicator&)>& rank_main,
    ProgressMode mode = ProgressMode::Thread);

/// Like run_process_ranks, but over the TCP mesh (docs/TRANSPORT.md
/// §stage 2): each forked worker binds an ephemeral localhost listener and
/// reports its port over the control channel; the parent gathers the
/// endpoint list and broadcasts it back; workers rendezvous into a full
/// mesh (tcp_connect_mesh) and run `rank_main` over it. Error flattening
/// as above.
[[nodiscard]] std::vector<std::vector<std::uint8_t>> run_tcp_ranks(
    int nranks, ProgressMode mode,
    const std::function<std::vector<std::uint8_t>(Communicator&)>& rank_main);

}  // namespace advect::msg
