#include "msg/transport/process.hpp"

#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <csignal>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "msg/transport/tcp.hpp"
#include "msg/transport/wire.hpp"

namespace advect::msg {

namespace {

using RankMain = std::function<std::vector<std::uint8_t>(Communicator&)>;

/// One worker process's lifetime: obtain this rank's mesh fds (inside the
/// child, so TCP workers can bind/rendezvous post-fork), run `rank_main`
/// over a MeshTransport, ship the result or the error over the control
/// channel, tear the transport down (peers mid-teardown read our queued
/// frames, then a clean EOF), _exit.
[[noreturn]] void worker_main(int rank,
                              const std::function<std::vector<int>()>& connect,
                              ProgressMode mode, int control_fd,
                              const RankMain& rank_main) {
    int exit_code = 0;
    try {
        try {
            MeshTransport transport(rank, connect(), mode);
            Communicator comm(transport);
            const std::vector<std::uint8_t> result = rank_main(comm);
            wire::write_frame(control_fd, wire::kFrameResult, result);
            ::close(control_fd);
            // The transport is destroyed after the result ships: its
            // teardown flushes queued frames, so peers mid-run read our
            // data, then a clean EOF — never a reset.
        } catch (const std::exception& e) {
            const std::string what = e.what();
            wire::write_frame(control_fd, wire::kFrameError,
                              {reinterpret_cast<const std::uint8_t*>(
                                   what.data()),
                               what.size()});
            ::close(control_fd);
            throw;
        }
    } catch (...) {
        exit_code = 1;
    }
    // Never unwind into the parent's inherited state: skip atexit handlers
    // and don't re-flush inherited stdio buffers.
    ::_exit(exit_code);
}

struct ControlChannels {
    std::vector<std::array<int, 2>> fds;  ///< [0] parent end, [1] worker end
};

ControlChannels make_control_channels(std::size_t n) {
    ControlChannels c;
    c.fds.resize(n);
    for (std::size_t r = 0; r < n; ++r) {
        int sv[2];
        if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0)
            throw std::runtime_error("rank launcher: socketpair failed");
        c.fds[r] = {sv[0], sv[1]};
    }
    return c;
}

/// Collect each worker's result frame, then reap. Error flattening: every
/// worker's failure is recorded, and a root-cause error (one whose message
/// does not mention a peer disconnect) is preferred over the cascade of
/// "peer rank N disconnected" errors a dying worker provokes in the rest —
/// otherwise rank 0's secondary disconnect error would routinely mask the
/// real thrower.
std::vector<std::vector<std::uint8_t>> collect_results(
    const char* who, std::size_t n, const ControlChannels& control,
    const std::vector<pid_t>& pids, const std::string& preknown_error = {}) {
    std::vector<std::vector<std::uint8_t>> results(n);
    std::string first_error;       // first non-disconnect failure
    std::string first_disconnect;  // fallback when every error is a cascade
    const auto note_error = [&](std::string msg) {
        const bool disconnect = msg.find("disconnected") != std::string::npos;
        if (disconnect) {
            if (first_disconnect.empty()) first_disconnect = std::move(msg);
        } else if (first_error.empty()) {
            first_error = std::move(msg);
        }
    };
    if (!preknown_error.empty()) note_error(preknown_error);
    for (std::size_t r = 0; r < n; ++r) {
        wire::Frame frame;
        bool got = false;
        try {
            got = wire::read_frame(control.fds[r][0], frame);
        } catch (const std::exception& e) {
            note_error("worker " + std::to_string(r) +
                       " control channel: " + e.what());
        }
        if (got && frame.type == wire::kFrameResult) {
            results[r] = std::move(frame.payload);
        } else if (got && frame.type == wire::kFrameError) {
            note_error("worker " + std::to_string(r) + ": " +
                       std::string(frame.payload.begin(),
                                   frame.payload.end()));
        } else {
            note_error("worker " + std::to_string(r) +
                       " exited without a result");
        }
        ::close(control.fds[r][0]);
    }
    for (std::size_t r = 0; r < n; ++r) {
        int status = 0;
        ::waitpid(pids[r], &status, 0);
        if (first_error.empty() && first_disconnect.empty() &&
            !(WIFEXITED(status) && WEXITSTATUS(status) == 0))
            first_error = "worker " + std::to_string(r) + " died (status " +
                          std::to_string(status) + ")";
    }
    const std::string& err =
        !first_error.empty() ? first_error : first_disconnect;
    if (!err.empty())
        throw std::runtime_error(std::string(who) + ": " + err);
    return results;
}

/// Full mesh, connected before fork: mesh[i][j] is rank i's socket to
/// rank j (and mesh[j][i] the matching end).
std::vector<std::vector<int>> socketpair_mesh(const char* who, std::size_t n) {
    std::vector<std::vector<int>> mesh(n, std::vector<int>(n, -1));
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = i + 1; j < n; ++j) {
            int sv[2];
            if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0)
                throw std::runtime_error(std::string(who) +
                                         ": socketpair failed");
            mesh[i][j] = sv[0];
            mesh[j][i] = sv[1];
        }
    return mesh;
}

/// A TCP worker's side of the rendezvous (docs/TRANSPORT.md §stage 2):
/// publish our ephemeral port, get everyone's endpoints back, mesh up.
std::vector<int> tcp_rendezvous(int rank, std::size_t n, int control_fd) {
    TcpListener listener("127.0.0.1", 0);
    wire::ByteWriter hello;
    hello.u32(listener.port());
    wire::write_frame(control_fd, wire::kFrameHello, hello.bytes());
    wire::Frame hosts;
    if (!wire::read_frame(control_fd, hosts) ||
        hosts.type != wire::kFrameHosts)
        throw std::runtime_error("run_tcp_ranks: launcher sent no host list");
    wire::ByteReader rd(hosts.payload);
    const std::uint32_t count = rd.u32();
    if (count != n)
        throw std::runtime_error("run_tcp_ranks: host list size mismatch");
    std::vector<std::string> endpoints;
    endpoints.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) endpoints.push_back(rd.str());
    return tcp_connect_mesh(rank, endpoints, listener);
}

/// The parent's side of the TCP rendezvous: gather every worker's
/// "host:port" and broadcast the list back. Returns the error of a worker
/// that failed before publishing (empty if none) — collect_results would
/// otherwise only see the EOF that follows it. A worker that dies before
/// publishing surfaces as a truncated hello; its real error is picked up
/// by collect_results.
std::string publish_endpoints(std::size_t n, const ControlChannels& control,
                              const std::vector<pid_t>& pids) {
    std::vector<std::string> endpoints(n);
    for (std::size_t r = 0; r < n; ++r) {
        wire::Frame hello;
        bool got = false;
        try {
            got = wire::read_frame(control.fds[r][0], hello);
        } catch (const std::exception&) {
            got = false;
        }
        if (!got || hello.type != wire::kFrameHello) {
            // Without a complete endpoint list no worker can mesh: reap
            // them rather than leave them blocked on the control read.
            for (std::size_t k = 0; k < n; ++k) ::kill(pids[k], SIGKILL);
            if (got && hello.type == wire::kFrameError)
                return "worker " + std::to_string(r) + ": " +
                       std::string(hello.payload.begin(),
                                   hello.payload.end());
            return {};
        }
        wire::ByteReader rd(hello.payload);
        endpoints[r] = "127.0.0.1:" + std::to_string(rd.u32());
    }
    wire::ByteWriter w;
    w.u32(static_cast<std::uint32_t>(n));
    for (const auto& e : endpoints) w.str(e);
    for (std::size_t r = 0; r < n; ++r) {
        try {
            wire::write_frame(control.fds[r][0], wire::kFrameHosts,
                              w.bytes());
        } catch (const std::exception&) {
            // Dead worker; collect_results reports it.
        }
    }
    return {};
}

/// The one fork-and-collect path both launchers share; `tcp` picks how a
/// worker gets its peer fds (inherited socketpair row or rendezvous).
std::vector<std::vector<std::uint8_t>> fork_ranks(const char* who,
                                                  int nranks, bool tcp,
                                                  ProgressMode mode,
                                                  const RankMain& rank_main) {
    if (nranks < 1)
        throw std::invalid_argument(std::string(who) +
                                    ": nranks must be >= 1");
    const auto n = static_cast<std::size_t>(nranks);
    const std::vector<std::vector<int>> mesh =
        tcp ? std::vector<std::vector<int>>{} : socketpair_mesh(who, n);
    ControlChannels control = make_control_channels(n);

    std::vector<pid_t> pids(n, -1);
    for (std::size_t r = 0; r < n; ++r) {
        const pid_t pid = ::fork();
        if (pid < 0) {
            for (std::size_t k = 0; k < r; ++k) ::kill(pids[k], SIGKILL);
            throw std::runtime_error(std::string(who) + ": fork failed");
        }
        if (pid == 0) {
            // Worker: keep row r of the mesh and our control end; close
            // every other inherited fd so peer EOF detection works.
            for (std::size_t i = 0; i < mesh.size(); ++i)
                for (const int fd : mesh[i])
                    if (i != r && fd >= 0) ::close(fd);
            for (std::size_t k = 0; k < n; ++k) {
                ::close(control.fds[k][0]);
                if (k != r) ::close(control.fds[k][1]);
            }
            const int rank = static_cast<int>(r);
            const int control_fd = control.fds[r][1];
            worker_main(
                rank,
                [&] {
                    return tcp ? tcp_rendezvous(rank, n, control_fd)
                               : mesh[r];
                },
                mode, control_fd, rank_main);
        }
        pids[r] = pid;
    }

    // Parent: release the workers' fds, then collect results.
    for (const auto& row : mesh)
        for (const int fd : row)
            if (fd >= 0) ::close(fd);
    for (std::size_t r = 0; r < n; ++r) ::close(control.fds[r][1]);
    const std::string preknown_error =
        tcp ? publish_endpoints(n, control, pids) : std::string{};
    return collect_results(who, n, control, pids, preknown_error);
}

}  // namespace

std::vector<std::vector<std::uint8_t>> run_process_ranks(
    int nranks, const RankMain& rank_main, ProgressMode mode) {
    return fork_ranks("run_process_ranks", nranks, false, mode, rank_main);
}

std::vector<std::vector<std::uint8_t>> run_tcp_ranks(
    int nranks, ProgressMode mode, const RankMain& rank_main) {
    return fork_ranks("run_tcp_ranks", nranks, true, mode, rank_main);
}

}  // namespace advect::msg
