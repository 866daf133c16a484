// Tests for the transport seam (docs/TRANSPORT.md): wire framing, the
// forked rank launchers over the {socketpair, tcp} x {thread, polled}
// matrix, cross-transport parity for all nine implementations (bitwise
// solutions, identical chaos fault logs, identical trace shapes), the
// launcher's one job layout (typed errors in the caller, one-rank jobs as
// rank 0, the timer rule in forked workers), and the collective deadline
// contract — a chaos drop inside a collective terminates with
// CollectiveTimeoutError naming the stalled phase and rank instead of
// hanging.
//
// These tests fork; keep them out of any TSan job (thread sanitizers and
// fork do not mix).

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "chaos/fault.hpp"
#include "chaos/inject.hpp"
#include "chaos/scenario.hpp"
#include "chaos/scenario_file.hpp"
#include "core/problem.hpp"
#include "core/scenario.hpp"
#include "impl/launch.hpp"
#include "impl/registry.hpp"
#include "msg/comm.hpp"
#include "msg/transport/process.hpp"
#include "msg/transport/wire.hpp"
#include "plan/ir.hpp"
#include "trace/export.hpp"
#include "trace/span.hpp"

namespace chaos = advect::chaos;
namespace core = advect::core;
namespace impl = advect::impl;
namespace msg = advect::msg;
namespace wire = advect::msg::wire;

namespace {

impl::SolverConfig small_config(int n = 12, int steps = 2) {
    impl::SolverConfig cfg;
    cfg.problem = core::AdvectionProblem::standard(n);
    cfg.steps = steps;
    cfg.ntasks = 4;
    cfg.threads_per_task = 2;
    cfg.block_x = 8;
    cfg.block_y = 4;
    return cfg;
}

using RankMain = std::function<std::vector<std::uint8_t>(msg::Communicator&)>;

/// One forked cell of the {socket, tcp} x {thread, polled} matrix: which
/// launcher connects the mesh, and how its transport makes progress.
struct ForkedCase {
    impl::TransportKind transport;
    msg::ProgressMode mode;

    [[nodiscard]] std::string name() const {
        return std::string(impl::transport_name(transport)) + "/" +
               msg::progress_mode_name(mode);
    }
    [[nodiscard]] impl::LaunchOptions options(
        impl::LaunchOptions opts = {}) const {
        opts.transport = transport;
        opts.progress = mode;
        return opts;
    }
    [[nodiscard]] std::vector<std::vector<std::uint8_t>> run_ranks(
        int nranks, const RankMain& rank_main) const {
        return transport == impl::TransportKind::Tcp
                   ? msg::run_tcp_ranks(nranks, mode, rank_main)
                   : msg::run_process_ranks(nranks, rank_main, mode);
    }
};
const ForkedCase kForked[] = {
    {impl::TransportKind::Socket, msg::ProgressMode::Thread},
    {impl::TransportKind::Socket, msg::ProgressMode::Polled},
    {impl::TransportKind::Tcp, msg::ProgressMode::Thread},
    {impl::TransportKind::Tcp, msg::ProgressMode::Polled},
};

double elapsed_since(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

/// (name, category) multiset of a span list: the backend-independent trace
/// shape (timings differ run to run; the set of recorded spans must not).
std::vector<std::pair<std::string, std::string>> shape_of(
    const std::vector<advect::trace::Span>& spans) {
    std::vector<std::pair<std::string, std::string>> shape;
    shape.reserve(spans.size());
    for (const auto& s : spans) shape.emplace_back(s.name, s.category);
    std::sort(shape.begin(), shape.end());
    return shape;
}

// ---------------------------------------------------------------------------
// Wire framing.

TEST(Wire, WriterReaderRoundTrip) {
    wire::ByteWriter w;
    w.u8(7);
    w.u32(123456u);
    w.u64(1ull << 40);
    w.i32(-42);
    w.f64(3.25);
    w.str("hello wire");
    const std::vector<double> payload{1.0, -2.5, 1e300};
    w.doubles(payload);
    const auto bytes = w.take();

    wire::ByteReader r(bytes);
    EXPECT_EQ(r.u8(), 7);
    EXPECT_EQ(r.u32(), 123456u);
    EXPECT_EQ(r.u64(), 1ull << 40);
    EXPECT_EQ(r.i32(), -42);
    EXPECT_EQ(r.f64(), 3.25);
    EXPECT_EQ(r.str(), "hello wire");
    const auto d = r.doubles();
    EXPECT_TRUE(std::equal(d.begin(), d.end(), payload.begin(),
                           payload.end()));
    EXPECT_TRUE(r.done());
}

TEST(Wire, WriteFrameLoopsOverShortWritesOnTinySocketBuffer) {
    // A frame far larger than the socket's send buffer, written through a
    // nonblocking fd: every send() returns short or EAGAIN, and write_frame
    // must absorb both by polling for writability and resuming — the reader
    // sees one intact frame, never a truncated or corrupted stream.
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    const int tiny = 2048;  // the kernel clamps to its floor; still tiny
    ASSERT_EQ(::setsockopt(sv[0], SOL_SOCKET, SO_SNDBUF, &tiny, sizeof tiny),
              0);
    const int flags = ::fcntl(sv[0], F_GETFL, 0);
    ASSERT_EQ(::fcntl(sv[0], F_SETFL, flags | O_NONBLOCK), 0);

    std::vector<std::uint8_t> payload(512 * 1024);
    for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<std::uint8_t>((i * 2654435761u) >> 7);

    std::thread writer([&] {
        wire::write_frame(sv[0], wire::kFrameData, payload);
        ::close(sv[0]);
    });
    // The drip-fed arrival also exercises read_frame's short-read loop: no
    // single recv() can return the whole header + payload.
    wire::Frame f;
    ASSERT_TRUE(wire::read_frame(sv[1], f));
    writer.join();
    EXPECT_EQ(f.type, wire::kFrameData);
    EXPECT_EQ(f.payload, payload);
    EXPECT_FALSE(wire::read_frame(sv[1], f));  // clean EOF at frame boundary
    ::close(sv[1]);
}

// ---------------------------------------------------------------------------
// The retransmit-retry backoff (comm.hpp): a zero or tiny chaos receive
// timeout must not degenerate into a busy retransmit storm.

TEST(Backoff, SliceHelpersFloorAndGrowToCap) {
    EXPECT_EQ(msg::initial_retry_slice(0.0), msg::kMinRetrySliceSeconds);
    EXPECT_EQ(msg::initial_retry_slice(1e-9), msg::kMinRetrySliceSeconds);
    EXPECT_EQ(msg::initial_retry_slice(0.5), 0.5);
    double s = msg::initial_retry_slice(1e-9);
    double prev = 0.0;
    int doublings = 0;
    while (s > prev) {
        prev = s;
        s = msg::next_retry_slice(s, 1e-9);
        ++doublings;
        ASSERT_LT(doublings, 64) << "slice growth must converge";
    }
    EXPECT_EQ(s, msg::kRetrySliceCapSeconds);
    // A plan timeout beyond the default cap is its own cap — generous
    // scenarios keep their configured pacing.
    EXPECT_EQ(msg::next_retry_slice(2.0, 3.0), 3.0);
    EXPECT_EQ(msg::initial_retry_slice(3.0), 3.0);
}

TEST(Backoff, TinyPlanTimeoutDoesNotStormRetransmits) {
    // Drop every allreduce message under a pathologically tiny receive
    // timeout. Pre-backoff, the wait slice equalled the plan timeout, so
    // the recovery interval issued a retransmit request every microsecond
    // — thousands of RETRANS per collective. With the floored, doubling
    // slice the whole recovery takes a handful.
    chaos::FaultPlan plan;
    plan.seed = 5;
    plan.timeout_s = 1e-6;
    chaos::FaultRule rule;
    rule.kind = chaos::FaultKind::MsgDrop;
    rule.site = "allreduce_sum";
    rule.step_lo = -1;  // harness collectives run at step -1
    rule.probability = 1.0;
    plan.rules.push_back(rule);
    chaos::Session session(plan);
    msg::run_ranks(3, [](msg::Communicator& comm) {
        EXPECT_EQ(comm.allreduce_sum(static_cast<double>(comm.rank())), 3.0);
    });
    EXPECT_GE(session.retransmit_requests(), 1u);
    EXPECT_LE(session.retransmit_requests(), 64u);
    std::size_t drops = 0;
    for (const auto& e : session.log())
        if (e.kind == chaos::FaultKind::MsgDrop) ++drops;
    EXPECT_GE(drops, 1u);  // the storm guard must not mask the recovery
}

// ---------------------------------------------------------------------------
// The forked rank launchers: run_process_ranks (inherited socketpair mesh)
// and run_tcp_ranks (host-list rendezvous), each with the mesh transport's
// progress engine on its own thread or polled.

TEST(ProcessRanks, RingExchangeAcrossProcesses) {
    for (const ForkedCase& fc : kForked) {
        const int n = 3;
        const auto payloads = fc.run_ranks(n, [](msg::Communicator& comm) {
            const int rank = comm.rank();
            const int next = (rank + 1) % comm.size();
            const int prev = (rank + comm.size() - 1) % comm.size();
            const std::vector<double> out{static_cast<double>(rank), 0.5};
            std::vector<double> in(2);
            auto req = comm.irecv(prev, 3, in);
            comm.isend(next, 3, out).wait();
            req.wait();
            const double sum = comm.allreduce_sum(in[0]);
            comm.barrier();
            wire::ByteWriter w;
            w.f64(in[0]);
            w.f64(sum);
            return w.take();
        });
        ASSERT_EQ(payloads.size(), 3u) << fc.name();
        for (int rank = 0; rank < n; ++rank) {
            wire::ByteReader r(payloads[static_cast<std::size_t>(rank)]);
            EXPECT_EQ(r.f64(), static_cast<double>((rank + n - 1) % n))
                << fc.name() << " rank " << rank;
            EXPECT_EQ(r.f64(), 3.0) << fc.name();  // 0 + 1 + 2
        }
    }
}

TEST(ProcessRanks, WorkerErrorSurfacesInTheParent) {
    for (const ForkedCase& fc : kForked) {
        try {
            (void)fc.run_ranks(
                2, [](msg::Communicator& comm) -> std::vector<std::uint8_t> {
                    if (comm.rank() == 1)
                        throw std::runtime_error("worker boom");
                    return {};
                });
            FAIL() << "expected the worker error (" << fc.name() << ")";
        } catch (const std::runtime_error& e) {
            EXPECT_NE(std::string(e.what()).find("worker boom"),
                      std::string::npos)
                << fc.name() << ": " << e.what();
        }
    }
}

TEST(ProcessRanks, PeerDeathSurfacesDisconnectNamingTheRank) {
    // Rank 1 finishes immediately; rank 0 posts a receive that can never
    // complete. The EOF must convert to the typed TransportError naming the
    // departed peer (flattened to its message across the process boundary),
    // within the teardown bound — never a hang, never a raw socket error.
    for (const ForkedCase& fc : kForked) {
        const auto t0 = std::chrono::steady_clock::now();
        try {
            (void)fc.run_ranks(
                2, [](msg::Communicator& comm) -> std::vector<std::uint8_t> {
                    if (comm.rank() == 1) return {};
                    std::vector<double> buf(4);
                    comm.recv(1, 3, buf);
                    return {};
                });
            FAIL() << "expected the disconnect to surface (" << fc.name()
                   << ")";
        } catch (const std::runtime_error& e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("peer rank 1 disconnected"),
                      std::string::npos)
                << fc.name() << ": " << what;
        }
        EXPECT_LT(elapsed_since(t0), 30.0) << fc.name();
    }
}

// ---------------------------------------------------------------------------
// Cross-transport parity: the process substrate must be invisible in
// results, on either mesh and in either progress mode.

TEST(Parity, AllNineBitwiseIdenticalAcrossTransports) {
    const auto cfg = small_config();
    for (const auto& entry : impl::registry()) {
        const auto a = impl::launch_solver(entry.id, cfg, {});
        for (const ForkedCase& fc : kForked) {
            const auto b = impl::launch_solver(entry.id, cfg, fc.options());
            EXPECT_TRUE(a.result.state.interior_equals(b.result.state))
                << entry.id << " over " << fc.name();
            EXPECT_GT(b.result.wall_seconds, 0.0)
                << entry.id << " over " << fc.name();
        }
    }
}

TEST(Parity, ChaosSeedReplayLogsIdenticalAcrossTransports) {
    // Drop-and-retransmit and jitter through the mesh transport: the
    // recovered state and the merged fault log must match the in-process
    // run exactly, in both progress modes (retransmit requests travel as
    // RETRANS frames each peer serves at its next wait). The one-rank
    // implementations (§IV-A/E) run as rank 0 on every transport, so their
    // rank-keyed draws (a straggler pinned to rank 0, device launch
    // failures) fire alike.
    const auto cfg = small_config(14, 3);
    const struct {
        const char* impl;
        chaos::FaultPlan plan;
    } inputs[] = {
        {"mpi_nonblocking", chaos::nic_jitter(150.0, 42)},
        {"mpi_nonblocking", chaos::message_drops(0.5, 11)},
        {"single_task", chaos::straggler_ranks(1, 50.0, 7)},
        {"gpu_resident", chaos::gpu_flaky(0.3, 7)},
    };
    for (const auto& in : inputs) {
        SCOPED_TRACE(in.impl);
        impl::LaunchOptions inproc;
        inproc.fault_plan = &in.plan;
        const auto a = impl::launch_solver(in.impl, cfg, inproc);
        ASSERT_GT(a.fault_log.size(), 0u);
        for (const ForkedCase& fc : kForked) {
            const auto b = impl::launch_solver(in.impl, cfg, fc.options(inproc));
            ASSERT_EQ(a.fault_log.size(), b.fault_log.size()) << fc.name();
            EXPECT_EQ(a.fault_log, b.fault_log)  // sorted by the launcher
                << fc.name();
            EXPECT_TRUE(a.result.state.interior_equals(b.result.state))
                << fc.name();
        }
    }
}

TEST(Parity, TraceShapeIdenticalAcrossTransports) {
    const auto cfg = small_config();
    for (const char* id : {"mpi_bulk", "cpu_gpu_overlap"}) {
        impl::LaunchOptions inproc;
        inproc.trace = true;
        impl::LaunchOptions socket = inproc;
        socket.transport = impl::TransportKind::Socket;
        const auto a = impl::launch_solver(id, cfg, inproc);
        const auto b = impl::launch_solver(id, cfg, socket);
        ASSERT_GT(a.spans.size(), 0u) << id;
        EXPECT_EQ(shape_of(a.spans), shape_of(b.spans)) << id;
        // Worker spans were rebased onto the parent's timeline: they must
        // sit near zero, not at the absolute monotonic clock.
        for (const auto& s : b.spans) {
            EXPECT_GE(s.t1, s.t0) << id;
            EXPECT_LT(s.t1, 120.0) << id;
        }
    }
}

// ---------------------------------------------------------------------------
// One layout, one rank body: the launcher lays a job out once in the caller
// (impl::plan_job) and every transport runs the same rank body on it.

TEST(Launch, BadJobsThrowTypedErrorsInTheCaller) {
    // Both errors come from the layout, before any rank thread or worker
    // process starts, so they surface with their own types on every
    // transport instead of as a worker failure.
    auto bad_scenario = small_config();
    bad_scenario.problem.scenario.faces[core::kFaceXHi] =
        core::BoundaryKind::Outflow;  // x-low is still periodic
    auto thin = small_config(7, 2);
    thin.ntasks = 2;  // 1x1x2: z extents 4 (rank 0) and 3 (rank 1)
    thin.fuse = 4;
    std::vector<impl::LaunchOptions> all = {impl::LaunchOptions{}};
    for (const ForkedCase& fc : kForked) all.push_back(fc.options());
    for (const auto& opts : all) {
        const char* name = impl::transport_name(opts.transport);
        try {
            (void)impl::launch_solver("mpi_bulk", bad_scenario, opts);
            FAIL() << name << ": expected std::invalid_argument";
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find("invalid scenario"),
                      std::string::npos)
                << name << ": " << e.what();
        }
        try {
            (void)impl::launch_solver("mpi_bulk", thin, opts);
            FAIL() << name << ": expected FuseGeometryError";
        } catch (const advect::plan::FuseGeometryError& e) {
            EXPECT_EQ(std::string(e.what()).rfind("rank 1: ", 0), 0u)
                << name << ": " << e.what();
        }
    }
}

TEST(Launch, OneRankJobsRunAsRankZeroOnEveryTransport) {
    // §IV-A/E ignore the task count: one rank thread in process, one worker
    // process when forked. Every span the job records is rank 0's, the
    // device's setup sync (the coefficient upload) included.
    const auto cfg = small_config();  // asks for 4 tasks
    for (const char* id : {"single_task", "gpu_resident"}) {
        impl::LaunchOptions inproc;
        inproc.trace = true;
        std::vector<impl::LaunchOptions> all = {inproc};
        for (const ForkedCase& fc : kForked) all.push_back(fc.options(inproc));
        for (const auto& opts : all) {
            const auto report = impl::launch_solver(id, cfg, opts);
            const char* name = impl::transport_name(opts.transport);
            std::size_t checked = 0;
            for (const auto& s : report.spans) {
                ++checked;
                EXPECT_EQ(s.rank, 0) << id << " over " << name << ": span "
                                     << s.category << "/" << s.name;
            }
            EXPECT_GT(checked, 0u) << id << " over " << name;
        }
    }
}

TEST(Launch, FailedSolveLeavesTheRecorderOff) {
    // The launcher owns the process-wide recorder for a traced run; a solve
    // that throws must hand it back switched off, as a finished one does.
    auto cfg = small_config(3, 2);
    cfg.fuse = 4;  // a 3^3 box cannot hold a 4-deep halo
    impl::LaunchOptions inproc;
    inproc.trace = true;
    impl::LaunchOptions socket = inproc;
    socket.transport = impl::TransportKind::Socket;
    for (const auto& opts : {inproc, socket}) {
        EXPECT_THROW((void)impl::launch_solver("single_task", cfg, opts),
                     advect::plan::FuseGeometryError);
        EXPECT_FALSE(advect::trace::enabled())
            << impl::transport_name(opts.transport);
    }
}

TEST(Launch, ForkedDeviceWorkEndsBeforeTheClosingTimer) {
    // The timer rule on the forked path: each worker runs the same rank
    // body, so the union of a rank's device spans, shipped back and
    // rebased onto the caller's timeline, fits in the job's wall time.
    const auto cfg = small_config(12, 3);
    impl::LaunchOptions opts;
    opts.trace = true;
    opts.transport = impl::TransportKind::Socket;
    for (const char* id : {"gpu_resident", "gpu_mpi_streams"}) {
        const auto report = impl::launch_solver(id, cfg, opts);
        const int nranks =
            impl::find_implementation(id).uses_mpi ? cfg.ntasks : 1;
        for (int rank = 0; rank < nranks; ++rank) {
            const double busy = advect::trace::summarize_rank(report.spans, rank)
                                    .busy_of(advect::trace::Lane::Gpu);
            EXPECT_GT(busy, 0.0) << id << ", rank " << rank;
            EXPECT_LE(busy, report.result.wall_seconds)
                << id << ", rank " << rank;
        }
    }
}

// ---------------------------------------------------------------------------
// The headline bugfix: a chaos drop inside a collective must not hang.

/// A plan that drops every message of one collective site and whose receive
/// timeout is far beyond the test deadline, so only the deadline path can
/// terminate the wait.
chaos::FaultPlan drop_collective(const char* site, double timeout_s) {
    chaos::FaultPlan plan;
    plan.seed = 5;
    plan.timeout_s = timeout_s;
    chaos::FaultRule rule;
    rule.kind = chaos::FaultKind::MsgDrop;
    rule.site = site;
    rule.step_lo = -1;  // harness collectives run at step -1
    rule.probability = 1.0;
    plan.rules.push_back(rule);
    return plan;
}

TEST(CollectiveTimeout, DropInAllreduceThrowsTypedErrorNotHang) {
    const auto plan = drop_collective("allreduce_sum", /*timeout_s=*/30.0);
    const auto t0 = std::chrono::steady_clock::now();
    chaos::Session session(plan);
    try {
        msg::run_ranks(3, [](msg::Communicator& comm) {
            (void)comm.allreduce_sum(1.0, /*timeout_seconds=*/0.3);
        });
        FAIL() << "expected CollectiveTimeoutError";
    } catch (const msg::CollectiveTimeoutError& e) {
        EXPECT_EQ(e.op(), "allreduce_sum");
        EXPECT_FALSE(e.phase().empty());
        EXPECT_GE(e.rank(), 0);
        EXPECT_LT(e.rank(), 3);
        EXPECT_NE(std::string(e.what()).find("stalled in"),
                  std::string::npos);
    }
    // The whole point: terminate in ~the deadline, not the chaos timeout
    // (30 s) and certainly not forever.
    EXPECT_LT(elapsed_since(t0), 5.0);
}

TEST(CollectiveTimeout, BroadcastAndMaxHonourDeadlines) {
    const auto t0 = std::chrono::steady_clock::now();
    {
        const auto plan = drop_collective("broadcast", 30.0);
        chaos::Session session(plan);
        try {
            msg::run_ranks(2, [](msg::Communicator& comm) {
                (void)comm.broadcast(7.0, /*root=*/0,
                                     /*timeout_seconds=*/0.2);
            });
            FAIL() << "expected CollectiveTimeoutError";
        } catch (const msg::CollectiveTimeoutError& e) {
            EXPECT_EQ(e.op(), "broadcast");
        }
    }
    {
        const auto plan = drop_collective("allreduce_max", 30.0);
        chaos::Session session(plan);
        try {
            msg::run_ranks(2, [](msg::Communicator& comm) {
                (void)comm.allreduce_max(1.0, /*timeout_seconds=*/0.2);
            });
            FAIL() << "expected CollectiveTimeoutError";
        } catch (const msg::CollectiveTimeoutError& e) {
            EXPECT_EQ(e.op(), "allreduce_max");
        }
    }
    EXPECT_LT(elapsed_since(t0), 5.0);
}

TEST(CollectiveTimeout, DropRecoversThroughRetransmissionWithoutDeadline) {
    // Same drop, but a sane chaos receive timeout and no user deadline: the
    // collective retransmits and completes with the right answer.
    const auto plan = drop_collective("allreduce_sum", /*timeout_s=*/0.02);
    chaos::Session session(plan);
    msg::run_ranks(3, [](msg::Communicator& comm) {
        EXPECT_EQ(comm.allreduce_sum(static_cast<double>(comm.rank())), 3.0);
    });
    std::size_t drops = 0;
    for (const auto& e : session.log())
        if (e.kind == chaos::FaultKind::MsgDrop) ++drops;
    EXPECT_GE(drops, 1u);
}

TEST(CollectiveTimeout, GenerousDeadlineIsHarmlessWithoutChaos) {
    msg::run_ranks(4, [](msg::Communicator& comm) {
        EXPECT_EQ(comm.allreduce_sum(1.0, /*timeout_seconds=*/30.0), 4.0);
        EXPECT_EQ(comm.allreduce_max(static_cast<double>(comm.rank()), 30.0),
                  3.0);
        EXPECT_EQ(comm.broadcast(2.5, /*root=*/1, 30.0), 2.5);
    });
}

TEST(CollectiveTimeout, SocketBackendTimesOutToo) {
    // Across the process boundary the error arrives as std::runtime_error
    // carrying the worker's message (run_process_ranks contract); the text
    // still names the collective, the stalled phase and the rank.
    const auto cfg = small_config();
    const auto plan = drop_collective("allreduce_max", /*timeout_s=*/30.0);
    const auto t0 = std::chrono::steady_clock::now();
    try {
        (void)msg::run_process_ranks(2, [&plan](msg::Communicator& comm) {
            chaos::Session session(plan);
            (void)comm.allreduce_max(1.0, /*timeout_seconds=*/0.3);
            return std::vector<std::uint8_t>{};
        });
        FAIL() << "expected a timeout error from the workers";
    } catch (const std::runtime_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("allreduce_max"), std::string::npos);
        EXPECT_NE(what.find("stalled in"), std::string::npos);
    }
    EXPECT_LT(elapsed_since(t0), 10.0);
    (void)cfg;
}

}  // namespace
