// End-to-end tests for advectd over a real Unix-domain socket
// (docs/SERVICE.md): typed rejects on the wire (a hostile, deeply nested
// spec included), drain semantics, bitwise determinism of concurrent
// mixed-tenant jobs against standalone launch_solver runs, and the full
// game-day gate — every admitted job completes under the correlated-fault
// overlay, the 2:1 fair-share weight is observable within 15%, and every
// returned state matches the reference bitwise. Every protocol read is
// bounded by a typed timeout, so a wedged daemon fails these tests instead
// of hanging them.
//
// The daemon here executes in-process-transport jobs only; nothing forks.
// Still, the suite exercises real sockets and a daemon thread — keep it out
// of any TSan/ASan CI target list alongside test_transport.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "impl/launch.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"
#include "service/gameday.hpp"
#include "service/slo.hpp"

namespace impl = advect::impl;
namespace service = advect::service;

namespace {

std::string unique_socket(const std::string& tag) {
    return "/tmp/advectd-test-" + tag + "-" + std::to_string(::getpid()) +
           ".sock";
}

service::JobSpec small_spec(const std::string& tenant) {
    service::JobSpec s;
    s.tenant = tenant;
    s.impl = "mpi_nonblocking";
    s.n = 14;
    s.steps = 3;
    s.ranks = 2;
    s.threads = 1;
    return s;
}

/// Connect with retries while the daemon thread brings the socket up.
service::Client connect_when_up(const std::string& path) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (true) {
        try {
            return service::Client(path, /*timeout_s=*/60.0);
        } catch (const std::system_error&) {
            if (std::chrono::steady_clock::now() >= deadline)
                throw service::TimeoutError("daemon socket never came up");
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
    }
}

/// A daemon on its own thread; drain() through any client stops it.
struct DaemonFixture {
    explicit DaemonFixture(service::DaemonConfig cfg)
        : daemon(std::move(cfg)), server([this] {
              try {
                  daemon.run();
              } catch (...) {
                  error = std::current_exception();
              }
          }) {}
    ~DaemonFixture() {
        if (server.joinable()) {
            try {
                service::Client killer(daemon.config().socket_path, 5.0);
                (void)killer.drain();
            } catch (...) {
            }
            server.join();
        }
    }
    service::Daemon daemon;
    std::exception_ptr error;
    std::thread server;
};

}  // namespace

TEST(ServiceE2e, TypedRejectsOverTheWire) {
    service::DaemonConfig dc;
    dc.socket_path = unique_socket("rejects");
    DaemonFixture fx(dc);
    service::Client client = connect_when_up(dc.socket_path);

    service::JobSpec late = small_spec("t");
    late.deadline_s = 1e-12;
    try {
        (void)client.submit(late);
        FAIL() << "expected RejectedError";
    } catch (const service::RejectedError& e) {
        EXPECT_EQ(e.reason(), service::RejectReason::DeadlineInfeasible);
    }

    service::JobSpec bad = small_spec("t");
    bad.impl = "warp_drive";
    try {
        (void)client.submit(bad);
        FAIL() << "expected RejectedError";
    } catch (const service::RejectedError& e) {
        EXPECT_EQ(e.reason(), service::RejectReason::BadSpec);
        // The daemon ships the named-key validation message verbatim.
        EXPECT_NE(e.detail().find("impl"), std::string::npos);
    }

    // A spec the launcher could never lay out rejects at submit time, not
    // at dispatch: rotating-inflow (variable velocity, open x faces) never
    // fuses.
    service::JobSpec unfusable = small_spec("t");
    unfusable.impl = "single_task";
    unfusable.n = 16;
    unfusable.scenario = "rotating-inflow";
    unfusable.fuse = 2;
    try {
        (void)client.submit(unfusable);
        FAIL() << "expected RejectedError";
    } catch (const service::RejectedError& e) {
        EXPECT_EQ(e.reason(), service::RejectReason::BadSpec);
        EXPECT_NE(e.detail().find("fuse"), std::string::npos) << e.detail();
    }

    const std::string report = client.drain();
    fx.server.join();
    ASSERT_FALSE(fx.error);
    const service::SloReport r = service::report_from_json(report);
    // The deadline reject is attributed to the tenant (its spec parsed);
    // the bad specs never parsed, so they land on the "<unknown>" account.
    int rejected_deadline = 0, rejected_bad = 0;
    for (const auto& t : r.tenants) {
        rejected_deadline += t.rejected_deadline;
        rejected_bad += t.rejected_bad_spec;
        if (t.tenant == "t") {
            EXPECT_EQ(t.rejected_deadline, 1);
        }
    }
    EXPECT_EQ(rejected_deadline, 1);
    EXPECT_EQ(rejected_bad, 2);
    EXPECT_EQ(r.admitted, 0);
}

TEST(ServiceE2e, DrainFinishesQueuedWorkAndReportsOnce) {
    service::DaemonConfig dc;
    dc.socket_path = unique_socket("drain");
    DaemonFixture fx(dc);
    service::Client client = connect_when_up(dc.socket_path);

    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 3; ++i) ids.push_back(client.submit(small_spec("t")));
    // Drain without waiting first: the daemon must finish all three jobs,
    // deliver their events, then answer with the final report.
    const std::string report_json = client.drain();
    fx.server.join();
    ASSERT_FALSE(fx.error);

    for (std::uint64_t id : ids) {
        const service::CompletedJob done = client.wait(id);
        EXPECT_TRUE(done.ok) << done.error;
        EXPECT_GT(done.wall_s, 0.0);
    }
    const service::SloReport r = service::report_from_json(report_json);
    EXPECT_EQ(r.admitted, 3);
    ASSERT_EQ(r.tenants.size(), 1u);
    EXPECT_EQ(r.tenants[0].completed, 3);
    EXPECT_EQ(r.tenants[0].failed, 0);
}

TEST(ServiceE2e, PartialFrameCannotStallOtherTenants) {
    // POLLIN promises one readable byte, not a whole frame. A client that
    // trickles 3 bytes of a 5-byte header and stops must not wedge the
    // daemon: submissions and events for everyone else keep flowing (the
    // daemon buffers inbound bytes per connection and never blocks in
    // recv).
    service::DaemonConfig dc;
    dc.socket_path = unique_socket("partial");
    DaemonFixture fx(dc);
    service::Client client = connect_when_up(dc.socket_path);

    const int rogue = service::connect_unix(dc.socket_path);
    const std::uint8_t partial[3] = {service::kFrameSubmit, 0x10, 0x00};
    ASSERT_EQ(::send(rogue, partial, sizeof partial, MSG_NOSIGNAL), 3);

    const std::uint64_t id = client.submit(small_spec("t"));
    const service::CompletedJob done = client.wait(id);
    EXPECT_TRUE(done.ok) << done.error;

    ::close(rogue);
    (void)client.drain();
    fx.server.join();
    ASSERT_FALSE(fx.error);
}

TEST(ServiceE2e, NestedSubmitFrameIsRejectedAndTheDaemonServesOn) {
    // One submit frame of 40 000 nested arrays (about 80 KB, well under the
    // daemon's inbound frame bound) used to overflow the spec parser's
    // stack, ending the daemon and every tenant's queue with it. It must
    // get a typed bad-spec reject, as must a frame of an unknown type, and
    // the same daemon must then complete another tenant's job.
    service::DaemonConfig dc;
    dc.socket_path = unique_socket("nested");
    DaemonFixture fx(dc);
    service::Client client = connect_when_up(dc.socket_path);

    const int rogue = service::connect_unix(dc.socket_path);
    const std::string deep = R"({"tenant":"rogue","impl":)" +
                             std::string(40000, '[') +
                             std::string(40000, ']') + "}";
    service::write_text_frame(rogue, service::kFrameSubmit, deep);
    advect::msg::wire::Frame reply;
    ASSERT_TRUE(service::read_frame_timeout(rogue, reply, 60.0,
                                            "nested submit reply"));
    EXPECT_EQ(reply.type, service::kFrameReject);
    const std::string text(reply.payload.begin(), reply.payload.end());
    EXPECT_NE(text.find("bad-spec"), std::string::npos) << text;
    EXPECT_NE(text.find("nesting deeper than 64 levels"), std::string::npos)
        << text;

    // Frame type 24 once switched the game-day overlay at runtime; it is
    // now an unknown frame like any other.
    service::write_text_frame(rogue, 24, "gameday-nic-burst");
    ASSERT_TRUE(service::read_frame_timeout(rogue, reply, 60.0,
                                            "type-24 frame reply"));
    EXPECT_EQ(reply.type, service::kFrameReject);
    const std::string unknown(reply.payload.begin(), reply.payload.end());
    EXPECT_NE(unknown.find("bad-spec"), std::string::npos) << unknown;
    EXPECT_NE(unknown.find("unknown frame type 24"), std::string::npos)
        << unknown;
    ::close(rogue);

    const std::uint64_t id = client.submit(small_spec("t"));
    const service::CompletedJob done = client.wait(id);
    EXPECT_TRUE(done.ok) << done.error;

    (void)client.drain();
    fx.server.join();
    ASSERT_FALSE(fx.error);
}

TEST(ServiceE2e, DepartedSubmitterResultNeverLeaksToNewConnection) {
    // Jobs reference their submitter by a stable connection id, never the
    // fd: after the submitter disconnects, the kernel hands its fd number
    // to the next accept, and that unrelated (possibly different-tenant)
    // client must not receive the orphan's completion event or state.
    service::DaemonConfig dc;
    dc.socket_path = unique_socket("fdreuse");
    DaemonFixture fx(dc);
    {
        service::Client orphan = connect_when_up(dc.socket_path);
        service::JobSpec spec = small_spec("alpha");
        spec.return_state = true;
        (void)orphan.submit(spec);
    }  // disconnects with its job still queued; the fd number is now free
    service::Client other = connect_when_up(dc.socket_path);
    const std::uint64_t id = other.submit(small_spec("beta"));
    const service::CompletedJob done = other.wait(id);
    EXPECT_TRUE(done.ok) << done.error;
    EXPECT_EQ(done.id, id);
    EXPECT_EQ(done.tenant, "beta");
    // Any stray frame for the orphan would have been buffered while
    // waiting; the daemon must have dropped it instead.
    EXPECT_EQ(other.buffered(), 0u);
    const std::string report = other.drain();
    fx.server.join();
    ASSERT_FALSE(fx.error);
    // The orphan's job still ran and still counts toward the SLO ledger.
    const service::SloReport r = service::report_from_json(report);
    EXPECT_EQ(r.admitted, 2);
    for (const auto& t : r.tenants)
        if (t.tenant == "alpha") EXPECT_EQ(t.completed, 1);
}

TEST(ServiceE2e, ConcurrentTenantsBitwiseIdenticalToStandalone) {
    // The determinism arm: jobs scheduled through the daemon — interleaved
    // across tenants, queued, batched — must produce exactly the state a
    // standalone launch_solver run of the same spec produces.
    service::JobSpec base = small_spec("");
    impl::LaunchOptions opts;
    opts.transport = base.transport;
    const advect::core::Field3 reference =
        impl::launch_solver(base.impl, base.solver_config(), opts)
            .result.state;

    service::DaemonConfig dc;
    dc.socket_path = unique_socket("determinism");
    dc.tenant_weights = {{"alpha", 2.0}, {"beta", 1.0}};
    DaemonFixture fx(dc);

    std::vector<service::Client> clients;
    clients.push_back(connect_when_up(dc.socket_path));
    clients.push_back(connect_when_up(dc.socket_path));
    const std::vector<std::string> tenants = {"alpha", "beta"};
    std::vector<std::vector<std::uint64_t>> ids(2);
    for (int round = 0; round < 2; ++round)
        for (std::size_t i = 0; i < clients.size(); ++i) {
            service::JobSpec spec = base;
            spec.tenant = tenants[i];
            spec.return_state = true;
            ids[i].push_back(clients[i].submit(spec));
        }
    for (std::size_t i = 0; i < clients.size(); ++i)
        for (std::uint64_t id : ids[i]) {
            const service::CompletedJob done = clients[i].wait(id);
            EXPECT_TRUE(done.ok) << done.error;
            ASSERT_TRUE(done.state.has_value());
            EXPECT_TRUE(done.state->interior_equals(reference))
                << "job " << id << " of " << tenants[i]
                << " diverged from the standalone run";
        }
    (void)clients[0].drain();
    fx.server.join();
    ASSERT_FALSE(fx.error);
}

TEST(ServiceE2e, GameDayGateNicBurst) {
    // The acceptance gate (ISSUE 9): >= 4 tenants under the committed
    // bursty-NIC-jitter drill; every admitted job completes (typed timeouts
    // only — a hang fails, never blocks), the weight-2 tenant is served
    // 2.0x the mean weight-1 tenant within 15% over the contended window,
    // and every returned state is bitwise identical to standalone.
    service::GameDayConfig cfg;
    cfg.scenario = "gameday-nic-burst";
    cfg.tenants = 4;
    cfg.jobs_per_weight = 3;
    cfg.socket_path = unique_socket("gameday");
    const service::GameDayOutcome out = service::run_game_day(cfg);

    EXPECT_TRUE(out.all_completed);
    EXPECT_EQ(out.admitted, 15);  // round(2*3) + 3 * round(1*3)
    EXPECT_EQ(out.completed, out.admitted);
    EXPECT_EQ(out.failed, 0);
    EXPECT_TRUE(out.bitwise_ok);
    EXPECT_NEAR(out.observed_ratio, 2.0, 2.0 * 0.15);
    EXPECT_GE(out.fair_share_spread, 1.0);
    // The NIC drill injects real message delays; the trace must show them
    // being absorbed into slack rather than extending the critical path.
    EXPECT_GT(out.absorbed_fraction, 0.0);
    EXPECT_LE(out.absorbed_fraction, 1.0);
    EXPECT_EQ(out.report.gameday, "gameday-nic-burst");
    EXPECT_TRUE(out.gate_ok());
}

TEST(ServiceE2e, GameDayRankBlackoutCompletes) {
    service::GameDayConfig cfg;
    cfg.scenario = "gameday-rank-blackout";
    cfg.tenants = 2;
    cfg.weights = {2.0, 1.0};
    cfg.jobs_per_weight = 2;
    cfg.socket_path = unique_socket("blackout");
    const service::GameDayOutcome out = service::run_game_day(cfg);
    EXPECT_TRUE(out.all_completed);
    EXPECT_TRUE(out.bitwise_ok);
    EXPECT_EQ(out.report.gameday, "gameday-rank-blackout");
}
