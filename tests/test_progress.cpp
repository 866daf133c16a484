// Seeded stress of the mesh transport's progress engine (docs/TRANSPORT.md
// §stage 2) over real stream-socket meshes built inside one process — a
// socketpair mesh and a localhost TCP rendezvous: each rank is a thread
// owning its own MeshTransport, so the whole engine — per-peer outbound
// queues and the eager write, the split between the waiting rank (the only
// reader) and the engine thread (which only flushes sends), the incremental
// frame parser, sequence verification, fail_source teardown, and the typed
// error of every protocol violation — runs with no fork and is safe for the
// TSan/ASan CI jobs (unlike test_transport, which forks).

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <latch>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "msg/comm.hpp"
#include "msg/transport/mesh.hpp"
#include "msg/transport/tcp.hpp"
#include "msg/transport/wire.hpp"

namespace msg = advect::msg;
namespace wire = advect::msg::wire;

namespace {

constexpr msg::ProgressMode kModes[] = {msg::ProgressMode::Thread,
                                        msg::ProgressMode::Polled};

/// The two ways the launchers connect a mesh (process.hpp).
enum class Rendezvous { Socketpair, Tcp };

/// One cell of the {socketpair, tcp} x {thread, polled} matrix.
struct MeshCase {
    Rendezvous how;
    msg::ProgressMode mode;
    [[nodiscard]] std::string name() const {
        return std::string(how == Rendezvous::Tcp ? "tcp" : "socketpair") +
               "/" + msg::progress_mode_name(mode);
    }
};
constexpr MeshCase kMatrix[] = {
    {Rendezvous::Socketpair, msg::ProgressMode::Thread},
    {Rendezvous::Socketpair, msg::ProgressMode::Polled},
    {Rendezvous::Tcp, msg::ProgressMode::Thread},
    {Rendezvous::Tcp, msg::ProgressMode::Polled},
};

/// Build `n` ranks' rows of a full mesh. Socketpair: one pair per rank
/// pair, as run_process_ranks builds before fork. Tcp: bind one ephemeral
/// localhost listener per rank, publish the endpoint list, and let every
/// rank dial/accept concurrently — the rendezvous run_tcp_ranks performs
/// across processes, with ranks as threads.
std::vector<std::vector<int>> connect_local_mesh(int n, Rendezvous how) {
    const auto un = static_cast<std::size_t>(n);
    std::vector<std::vector<int>> meshes(un, std::vector<int>(un, -1));
    if (how == Rendezvous::Socketpair) {
        for (std::size_t i = 0; i < un; ++i)
            for (std::size_t j = i + 1; j < un; ++j) {
                int sv[2];
                if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0)
                    throw std::runtime_error("socketpair failed");
                meshes[i][j] = sv[0];
                meshes[j][i] = sv[1];
            }
        return meshes;
    }
    std::vector<std::unique_ptr<msg::TcpListener>> listeners;
    std::vector<std::string> endpoints;
    for (int r = 0; r < n; ++r) {
        listeners.push_back(std::make_unique<msg::TcpListener>("127.0.0.1"));
        endpoints.push_back("127.0.0.1:" +
                            std::to_string(listeners.back()->port()));
    }
    std::vector<std::thread> dialers;
    for (int r = 0; r < n; ++r)
        dialers.emplace_back([&, r] {
            meshes[static_cast<std::size_t>(r)] =
                msg::tcp_connect_mesh(r, endpoints, *listeners[r]);
        });
    for (auto& t : dialers) t.join();
    return meshes;
}

/// Run `rank_main` on `n` rank threads, each over its own MeshTransport in
/// `mode`; rethrows the first rank's exception after all threads join.
void run_mesh_threads(
    int n, Rendezvous how, msg::ProgressMode mode,
    const std::function<void(msg::Communicator&)>& rank_main) {
    auto meshes = connect_local_mesh(n, how);
    std::vector<std::exception_ptr> errors(static_cast<std::size_t>(n));
    std::vector<std::thread> ranks;
    for (int r = 0; r < n; ++r)
        ranks.emplace_back([&, r] {
            try {
                msg::MeshTransport transport(
                    r, std::move(meshes[static_cast<std::size_t>(r)]), mode);
                msg::Communicator comm(transport);
                rank_main(comm);
            } catch (...) {
                errors[static_cast<std::size_t>(r)] =
                    std::current_exception();
            }
        });
    for (auto& t : ranks) t.join();
    for (auto& e : errors)
        if (e) std::rethrow_exception(e);
}

constexpr int kRanks = 3;
constexpr int kMessages = 120;  ///< per ordered (src, dst) pair
constexpr std::size_t kMaxLen = 48;

/// Deterministic payload length and contents of message `i` on the
/// (src, dst) channel, so the receiver can verify delivery without any
/// side channel.
std::size_t payload_len(int src, int dst, int i) {
    return 1 + static_cast<std::size_t>((src * 7919 + dst * 104729 + i) %
                                        static_cast<int>(kMaxLen));
}
double payload_value(int src, int dst, int i, std::size_t j) {
    return src * 1e6 + dst * 1e4 + i * 1e2 + static_cast<double>(j);
}

/// Sender `rank`'s seeded interleaving of its (dst, message-index) sends —
/// a pure function of (rank, mode), so every receiver can recompute the
/// per-channel arrival order it must observe (delivery is non-overtaking
/// per channel, but channels interleave however the sender fired them).
std::vector<std::pair<int, int>> send_order(int rank, msg::ProgressMode mode) {
    std::vector<std::pair<int, int>> sends;
    for (int dst = 0; dst < kRanks; ++dst) {
        if (dst == rank) continue;
        for (int i = 0; i < kMessages; ++i) sends.emplace_back(dst, i);
    }
    std::mt19937 rng(2654435761u * static_cast<unsigned>(rank + 1) +
                     (mode == msg::ProgressMode::Polled ? 17u : 0u));
    std::shuffle(sends.begin(), sends.end(), rng);
    return sends;
}

TEST(ProgressStress, SeededOutstandingIsendsDeliverExactlyOnceInOrder) {
    // Every rank floods every peer with kMessages sends in a seeded random
    // interleaving across destinations, with all receives posted up front
    // and waited on in another seeded random order. Exactly-once, in-order
    // delivery means the i-th posted receive from src holds precisely
    // message i (FIFO matching over a non-overtaking stream): a lost
    // message hangs the wait, a duplicate or reorder corrupts the contents.
    for (const MeshCase& mc : kMatrix) {
        SCOPED_TRACE(mc.name());
        const msg::ProgressMode mode = mc.mode;
        run_mesh_threads(kRanks, mc.how, mode, [mode](msg::Communicator& comm) {
            const int rank = comm.rank();

            // Per source: the message indices in the order that sender
            // fires them at us — the exact arrival order a lossless,
            // non-overtaking channel must reproduce.
            std::vector<std::vector<int>> expect(kRanks);
            for (int src = 0; src < kRanks; ++src) {
                if (src == rank) continue;
                for (const auto& [dst, i] : send_order(src, mode))
                    if (dst == rank) expect[src].push_back(i);
            }

            std::vector<std::vector<std::vector<double>>> buf(kRanks);
            std::vector<std::vector<msg::Request>> reqs(kRanks);
            for (int src = 0; src < kRanks; ++src) {
                if (src == rank) continue;
                buf[src].assign(kMessages, std::vector<double>(kMaxLen, -1));
                for (int i = 0; i < kMessages; ++i)
                    reqs[src].push_back(comm.irecv(src, 7, buf[src][i]));
            }

            for (const auto& [dst, i] : send_order(rank, mode)) {
                std::vector<double> data(payload_len(rank, dst, i));
                for (std::size_t j = 0; j < data.size(); ++j)
                    data[j] = payload_value(rank, dst, i, j);
                comm.isend(dst, 7, data).wait();
            }

            // Wait in a seeded random order unrelated to arrival order.
            std::mt19937 rng(0x5bd1e995u * static_cast<unsigned>(rank + 1) +
                             (mode == msg::ProgressMode::Polled ? 29u : 0u));
            std::vector<std::pair<int, int>> waits;
            for (int src = 0; src < kRanks; ++src) {
                if (src == rank) continue;
                for (int k = 0; k < kMessages; ++k) waits.emplace_back(src, k);
            }
            std::shuffle(waits.begin(), waits.end(), rng);
            for (const auto& [src, k] : waits) reqs[src][k].wait();

            // The k-th posted receive from src must hold precisely the k-th
            // message that sender fired at us: anything lost would hang the
            // waits above, anything duplicated or reordered mismatches here.
            for (int src = 0; src < kRanks; ++src) {
                if (src == rank) continue;
                for (int k = 0; k < kMessages; ++k) {
                    const int i = expect[src][static_cast<std::size_t>(k)];
                    const std::size_t len = payload_len(src, rank, i);
                    ASSERT_EQ(reqs[src][k].count(), len)
                        << "src " << src << " arrival " << k << " on rank "
                        << rank << " (" << msg::progress_mode_name(mode)
                        << ")";
                    for (std::size_t j = 0; j < len; ++j)
                        ASSERT_EQ(buf[src][k][j],
                                  payload_value(src, rank, i, j))
                            << "src " << src << " arrival " << k << " word "
                            << j;
                }
            }
        });
    }
}

TEST(ProgressStress, FrameLargerThanTheSocketBufferArrivesBeforeLaterSends) {
    // A 4 MiB frame cannot fit any socket buffer: in Thread mode the eager
    // write sends a prefix and queues the remainder for the engine, and
    // the small send that follows must queue behind it, not overtake it.
    static constexpr std::size_t kBig = 512 * 1024;
    for (const MeshCase& mc : kMatrix) {
        SCOPED_TRACE(mc.name());
        run_mesh_threads(2, mc.how, mc.mode, [](msg::Communicator& comm) {
            const int peer = 1 - comm.rank();
            std::vector<double> big(kBig), small{-1.0};
            for (std::size_t i = 0; i < kBig; ++i)
                big[i] = static_cast<double>(comm.rank()) * 1e7 +
                         static_cast<double>(i);
            std::vector<double> big_in(kBig), small_in(1);
            auto r_big = comm.irecv(peer, 1, big_in);
            auto r_small = comm.irecv(peer, 1, small_in);
            comm.isend(peer, 1, big).wait();
            comm.isend(peer, 1, small).wait();
            r_big.wait();
            r_small.wait();
            ASSERT_EQ(r_big.count(), kBig);
            for (std::size_t i = 0; i < kBig; ++i)
                ASSERT_EQ(big_in[i], static_cast<double>(peer) * 1e7 +
                                         static_cast<double>(i))
                    << "word " << i;
            EXPECT_EQ(small_in[0], -1.0);
        });
    }
}

TEST(ProgressReaders, OnlyTheWaitingRankReadsItsSockets) {
    // The engine thread flushes sends and never reads: a message that
    // reaches a rank with no receive posted stays in the socket until that
    // rank waits, instead of being queued into its mailbox behind its back
    // (which cost every awaited message a second thread wake-up).
    for (const Rendezvous how : {Rendezvous::Socketpair, Rendezvous::Tcp}) {
        SCOPED_TRACE(how == Rendezvous::Tcp ? "tcp" : "socketpair");
        auto meshes = connect_local_mesh(2, how);
        msg::MeshTransport t(0, std::move(meshes[0]),
                             msg::ProgressMode::Thread);
        std::thread peer([&] {
            msg::MeshTransport t1(1, std::move(meshes[1]),
                                  msg::ProgressMode::Thread);
            msg::Communicator comm(t1);
            const std::vector<double> one{42.0};
            comm.isend(0, 3, one).wait();
        });
        peer.join();  // sent, flushed and closed
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        EXPECT_EQ(t.mailbox().pending_messages(), 0u);
        msg::Communicator comm(t);
        std::vector<double> in(1, 0.0);
        comm.irecv(1, 3, in).wait();
        EXPECT_EQ(in[0], 42.0);
    }
}

TEST(ProgressEngine, QueuedSendsMoveWhileTheRankIsAwayOnlyInThreadMode) {
    // What the engine thread still owns (the paper's Fig 3): rank 0 isends a
    // frame larger than any socket buffer, then blocks outside the
    // transport. With the engine thread the remainder still flows, so rank
    // 1's plain wait completes. Polled, nothing pumps rank 0: rank 1's wait
    // times out until rank 0's own next wait pumps its queue.
    static constexpr std::size_t kBig = 512 * 1024;  // 4 MiB of doubles
    for (const MeshCase& mc : kMatrix) {
        SCOPED_TRACE(mc.name());
        const bool threaded = mc.mode == msg::ProgressMode::Thread;
        auto meshes = connect_local_mesh(2, mc.how);
        std::latch away(1);
        std::thread peer([&] {
            bool released = false;
            const auto release = [&] {
                if (!released) away.count_down();
                released = true;
            };
            try {
                msg::MeshTransport t(1, std::move(meshes[1]), mc.mode);
                msg::Communicator comm(t);
                std::vector<double> in(kBig, -1.0);
                msg::Request r = comm.irecv(0, 1, in);
                if (threaded) {
                    r.wait();
                } else {
                    EXPECT_THROW(r.wait(0.2), msg::TimeoutError);
                    release();
                    r.wait();
                }
                release();
                ASSERT_EQ(r.count(), kBig);
                for (std::size_t i = 0; i < kBig; ++i)
                    ASSERT_EQ(in[i], static_cast<double>(i)) << "word " << i;
                const std::vector<double> ack{1.0};
                comm.isend(0, 2, ack).wait();
            } catch (...) {
                release();
                ADD_FAILURE() << "rank 1 threw";
            }
        });
        try {
            msg::MeshTransport t(0, std::move(meshes[0]), mc.mode);
            msg::Communicator comm(t);
            std::vector<double> big(kBig);
            for (std::size_t i = 0; i < kBig; ++i)
                big[i] = static_cast<double>(i);
            comm.isend(1, 1, big).wait();
            away.wait();  // outside the transport
            std::vector<double> ack(1, 0.0);
            comm.recv(1, 2, ack);
            EXPECT_EQ(ack[0], 1.0);
        } catch (const std::exception& e) {
            ADD_FAILURE() << "rank 0 threw: " << e.what();
        }
        peer.join();
    }
}

TEST(ProgressTeardown, DepartedPeerFailsExplicitReceiveTyped) {
    // A peer that leaves cleanly: messages its stream delivered before the
    // EOF are still honoured, anything else from it fails with the typed
    // TransportError naming the rank — in both modes, with no fork, so the
    // error type itself is observable (the forked launcher only sees the
    // flattened message).
    for (const MeshCase& mc : kMatrix) {
        SCOPED_TRACE(mc.name());
        const msg::ProgressMode mode = mc.mode;
        auto meshes = connect_local_mesh(2, mc.how);
        std::thread peer([&] {
            msg::MeshTransport t(1, std::move(meshes[1]), mode);
            msg::Communicator comm(t);
            const std::vector<double> one{42.0};
            comm.isend(0, 3, one).wait();
            // Transport destruction flushes the frame, then closes: EOF.
        });
        {
            msg::MeshTransport t(0, std::move(meshes[0]), mode);
            msg::Communicator comm(t);
            std::vector<double> in(1, 0.0);
            comm.recv(1, 3, in);
            EXPECT_EQ(in[0], 42.0) << msg::progress_mode_name(mode);
            std::vector<double> never(1);
            try {
                comm.recv(1, 4, never);
                FAIL() << "expected TransportError ("
                       << msg::progress_mode_name(mode) << ")";
            } catch (const msg::TransportError& e) {
                EXPECT_EQ(e.rank(), 1);
                EXPECT_NE(std::string(e.what()).find("disconnected"),
                          std::string::npos)
                    << e.what();
            }
        }
        peer.join();
    }
}

TEST(ProgressTeardown, WildcardReceiveSurvivesAnotherPeersDeparture) {
    // fail_source must only kill explicit receives naming the departed
    // rank: a wildcard receive stays pending and completes from a peer
    // that is still alive.
    for (const MeshCase& mc : kMatrix) {
        SCOPED_TRACE(mc.name());
        const msg::ProgressMode mode = mc.mode;
        auto meshes = connect_local_mesh(3, mc.how);
        std::thread leaver([&] {
            msg::MeshTransport t(2, std::move(meshes[2]), mode);
            // Departs without a word.
        });
        std::thread sender([&] {
            msg::MeshTransport t(1, std::move(meshes[1]), mode);
            msg::Communicator comm(t);
            const std::vector<double> hello{7.5};
            comm.isend(0, 5, hello).wait();
        });
        {
            msg::MeshTransport t(0, std::move(meshes[0]), mode);
            msg::Communicator comm(t);
            std::vector<double> in(1, 0.0);
            comm.recv(msg::kAnySource, 5, in);
            EXPECT_EQ(in[0], 7.5) << msg::progress_mode_name(mode);
        }
        leaver.join();
        sender.join();
    }
}

// ---------------------------------------------------------------------------
// Protocol violations: every path that used to abort the process now fails
// the offending peer's receives with a TransportError naming both ranks.
// Rank 0 owns a MeshTransport over one end of a socketpair; the test plays
// peer rank 1 by writing crafted bytes into the other end.

/// A DATA frame as peer `src` would send it (wire.hpp).
std::vector<std::uint8_t> data_frame(std::uint32_t src, std::uint64_t seq,
                                     std::vector<double> values) {
    wire::ByteWriter w;
    w.u32(src);
    w.i32(3);  // tag
    w.u64(seq);
    w.doubles(values);
    return wire::encode_frame(wire::kFrameData, w.bytes());
}

/// Write `bytes` as peer rank 1, then expect rank 0's receives from rank 1
/// to deliver `good_values` (frames the stream carried before the
/// violation) and then throw a TransportError naming rank 1 whose message
/// contains `violation` — in both progress modes, without aborting.
void expect_violation(const std::vector<std::uint8_t>& bytes,
                      const std::vector<double>& good_values,
                      const std::string& violation) {
    for (auto mode : kModes) {
        SCOPED_TRACE(msg::progress_mode_name(mode));
        int sv[2];
        ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
        {
            msg::MeshTransport t(0, {-1, sv[0]}, mode);
            msg::Communicator comm(t);
            ASSERT_EQ(::send(sv[1], bytes.data(), bytes.size(), MSG_NOSIGNAL),
                      static_cast<ssize_t>(bytes.size()));
            std::vector<double> in(1, 0.0);
            for (const double v : good_values) {
                comm.recv(1, 3, in);
                EXPECT_EQ(in[0], v);
            }
            try {
                comm.recv(1, 3, in);
                FAIL() << "expected TransportError for " << violation;
            } catch (const msg::TransportError& e) {
                const std::string what = e.what();
                EXPECT_EQ(e.rank(), 1) << what;
                EXPECT_NE(what.find("rank 0"), std::string::npos) << what;
                EXPECT_NE(what.find("peer rank 1"), std::string::npos) << what;
                EXPECT_NE(what.find(violation), std::string::npos) << what;
                // A violation is a root cause, never the disconnect cascade.
                EXPECT_EQ(what.find("disconnected"), std::string::npos)
                    << what;
            }
        }
        ::close(sv[1]);
    }
}

TEST(ProtocolViolation, WrongSequenceNumberFailsReceivesTyped) {
    auto bytes = data_frame(1, 0, {42.0});
    const auto skipped = data_frame(1, 2, {43.0});  // seq 1 never sent
    bytes.insert(bytes.end(), skipped.begin(), skipped.end());
    expect_violation(bytes, {42.0}, "seq 2 (expected src 1 seq 1)");
}

TEST(ProtocolViolation, WrongClaimedSourceFailsReceivesTyped) {
    expect_violation(data_frame(2, 0, {42.0}), {},
                     "claiming src 2 seq 0 (expected src 1 seq 0)");
}

TEST(ProtocolViolation, UnknownFrameTypeFailsReceivesTyped) {
    expect_violation(wire::encode_frame(99, {}), {}, "unknown frame type 99");
}

TEST(ProtocolViolation, TruncatedDataFrameFailsReceivesTyped) {
    // A well-formed header whose payload ends inside the DATA fields.
    wire::ByteWriter w;
    w.u32(1);  // src, then nothing: no tag, seq or doubles
    expect_violation(wire::encode_frame(wire::kFrameData, w.bytes()), {},
                     "truncated DATA frame");
}

TEST(ProtocolViolation, OversizedLengthHeaderFailsReceivesTyped) {
    // Only the header: the length alone condemns the stream.
    std::vector<std::uint8_t> header(5);
    header[0] = wire::kFrameData;
    const std::uint32_t len = wire::kMaxFrameBytes + 1;
    std::memcpy(header.data() + 1, &len, sizeof len);
    expect_violation(header, {},
                     "length header of " + std::to_string(len) + " bytes");
}

TEST(ProtocolViolation, MessageLargerThanItsPostedReceiveFailsTyped) {
    // Not the peer's fault, but the transport's pass is where the overflow
    // is found: it must fail the receive typed instead of letting the
    // exception escape the pass. The receive is posted before the bytes are
    // written, so the pass matches it on arrival.
    for (auto mode : kModes) {
        SCOPED_TRACE(msg::progress_mode_name(mode));
        int sv[2];
        ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
        {
            msg::MeshTransport t(0, {-1, sv[0]}, mode);
            msg::Communicator comm(t);
            std::vector<double> in(1);
            auto req = comm.irecv(1, 3, in);
            const auto bytes = data_frame(1, 0, {1.0, 2.0});
            ASSERT_EQ(::send(sv[1], bytes.data(), bytes.size(), MSG_NOSIGNAL),
                      static_cast<ssize_t>(bytes.size()));
            try {
                req.wait();
                FAIL() << "expected TransportError";
            } catch (const msg::TransportError& e) {
                EXPECT_EQ(e.rank(), 1);
                EXPECT_NE(std::string(e.what()).find(
                              "receive buffer smaller than message"),
                          std::string::npos)
                    << e.what();
            }
        }
        ::close(sv[1]);
    }
}

}  // namespace
