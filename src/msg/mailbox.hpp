#pragma once
/// \file mailbox.hpp
/// Per-rank message matching. Each rank owns one mailbox holding unmatched
/// arrived messages and unmatched posted receives. Matching follows MPI
/// rules: a receive matches the earliest arrived message with the same tag
/// from the requested source (wildcards supported), and messages between a
/// given (source, destination) pair with the same tag are non-overtaking.

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>

#include "msg/request.hpp"

namespace advect::msg {

/// Wildcard source/tag values (MPI_ANY_SOURCE / MPI_ANY_TAG).
inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

/// First tag reserved for the runtime's own traffic (the collective
/// rendezvous messages in comm.cpp). User point-to-point sends must use
/// tags below this; a kAnyTag wildcard receive never matches a reserved
/// tag, so draining "everything" cannot steal a collective's messages.
inline constexpr int kSystemTagBase = 1 << 24;

/// A rank's incoming-message endpoint.
class Mailbox {
  public:
    /// Deliver `data` from `src` with `tag`. If a matching receive is
    /// already posted the payload is copied into its buffer and the
    /// receive's request completes; otherwise the payload is queued.
    /// Returns once the payload has been captured (buffered-send semantics:
    /// the sender's buffer is immediately reusable).
    void deliver(int src, int tag, std::span<const double> data);
    /// deliver() for doubles held as raw bytes at any alignment
    /// (`payload.size()` a multiple of 8): the mesh transport copies a DATA
    /// frame's payload from its read buffer straight into the matched
    /// receive.
    void deliver_bytes(int src, int tag, std::span<const std::uint8_t> payload);

    /// Post a receive into `out` for a message from `src` (or kAnySource)
    /// with `tag` (or kAnyTag). If a queued message already matches it is
    /// consumed immediately. The returned request completes when data has
    /// been copied into `out`.
    [[nodiscard]] Request post_receive(int src, int tag, std::span<double> out);

    /// Number of queued (unmatched) messages; for tests and diagnostics.
    [[nodiscard]] std::size_t pending_messages() const;
    /// Number of posted (unmatched) receives; for tests and diagnostics.
    [[nodiscard]] std::size_t pending_receives() const;

    /// Declare `src` gone for good (its socket hit EOF or reset). Every
    /// posted receive naming `src` fails with TransportError carrying
    /// `reason`, and so does any later explicit-`src` post — unless a
    /// message from `src` is already queued (the stream delivered it before
    /// the EOF, so it is still honoured). Wildcard (kAnySource) receives are
    /// untouched: another peer may still satisfy them. Benign at end of run:
    /// a peer that finished cleanly has nothing pending against it.
    void fail_source(int src, const std::string& reason);

    /// Install the transport pump stamped into every posted receive (see
    /// ProgressPump in request.hpp). Call once, before any traffic; null
    /// (the default, in process) means the sender's thread completes
    /// requests instead.
    void set_pump(ProgressPump* pump);

  private:
    struct Arrived {
        int src;
        int tag;
        std::size_t count;
        std::unique_ptr<double[]> payload;
    };
    struct Posted {
        int src;
        int tag;
        std::span<double> out;
        std::shared_ptr<detail::RequestState> state;
    };

    static bool matches(int want_src, int want_tag, int src, int tag) {
        if (want_src != kAnySource && want_src != src) return false;
        return want_tag == kAnyTag ? tag < kSystemTagBase : want_tag == tag;
    }

    mutable std::mutex mu_;
    std::deque<Arrived> arrived_;
    std::deque<Posted> posted_;
    std::map<int, std::string> dead_;  ///< src -> disconnect reason
    ProgressPump* pump_ = nullptr;
};

}  // namespace advect::msg
