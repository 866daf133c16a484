#include "msg/mailbox.hpp"

#include <algorithm>
#include <cstring>
#include <optional>
#include <stdexcept>

#include "trace/span.hpp"

namespace advect::msg {

void Mailbox::deliver(int src, int tag, std::span<const double> data) {
    deliver_bytes(src, tag,
                  {reinterpret_cast<const std::uint8_t*>(data.data()),
                   data.size_bytes()});
}

void Mailbox::deliver_bytes(int src, int tag,
                            std::span<const std::uint8_t> payload) {
    const std::size_t count = payload.size() / sizeof(double);
    std::shared_ptr<detail::RequestState> to_complete;
    {
        std::lock_guard lock(mu_);
        // Earliest matching posted receive wins (non-overtaking: posted_ is
        // scanned in post order).
        auto it = std::find_if(posted_.begin(), posted_.end(),
                               [&](const Posted& p) {
                                   return matches(p.src, p.tag, src, tag);
                               });
        if (it != posted_.end()) {
            if (it->out.size() < count)
                throw std::length_error(
                    "msg: receive buffer smaller than message");
            if (count > 0)
                std::memcpy(it->out.data(), payload.data(), payload.size());
            to_complete = std::move(it->state);
            posted_.erase(it);
        } else {
            auto copy = std::make_unique_for_overwrite<double[]>(count);
            if (count > 0)
                std::memcpy(copy.get(), payload.data(), payload.size());
            arrived_.push_back(Arrived{src, tag, count, std::move(copy)});
        }
    }
    if (to_complete) to_complete->complete(count);
}

Request Mailbox::post_receive(int src, int tag, std::span<double> out) {
    auto state = std::make_shared<detail::RequestState>();
    if (trace::enabled()) {
        state->trace_t0 = trace::now();
        state->trace_rank = trace::current_rank();
    }
    std::optional<Arrived> matched;  // moved out of the lock
    bool dead = false;
    std::string dead_reason;
    {
        std::lock_guard lock(mu_);
        state->pump = pump_;
        auto it = std::find_if(arrived_.begin(), arrived_.end(),
                               [&](const Arrived& m) {
                                   return matches(src, tag, m.src, m.tag);
                               });
        if (it != arrived_.end()) {
            matched = std::move(*it);
            arrived_.erase(it);
        } else if (src != kAnySource && dead_.contains(src)) {
            // The named source is gone and nothing it sent remains queued:
            // this receive can never complete. Fail it now, not at wait().
            dead = true;
            dead_reason = dead_.at(src);
        } else {
            posted_.push_back(Posted{src, tag, out, state});
        }
    }
    if (dead) {
        state->fail(src, std::move(dead_reason));
        return Request(state);
    }
    if (matched) {
        if (out.size() < matched->count)
            throw std::length_error("msg: receive buffer smaller than message");
        std::copy_n(matched->payload.get(), matched->count, out.begin());
        state->complete(matched->count);
    }
    return Request(state);
}

std::size_t Mailbox::pending_messages() const {
    std::lock_guard lock(mu_);
    return arrived_.size();
}

std::size_t Mailbox::pending_receives() const {
    std::lock_guard lock(mu_);
    return posted_.size();
}

void Mailbox::fail_source(int src, const std::string& reason) {
    std::vector<std::shared_ptr<detail::RequestState>> to_fail;
    {
        std::lock_guard lock(mu_);
        dead_.emplace(src, reason);  // first reason wins
        for (auto it = posted_.begin(); it != posted_.end();) {
            if (it->src == src) {
                to_fail.push_back(std::move(it->state));
                it = posted_.erase(it);
            } else {
                ++it;
            }
        }
    }
    for (auto& state : to_fail) state->fail(src, reason);
}

void Mailbox::set_pump(ProgressPump* pump) {
    std::lock_guard lock(mu_);
    pump_ = pump;
}

}  // namespace advect::msg
