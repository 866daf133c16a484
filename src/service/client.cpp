#include "service/client.hpp"

#include <unistd.h>

#include <stdexcept>

#include "core/json.hpp"

namespace advect::service {

namespace json = core::json;
namespace wire = msg::wire;

namespace {

std::string text_of(const wire::Frame& f) {
    return {reinterpret_cast<const char*>(f.payload.data()),
            f.payload.size()};
}

CompletedJob parse_event_json(const std::string& text) {
    const json::Value v = json::parse(text, "event");
    const auto num = [&](const char* key) {
        const json::Value* f = v.find(key);
        return f != nullptr ? f->num : 0.0;
    };
    CompletedJob done;
    done.id = static_cast<std::uint64_t>(num("id"));
    const json::Value* tenant = v.find("tenant");
    if (tenant != nullptr) done.tenant = tenant->str;
    const json::Value* ok = v.find("ok");
    done.ok = ok != nullptr && ok->b;
    const json::Value* error = v.find("error");
    if (error != nullptr) done.error = error->str;
    done.wall_s = num("wall_s");
    done.l2 = num("l2");
    done.linf = num("linf");
    done.faults = static_cast<std::size_t>(num("faults"));
    done.absorbed = num("absorbed");
    done.queue_wait_s = num("queue_wait_s");
    done.turnaround_s = num("turnaround_s");
    return done;
}

bool state_follows(const std::string& text) {
    const json::Value v = json::parse(text, "event");
    const json::Value* f = v.find("state_follows");
    return f != nullptr && f->b;
}

}  // namespace

Client::Client(const std::string& socket_path, double timeout_s)
    : fd_(connect_unix(socket_path)), timeout_s_(timeout_s) {}

Client::~Client() {
    if (fd_ >= 0) ::close(fd_);
}

wire::Frame Client::read_frame(const std::string& what) {
    wire::Frame frame;
    if (!read_frame_timeout(fd_, frame, timeout_s_, what))
        throw std::runtime_error("service: daemon closed the connection (" +
                                 what + ")");
    return frame;
}

CompletedJob Client::read_completion(const wire::Frame& event_frame) {
    const std::string text = text_of(event_frame);
    CompletedJob done = parse_event_json(text);
    if (state_follows(text)) {
        const wire::Frame sf = read_frame("waiting for state of job " +
                                          std::to_string(done.id));
        if (sf.type != kFrameState)
            throw std::runtime_error(
                "service: expected a state frame for job " +
                std::to_string(done.id) + ", got frame type " +
                std::to_string(int(sf.type)));
        wire::ByteReader r(sf.payload);
        const std::uint64_t sid = r.u64();
        if (sid != done.id)
            throw std::runtime_error("service: state frame for job " +
                                     std::to_string(sid) +
                                     " while expecting job " +
                                     std::to_string(done.id));
        done.state = unmarshal_state(r);
    }
    return done;
}

std::uint64_t Client::submit(const JobSpec& spec) {
    send_submit(spec);
    return read_submit_ack();
}

void Client::send_submit(const JobSpec& spec) {
    write_text_frame(fd_, kFrameSubmit, job_to_json(spec));
}

std::uint64_t Client::read_submit_ack() {
    // The daemon answers submissions in order, but completion events for
    // earlier jobs may arrive first; buffer them.
    while (true) {
        const wire::Frame frame = read_frame("waiting for submit ack");
        if (frame.type == kFrameSubmitOk) {
            const json::Value v = json::parse(text_of(frame), "submit-ack");
            const json::Value* id = v.find("id");
            if (id == nullptr)
                throw std::runtime_error("service: malformed submit ack");
            return static_cast<std::uint64_t>(id->num);
        }
        if (frame.type == kFrameReject) {
            const json::Value v = json::parse(text_of(frame), "reject");
            const json::Value* reason = v.find("reason");
            const json::Value* detail = v.find("detail");
            throw RejectedError(
                reason != nullptr ? reject_reason_from_name(reason->str)
                                  : RejectReason::BadSpec,
                detail != nullptr ? detail->str : "(no detail)");
        }
        if (frame.type == kFrameEvent) {
            finished_.push_back(read_completion(frame));
            continue;
        }
        throw std::runtime_error("service: unexpected frame " +
                                 std::to_string(int(frame.type)) +
                                 " while awaiting submit ack");
    }
}

std::optional<CompletedJob> Client::take_finished(std::uint64_t id) {
    for (auto it = finished_.begin(); it != finished_.end(); ++it) {
        if (it->id == id) {
            CompletedJob done = std::move(*it);
            finished_.erase(it);
            return done;
        }
    }
    return std::nullopt;
}

CompletedJob Client::wait(std::uint64_t id) {
    if (auto done = take_finished(id)) return std::move(*done);
    while (true) {
        const wire::Frame frame = read_frame("waiting for job " +
                                             std::to_string(id));
        if (frame.type != kFrameEvent)
            throw std::runtime_error("service: unexpected frame " +
                                     std::to_string(int(frame.type)) +
                                     " while awaiting a completion event");
        CompletedJob done = read_completion(frame);
        if (done.id == id) return done;
        finished_.push_back(std::move(done));
    }
}

std::vector<CompletedJob> Client::wait_all(std::size_t count) {
    std::vector<CompletedJob> done;
    while (done.size() < count) {
        if (!finished_.empty()) {
            done.push_back(std::move(finished_.back()));
            finished_.pop_back();
            continue;
        }
        const wire::Frame frame = read_frame("waiting for completions");
        if (frame.type != kFrameEvent)
            throw std::runtime_error("service: unexpected frame " +
                                     std::to_string(int(frame.type)) +
                                     " while awaiting completion events");
        done.push_back(read_completion(frame));
    }
    return done;
}

std::string Client::status() {
    write_text_frame(fd_, kFrameStatus, "");
    while (true) {
        const wire::Frame frame = read_frame("waiting for status report");
        if (frame.type == kFrameReport) return text_of(frame);
        if (frame.type == kFrameEvent) {
            finished_.push_back(read_completion(frame));
            continue;
        }
        throw std::runtime_error("service: unexpected frame " +
                                 std::to_string(int(frame.type)) +
                                 " while awaiting the status report");
    }
}

std::string Client::drain() {
    write_text_frame(fd_, kFrameDrain, "");
    while (true) {
        const wire::Frame frame = read_frame("waiting for drain report");
        if (frame.type == kFrameReport) return text_of(frame);
        if (frame.type == kFrameEvent) {
            finished_.push_back(read_completion(frame));
            continue;
        }
        throw std::runtime_error("service: unexpected frame " +
                                 std::to_string(int(frame.type)) +
                                 " while awaiting the drain report");
    }
}

}  // namespace advect::service
