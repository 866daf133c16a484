#pragma once
/// \file inproc.hpp
/// The in-process transport: ranks are threads sharing one World, and
/// deliver() is a direct call into the destination rank's mailbox — the
/// "cluster in a process" substitution documented in DESIGN.md §2. Each
/// rank thread owns one InProcessTransport handle onto the shared World, and
/// every handle shares ownership of it: a chaos-held delivery that outlives
/// its sending rank's thread still lands in a live mailbox.

#include <memory>
#include <utility>

#include "msg/comm.hpp"
#include "msg/transport/transport.hpp"

namespace advect::msg {

class InProcessTransport final : public Transport {
  public:
    InProcessTransport(std::shared_ptr<World> world, int rank)
        : world_(std::move(world)), rank_(rank) {}

    [[nodiscard]] int rank() const override { return rank_; }
    [[nodiscard]] int size() const override { return world_->size(); }

    void deliver(int dst, int tag, std::span<const double> data) override {
        world_->mailbox(dst).deliver(rank_, tag, data);
    }

    [[nodiscard]] Mailbox& mailbox() override {
        return world_->mailbox(rank_);
    }

    void request_retransmits() override;

  private:
    std::shared_ptr<World> world_;
    int rank_;
};

}  // namespace advect::msg
