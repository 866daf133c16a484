#pragma once
/// \file inproc.hpp
/// The in-process transport: ranks are threads sharing one World, and
/// deliver() is a direct call into the destination rank's mailbox — the
/// "cluster in a process" substitution documented in DESIGN.md §2. Each
/// rank thread owns one InProcessTransport handle onto the shared World.

#include "msg/comm.hpp"
#include "msg/transport/transport.hpp"

namespace advect::msg {

class InProcessTransport final : public Transport {
  public:
    InProcessTransport(World& world, int rank) : world_(&world), rank_(rank) {}

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
    World* world_;
    int rank_;
};

}  // namespace advect::msg
