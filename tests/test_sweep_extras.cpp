// Additional sweep/staging coverage: GpuStaging with empty region lists,
// box_choices sanity, multi-GPU node configurations in the model, and the
// modelled price of the Step 3 copy.

#include <gtest/gtest.h>

#include "impl/gpu_task.hpp"
#include "sched/report.hpp"
#include "sched/sweeps.hpp"

namespace core = advect::core;
namespace gpu = advect::gpu;
namespace impl = advect::impl;
namespace model = advect::model;
namespace sched = advect::sched;

namespace {

TEST(GpuStaging, EmptyRegionListsAreNoOps) {
    gpu::Device dev(gpu::DeviceProps::tesla_c2050());
    auto s = dev.create_stream();
    impl::GpuStaging staging(dev, {}, {});
    EXPECT_EQ(staging.inbound_count(), 0u);
    EXPECT_EQ(staging.outbound_count(), 0u);
    core::Field3 host({4, 4, 4}, 1.0);
    impl::DeviceField d(dev, {4, 4, 4});
    // Every step is a no-op and must not enqueue anything.
    staging.pack_inbound(host);
    staging.enqueue_h2d_copy(s);
    staging.enqueue_unpack_kernels(s, d);
    staging.enqueue_pack_kernels(s, d);
    staging.enqueue_d2h_copy(s);
    staging.unpack_outbound(host);
    s.synchronize();
    EXPECT_EQ(host(0, 0, 0), 1.0);
}

TEST(BoxChoices, SortedUniquePositive) {
    const auto boxes = sched::box_choices();
    ASSERT_FALSE(boxes.empty());
    EXPECT_EQ(boxes.front(), 1);
    for (std::size_t i = 1; i < boxes.size(); ++i)
        EXPECT_GT(boxes[i], boxes[i - 1]);
}

TEST(MultiGpuModel, MoreGpusNeverSlower) {
    auto one = model::MachineSpec::yona();
    auto two = model::MachineSpec::yona();
    two.gpus_per_node = 2;
    const int nn[] = {2};
    const double gf1 = sched::best_series(sched::Code::I, one, nn)[0].gf;
    const double gf2 = sched::best_series(sched::Code::I, two, nn)[0].gf;
    EXPECT_GE(gf2, gf1 * 0.999);
    EXPECT_GT(gf2, gf1 * 1.2) << "a second GPU should genuinely help";
}

TEST(CopyBytesKnob, ZeroModelsBufferSwap) {
    auto with_copy = model::MachineSpec::jaguarpf();
    auto swap = with_copy;
    swap.copy_bytes_per_point = 0.0;
    EXPECT_GT(model::cpu_copy_time(with_copy, 1'000'000, 4), 0.0);
    EXPECT_EQ(model::cpu_copy_time(swap, 1'000'000, 4), 0.0);
    sched::RunConfig a, b;
    a.machine = with_copy;
    b.machine = swap;
    a.nodes = b.nodes = 8;
    a.threads_per_task = b.threads_per_task = 6;
    EXPECT_GT(sched::model_gflops(sched::Code::B, b),
              sched::model_gflops(sched::Code::B, a));
}

}  // namespace
