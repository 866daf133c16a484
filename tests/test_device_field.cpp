// Tests for the device-side field and kernels: the tiled stencil kernel
// must reproduce the CPU stencil bitwise (arbitrary regions, blocks larger
// than the domain, all device generations), the periodic-halo kernels must
// match the host periodic fill, and the pack/unpack kernels must
// interoperate with host-side staging.

#include <gtest/gtest.h>

#include <random>

#include "core/halo.hpp"
#include "core/stencil.hpp"
#include "impl/device_field.hpp"
#include "impl/gpu_task.hpp"

namespace core = advect::core;
namespace gpu = advect::gpu;
namespace impl = advect::impl;

namespace {

core::Field3 random_field(core::Extents3 n, unsigned seed) {
    core::Field3 f(n);
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> d(-2.0, 2.0);
    for (int k = -1; k <= n.nz; ++k)
        for (int j = -1; j <= n.ny; ++j)
            for (int i = -1; i <= n.nx; ++i) f(i, j, k) = d(rng);
    return f;
}

void upload(gpu::Stream& s, impl::DeviceField& d, const core::Field3& h) {
    s.memcpy_h2d(d.buffer(), 0, h.raw());
}

core::Field3 download(gpu::Stream& s, const impl::DeviceField& d) {
    core::Field3 out(d.extents());
    s.memcpy_d2h(out.raw(), d.buffer(), 0);
    s.synchronize();
    return out;
}

struct KernelCase {
    int nx, ny, nz;
    int bx, by;
    bool c1060;
    bool courant1 = false;  ///< 26 exact-zero coefficients: one live term
};

class DeviceStencil : public ::testing::TestWithParam<KernelCase> {};

TEST_P(DeviceStencil, MatchesCpuBitwise) {
    const auto c = GetParam();
    const core::Extents3 n{c.nx, c.ny, c.nz};
    gpu::Device dev(c.c1060 ? gpu::DeviceProps::tesla_c1060()
                            : gpu::DeviceProps::tesla_c2050());
    const auto coeffs =
        c.courant1 ? core::tensor_product_coeffs({1, 1, 1}, 1.0)
                   : core::tensor_product_coeffs({0.7, -0.3, 1.0}, 0.6);
    impl::upload_coefficients(dev, coeffs);
    auto s = dev.create_stream();

    auto host = random_field(n, 11);
    impl::DeviceField d_in(dev, n), d_out(dev, n);
    upload(s, d_in, host);
    launch_stencil(s, dev, d_in, d_out, host.interior(), c.bx, c.by);
    const auto result = download(s, d_out);

    core::Field3 expect(n);
    core::apply_stencil(coeffs, host, expect);
    EXPECT_TRUE(result.interior_equals(expect));
}

INSTANTIATE_TEST_SUITE_P(
    Geometry, DeviceStencil,
    ::testing::Values(KernelCase{8, 8, 8, 4, 4, false},
                      KernelCase{8, 8, 8, 32, 8, false},  // block > domain
                      KernelCase{13, 7, 5, 4, 2, false},  // edge blocks
                      KernelCase{13, 7, 5, 4, 2, true},
                      KernelCase{6, 20, 3, 2, 16, false},
                      KernelCase{16, 16, 16, 16, 4, true},
                      // Courant 1 on the edge-block shapes: the on-device
                      // plan compacts to one term, and edge tiles stage
                      // against the padded bounds.
                      KernelCase{13, 7, 5, 4, 2, false, true},
                      KernelCase{6, 20, 3, 2, 16, false, true}));

TEST(DeviceStencil, SubRegionOnlyWritesRegion) {
    const core::Extents3 n{10, 10, 10};
    gpu::Device dev(gpu::DeviceProps::tesla_c2050());
    const auto coeffs = core::tensor_product_coeffs({1, 1, 1}, 0.5);
    impl::upload_coefficients(dev, coeffs);
    auto s = dev.create_stream();
    auto host = random_field(n, 12);
    impl::DeviceField d_in(dev, n), d_out(dev, n);
    upload(s, d_in, host);
    // Poison the output so untouched points are detectable.
    core::Field3 poison(n, -999.0);
    upload(s, d_out, poison);
    const core::Range3 region{{2, 3, 4}, {7, 8, 9}};
    launch_stencil(s, dev, d_in, d_out, region, 4, 4);
    const auto result = download(s, d_out);
    for (int k = 0; k < n.nz; ++k)
        for (int j = 0; j < n.ny; ++j)
            for (int i = 0; i < n.nx; ++i) {
                if (region.contains({i, j, k}))
                    ASSERT_EQ(result(i, j, k),
                              core::stencil_point(coeffs, host, i, j, k));
                else
                    ASSERT_EQ(result(i, j, k), -999.0);
            }
}

TEST(DeviceStencil, PartitionedRegionsEqualFullSweep) {
    // Interior + 6 boundary slabs (the §IV-F kernel decomposition) must
    // reproduce the single-kernel sweep exactly.
    const core::Extents3 n{12, 9, 7};
    gpu::Device dev(gpu::DeviceProps::tesla_c2050());
    const auto coeffs = core::tensor_product_coeffs({0.4, 0.9, -0.7}, 0.8);
    impl::upload_coefficients(dev, coeffs);
    auto s = dev.create_stream();
    auto host = random_field(n, 13);
    impl::DeviceField d_in(dev, n), d_full(dev, n), d_split(dev, n);
    upload(s, d_in, host);
    launch_stencil(s, dev, d_in, d_full, host.interior(), 8, 4);
    const auto parts = core::partition_interior_boundary(n);
    launch_stencil(s, dev, d_in, d_split, parts.interior, 8, 4);
    for (const auto& slab : parts.boundary)
        launch_stencil(s, dev, d_in, d_split, slab, 8, 4);
    const auto full = download(s, d_full);
    const auto split = download(s, d_split);
    EXPECT_TRUE(full.interior_equals(split));
}

TEST(DevicePeriodicHalo, MatchesHostFill) {
    const core::Extents3 n{6, 5, 4};
    gpu::Device dev(gpu::DeviceProps::tesla_c2050());
    auto s = dev.create_stream();
    auto host = random_field(n, 14);
    host.fill_halo(-5.0);
    impl::DeviceField d(dev, n);
    upload(s, d, host);
    for (int dim = 0; dim < 3; ++dim) launch_periodic_halo(s, d, dim);
    const auto result = download(s, d);
    core::Field3 expect = host;
    core::fill_periodic_halo(expect);
    // Compare the full padded storage, halos included.
    const auto a = result.raw();
    const auto b = expect.raw();
    for (std::size_t idx = 0; idx < a.size(); ++idx)
        ASSERT_EQ(a[idx], b[idx]) << "padded offset " << idx;
}

TEST(DevicePack, InteroperatesWithHostStaging) {
    const core::Extents3 n{7, 6, 5};
    gpu::Device dev(gpu::DeviceProps::tesla_c2050());
    auto s = dev.create_stream();
    auto host = random_field(n, 15);
    impl::DeviceField d(dev, n);
    upload(s, d, host);
    const core::Range3 region{{-1, 0, 2}, {7, 4, 5}};  // includes halo cells
    auto staging = dev.alloc(region.volume() + 3);
    launch_pack(s, d, region, staging, /*offset=*/3);
    std::vector<double> host_buf(region.volume() + 3);
    s.memcpy_d2h(host_buf, staging, 0);
    s.synchronize();
    // Device pack order must equal core::pack order.
    const auto expect = core::pack(host, region);
    for (std::size_t i = 0; i < expect.size(); ++i)
        ASSERT_EQ(host_buf[i + 3], expect[i]);
    // Round-trip through unpack into a fresh field.
    impl::DeviceField d2(dev, n);
    launch_unpack(s, d2, region, staging, 3);
    const auto back = download(s, d2);
    for (int k = region.lo.k; k < region.hi.k; ++k)
        for (int j = region.lo.j; j < region.hi.j; ++j)
            for (int i = region.lo.i; i < region.hi.i; ++i)
                ASSERT_EQ(back(i, j, k), host(i, j, k));
}

TEST(GpuStaging, FullExchangeRoundTrip) {
    // GpuStaging moves the inbound regions host->device and the outbound
    // regions device->host exactly.
    const core::Extents3 n{8, 8, 8};
    gpu::Device dev(gpu::DeviceProps::tesla_c2050());
    auto s = dev.create_stream();
    auto host = random_field(n, 16);
    impl::DeviceField d(dev, n);
    // Device starts from a *different* state so movement is observable.
    auto dev_host = random_field(n, 17);
    upload(s, d, dev_host);
    impl::GpuStaging staging(dev, impl::mpi_halo_regions(n),
                             impl::boundary_shell_regions(n));
    staging.enqueue_h2d(s, host, d);
    staging.enqueue_d2h(s, d);
    s.synchronize();
    core::Field3 mirror(n, 0.0);
    staging.unpack_outbound(mirror);
    // Outbound (boundary shell) now carries the device values.
    for (const auto& r : impl::boundary_shell_regions(n))
        for (int k = r.lo.k; k < r.hi.k; ++k)
            for (int j = r.lo.j; j < r.hi.j; ++j)
                for (int i = r.lo.i; i < r.hi.i; ++i)
                    ASSERT_EQ(mirror(i, j, k), dev_host(i, j, k));
    // Inbound (halo regions) on the device now carry the host values.
    const auto dres = download(s, d);
    for (const auto& r : impl::mpi_halo_regions(n))
        for (int k = r.lo.k; k < r.hi.k; ++k)
            for (int j = r.lo.j; j < r.hi.j; ++j)
                for (int i = r.lo.i; i < r.hi.i; ++i)
                    ASSERT_EQ(dres(i, j, k), host(i, j, k));
}

TEST(DevicePool, SharesDevicesAmongTasks) {
    const auto coeffs = core::tensor_product_coeffs({1, 1, 1}, 1.0);
    impl::DevicePool pool(gpu::DeviceProps::tesla_c2050(), /*ntasks=*/6,
                          /*tasks_per_gpu=*/4, coeffs);
    EXPECT_EQ(pool.device_count(), 2);
    EXPECT_EQ(&pool.device_for_rank(0), &pool.device_for_rank(3));
    EXPECT_NE(&pool.device_for_rank(3), &pool.device_for_rank(4));
    EXPECT_THROW(impl::DevicePool(gpu::DeviceProps::tesla_c2050(), 4, 0,
                                  coeffs),
                 std::invalid_argument);
}

}  // namespace
