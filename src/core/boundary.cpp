#include "core/boundary.hpp"

#include "core/halo.hpp"

namespace advect::core {

double BoundaryField::g(int gi, int gj, int gk, int level) const {
    const double x = wrap(gi, n) * delta;
    const double y = wrap(gj, n) * delta;
    const double z = wrap(gk, n) * delta;
    const double t = level * dt;
    double v = analytic_solution(wave, velocity, t, x, y, z);
    if (source.active()) v += source.manufactured(x, y, z, t);
    return v;
}

namespace {

/// Fill one open face's staged recv slab. Inflow evaluates g; Outflow
/// copies the plane at `edge` (the nearest interior index in `dim`, with
/// transverse coordinates unchanged). Halo cells never read other halo
/// cells of their own slab, so the fill order is immaterial.
void fill_face(FieldView f, const Range3& slab, int dim, BoundaryKind kind,
               int edge, const BoundaryField& bf, const Index3& origin,
               int level) {
    for (int k = slab.lo.k; k < slab.hi.k; ++k)
        for (int j = slab.lo.j; j < slab.hi.j; ++j)
            for (int i = slab.lo.i; i < slab.hi.i; ++i) {
                if (kind == BoundaryKind::Inflow) {
                    f(i, j, k) = bf.g(origin.i + i, origin.j + j,
                                      origin.k + k, level);
                } else {
                    f(i, j, k) = f(dim == 0 ? edge : i, dim == 1 ? edge : j,
                                   dim == 2 ? edge : k);
                }
            }
}

}  // namespace

void fill_boundary_dim(FieldView f, int dim, unsigned open,
                       const std::array<BoundaryKind, 6>& faces,
                       const BoundaryField& bf, const Index3& origin,
                       int level) {
    const unsigned lo_bit = 1u << (2 * dim);
    const unsigned hi_bit = 1u << (2 * dim + 1);
    if ((open & (lo_bit | hi_bit)) == 0) return;
    const HaloPlan plan = HaloPlan::make(f.extents(), f.halo_width());
    const DimExchange& ex = plan.dims[static_cast<std::size_t>(dim)];
    if (open & lo_bit)
        fill_face(f, ex.recv_low, dim,
                  faces[static_cast<std::size_t>(2 * dim)], 0, bf, origin,
                  level);
    if (open & hi_bit)
        fill_face(f, ex.recv_high, dim,
                  faces[static_cast<std::size_t>(2 * dim + 1)],
                  f.extents()[dim] - 1, bf, origin, level);
}

std::size_t boundary_fill_count(Extents3 n, int dim, int depth,
                                unsigned open) {
    const HaloPlan plan = HaloPlan::make(n, depth);
    const DimExchange& ex = plan.dims[static_cast<std::size_t>(dim)];
    std::size_t count = 0;
    if (open & (1u << (2 * dim))) count += ex.recv_low.volume();
    if (open & (1u << (2 * dim + 1))) count += ex.recv_high.volume();
    return count;
}

}  // namespace advect::core
