#include "plan/builders.hpp"

#include "core/stencil.hpp"

namespace advect::plan {

using namespace detail;

/// §IV-C — nonblocking MPI with manual overlap: while each dimension's
/// messages are in flight the rank computes one third of the interior, then
/// waits, unpacks, and moves to the next dimension. The boundary shell (which
/// needs all halos) runs last as a strided pass, then the copy.
StepPlan build_mpi_nonblocking(const BuildParams& p) {
    Writer w;
    w.plan.impl_id = "mpi_nonblocking";
    w.plan.local = p.local;
    w.plan.fuse = p.fuse;
    w.plan.uses_comm = true;
    set_scenario(w, p);

    // Deep interior [fuse, n-fuse)^3: fused overlap rows read at most
    // `fuse` beyond their write set, so in-flight halos are never touched.
    const core::InteriorBoundary parts =
        core::partition_interior_boundary(p.local, p.fuse);
    // Row-granular thirds: each dimension's in-flight messages overlap an
    // equal share of the interior even on plane-thin subdomains.
    const std::vector<std::vector<core::Range3>> thirds =
        core::split_rows(parts.interior, 3);

    const int post = w.add("post_recvs", Op::PostRecvs, trace::Lane::Host, {});
    int last = post;
    for (int d = 0; d < 3; ++d) {
        last = add_overlapped_dim(
            w, p.local, d, {last},
            std::string("interior_") + kDimName[d],
            thirds[static_cast<std::size_t>(d)], /*work_eff=*/false, p.fuse);
    }

    Payload bnd;
    bnd.regions = parts.boundary;
    bnd.points = points_of(parts.boundary);
    bnd.boundary_eff = true;
    bnd.cache_revisit = true;
    set_fused(bnd, p.fuse);
    const int b =
        w.add("boundary", Op::Stencil, trace::Lane::Cpu, {last}, bnd);

    Payload cp;
    cp.regions = {whole(p.local)};
    cp.points = p.local.volume();
    w.add("copy", Op::Copy, trace::Lane::Cpu, {b}, cp);

    return std::move(w).finish();
}

}  // namespace advect::plan
