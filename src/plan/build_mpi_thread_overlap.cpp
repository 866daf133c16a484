#include "plan/builders.hpp"

#include "core/boundary.hpp"
#include "core/stencil.hpp"

namespace advect::plan {

using namespace detail;

/// §IV-D — threaded overlap inside one parallel region: the master thread
/// runs the whole serialized exchange while the team drains guided interior
/// chunks; the boundary stage needs both, and the copy closes the step. The
/// plan is four tasks because that is all the structure there is — the
/// overlap lives in the two root tasks sharing no dependency.
StepPlan build_mpi_thread_overlap(const BuildParams& p) {
    Writer w;
    w.plan.impl_id = "mpi_thread_overlap";
    w.plan.local = p.local;
    w.plan.fuse = p.fuse;
    w.plan.uses_comm = true;
    w.plan.mode = Mode::TeamStages;
    set_scenario(w, p);

    const core::InteriorBoundary parts =
        core::partition_interior_boundary(p.local, p.fuse);
    const auto fb = face_bytes(p.local, p.fuse);

    Payload ex;
    ex.bytes = 2 * (fb[0] + fb[1] + fb[2]);
    int master = w.add("master_exchange", Op::MasterExchange,
                       trace::Lane::Nic, {}, ex);

    if (p.open_faces != 0) {
        // The master thread interleaves boundary fills with the serial
        // exchange (finish_dim then fill, per dimension — corner columns
        // carried by later stages must already be boundary-correct). One
        // task stands for all three fills: dim -1, executed inside the
        // master section, priced as a single cpu move by the lowering.
        Payload bf;
        bf.dim = -1;
        for (int d = 0; d < 3; ++d)
            bf.bytes +=
                core::boundary_fill_count(p.local, d, 1, p.open_faces) *
                sizeof(double);
        master = w.add("boundary_fill", Op::BoundaryFill, trace::Lane::Cpu,
                       {master}, bf);
    }

    Payload in;
    in.regions = {parts.interior};
    in.points = parts.interior.volume();
    in.schedule = Sched::Guided;
    set_fused(in, p.fuse);
    const int interior =
        w.add("interior", Op::Stencil, trace::Lane::Cpu, {}, in);

    Payload bnd;
    bnd.regions = parts.boundary;
    bnd.points = points_of(parts.boundary);
    bnd.boundary_eff = true;
    bnd.cache_revisit = true;
    set_fused(bnd, p.fuse);
    const int b = w.add("boundary", Op::Stencil, trace::Lane::Cpu,
                        {interior, master}, bnd);

    Payload cp;
    cp.regions = {whole(p.local)};
    cp.points = p.local.volume();
    w.add("copy", Op::Copy, trace::Lane::Cpu, {b}, cp);

    return std::move(w).finish();
}

}  // namespace advect::plan
