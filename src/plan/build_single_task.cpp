#include "plan/builders.hpp"

namespace advect::plan {

using namespace detail;

/// §IV-A — the serial reference: fill periodic halos, apply the stencil over
/// the whole domain, copy the new state back. One cpu lane, a straight line.
/// Open faces split the single halo fill into per-dimension stages so each
/// dimension's boundary overwrite lands before the next stage copies corner
/// columns (the same serialization the exchange plans use).
StepPlan build_single_task(const BuildParams& p) {
    Writer w;
    w.plan.impl_id = "single_task";
    w.plan.local = p.local;
    w.plan.fuse = p.fuse;
    set_scenario(w, p);

    const auto fb = face_bytes(p.local, p.fuse);
    int hf;
    if (p.open_faces == 0) {
        Payload halo;
        halo.bytes = 2 * (fb[0] + fb[1] + fb[2]);
        hf = w.add("halo_fill", Op::HaloFill, trace::Lane::Cpu, {}, halo);
    } else {
        int last = -1;
        for (int d = 0; d < 3; ++d) {
            Payload halo;
            halo.dim = d;
            halo.bytes = 2 * fb[static_cast<std::size_t>(d)];
            last = w.add(std::string("halo_fill_") + kDimName[d], Op::HaloFill,
                         trace::Lane::Cpu,
                         last < 0 ? std::vector<int>{} : std::vector<int>{last},
                         halo);
            last = add_boundary_dim(w, p.local, d, last);
        }
        hf = last;
    }

    Payload st;
    st.regions = {whole(p.local)};
    st.points = p.local.volume();
    set_fused(st, p.fuse);
    const int s = w.add("stencil", Op::Stencil, trace::Lane::Cpu, {hf}, st);

    Payload cp;
    cp.regions = {whole(p.local)};
    cp.points = p.local.volume();
    w.add("copy", Op::Copy, trace::Lane::Cpu, {s}, cp);

    return std::move(w).finish();
}

}  // namespace advect::plan
