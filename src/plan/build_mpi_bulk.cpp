#include "plan/builders.hpp"

namespace advect::plan {

using namespace detail;

/// §IV-B — bulk-synchronous MPI: the serialized three-stage halo exchange
/// completes before any computation starts, then stencil and copy run over
/// the whole domain. Communication and computation never overlap.
///
/// The exchange chain is spelled out here in full — this plan *is* the
/// canonical definition of the serialized exchange. The GPU plans that embed
/// the same exchange inside a larger step (§IV-F/G/H) reuse it via
/// detail::add_bulk_exchange, which must stay structurally identical to this
/// spelling (the parity tests compare both against execution).
StepPlan build_mpi_bulk(const BuildParams& p) {
    Writer w;
    w.plan.impl_id = "mpi_bulk";
    w.plan.local = p.local;
    w.plan.fuse = p.fuse;
    w.plan.uses_comm = true;
    set_scenario(w, p);

    const auto fb = face_bytes(p.local, p.fuse);

    // "the master thread first issues nonblocking receive calls for 6
    // neighbors"...
    int last = w.add("post_recvs", Op::PostRecvs, trace::Lane::Host, {});

    // ...then serially per dimension: pack and send both faces, let the
    // messages fly, unpack both received faces. Dimensions are serialized so
    // corner data propagates across the three passes.
    for (int d = 0; d < 3; ++d) {
        const std::size_t b = fb[static_cast<std::size_t>(d)];

        Payload pack;
        pack.dim = d;
        pack.bytes = 2 * b;
        const int pk = w.add(std::string("pack_") + kDimName[d], Op::PackSend,
                             trace::Lane::Cpu, {last}, pack);

        Payload comm;
        comm.dim = d;
        comm.bytes = b;
        const int cm = w.add(std::string("comm_") + kDimName[d], Op::Comm,
                             trace::Lane::Nic, {pk}, comm);

        Payload unpack;
        unpack.dim = d;
        unpack.bytes = 2 * b;
        last = w.add(std::string("unpack_") + kDimName[d], Op::Unpack,
                     trace::Lane::Cpu, {cm}, unpack);
        last = add_boundary_dim(w, p.local, d, last);
    }

    Payload st;
    st.regions = {whole(p.local)};
    st.points = p.local.volume();
    set_fused(st, p.fuse);
    const int s = w.add("stencil", Op::Stencil, trace::Lane::Cpu, {last}, st);

    Payload cp;
    cp.regions = {whole(p.local)};
    cp.points = p.local.volume();
    w.add("copy", Op::Copy, trace::Lane::Cpu, {s}, cp);

    return std::move(w).finish();
}

}  // namespace advect::plan
