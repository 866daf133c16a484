#include "core/source.hpp"

#include <cmath>

namespace advect::core {

namespace {

constexpr double kTwoPi = 6.283185307179586476925287;

}  // namespace

double SourceTerm::manufactured(double x, double y, double z, double t) const {
    const double phi = kTwoPi * (kx * x + ky * y + kz * z);
    return amp * std::sin(omega * t) * std::cos(phi);
}

double SourceField::q(int gi, int gj, int gk, int level) const {
    // Wrap the global indices before forming coordinates: sin/cos are not
    // bitwise periodic in floating point (sin(2 pi (x + 1)) != sin(2 pi x)),
    // so evaluating at the wrapped owner coordinate keeps a periodic image
    // bitwise-equal to the owning point.
    const double x = wrap(gi, n) * delta;
    const double y = wrap(gj, n) * delta;
    const double z = wrap(gk, n) * delta;
    const double t = level * dt;
    const double phi = kTwoPi * (term.kx * x + term.ky * y + term.kz * z);
    const Velocity3 c = vel.constant() ? vel.base : vel.at(x, y, z);
    const double kappa = kTwoPi * (term.kx * c.cx + term.ky * c.cy +
                                   term.kz * c.cz);
    const double sphi = std::sin(phi);
    const double cphi = std::cos(phi);
    const double swt = std::sin(term.omega * t);
    const double cwt = std::cos(term.omega * t);
    // S = u_m_t + c . grad u_m.
    const double s = term.amp * (term.omega * cwt * cphi - kappa * swt * sphi);
    // S_t - c . grad S. For constant velocity the cross terms cancel and
    // only the cos(phi) term survives; a varying c adds the curvature term
    // 2 pi k . (c . grad) c sin(phi), guarded so the constant path's bits
    // never see the extra (possibly signed-zero) addend.
    double sdot =
        term.amp * swt * cphi * (kappa * kappa - term.omega * term.omega);
    if (!vel.constant()) {
        const Velocity3 acc = vel.advective(x, y, z);
        sdot += term.amp * swt * sphi * kTwoPi *
                (term.kx * acc.cx + term.ky * acc.cy + term.kz * acc.cz);
    }
    return dt * s + 0.5 * dt * dt * sdot;
}

void add_source_plane(double* dst, std::ptrdiff_t stride, int nx, int ny,
                      int gx0, int gy0, int gz, int level,
                      const SourceField& sf) {
    for (int ly = 0; ly < ny; ++ly) {
        double* row = dst + static_cast<std::ptrdiff_t>(ly) * stride;
        for (int x = 0; x < nx; ++x)
            row[x] += sf.q(gx0 + x, gy0 + ly, gz, level);
    }
}

void add_source(Field3& f, const SourceField& sf, const Index3& origin,
                const Range3& r, int level) {
    if (r.empty() || !sf.active()) return;
    const Extents3 e = r.extents();
    for (int k = r.lo.k; k < r.hi.k; ++k)
        add_source_plane(f.ptr(r.lo.i, r.lo.j, k), f.x_stride(), e.nx, e.ny,
                         origin.i + r.lo.i, origin.j + r.lo.j, origin.k + k,
                         level, sf);
}

}  // namespace advect::core
