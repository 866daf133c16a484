#pragma once
/// \file field.hpp
/// Halo-padded 3-D scalar field, the state container for the advection state
/// u(x, y, z). Each local field stores its interior points plus a halo of
/// width h on every side: h = 1 (the default) for the single-step stencil,
/// h = F for a temporal-blocking run fusing F steps per exchanged halo
/// (docs/PERF.md "Temporal blocking").

#include <cassert>
#include <span>
#include <type_traits>
#include <vector>

#include "core/grid.hpp"

namespace advect::core {

/// A non-owning view of a halo-padded field's storage: base pointer,
/// interior extents (nx, ny, nz) and halo width h, x fastest. Valid indices
/// per dimension are [-h, n+h-1]. The padded layout's arithmetic lives here
/// only: Field3 hands out a view of its vector and a simulated-device
/// kernel builds one over its device buffer, so every copy, fill and sweep
/// in core runs on host and device storage alike. `T` is `double`
/// (FieldView) or `const double` (ConstFieldView).
template <class T>
class BasicFieldView {
  public:
    BasicFieldView() = default;
    BasicFieldView(T* data, Extents3 interior, int halo)
        : data_(data),
          n_(interior),
          h_(halo),
          sx_(interior.nx + 2 * halo),
          sxy_(sx_ * (interior.ny + 2 * halo)) {
        assert(halo >= 1);
    }
    operator BasicFieldView<const T>() const
        requires(!std::is_const_v<T>)
    {
        return {data_, n_, h_};
    }

    [[nodiscard]] Extents3 extents() const { return n_; }
    [[nodiscard]] int halo_width() const { return h_; }
    /// Doubles of storage, halos included.
    [[nodiscard]] std::size_t storage_size() const {
        return static_cast<std::size_t>(sxy_ * (n_.nz + 2 * h_));
    }
    /// Consecutive j rows are x_stride() doubles apart, consecutive k
    /// planes xy_stride().
    [[nodiscard]] std::ptrdiff_t x_stride() const { return sx_; }
    [[nodiscard]] std::ptrdiff_t xy_stride() const { return sxy_; }

    /// Linear offset of (i, j, k) from data().
    [[nodiscard]] std::size_t offset(int i, int j, int k) const {
        assert(i >= -h_ && i <= n_.nx + h_ - 1);
        assert(j >= -h_ && j <= n_.ny + h_ - 1);
        assert(k >= -h_ && k <= n_.nz + h_ - 1);
        return static_cast<std::size_t>((i + h_) + sx_ * (j + h_) +
                                        sxy_ * (k + h_));
    }
    /// Point (i, j, k), where the x-contiguous row from it starts.
    [[nodiscard]] T* ptr(int i, int j, int k) const {
        return data_ + offset(i, j, k);
    }
    [[nodiscard]] T& operator()(int i, int j, int k) const {
        return *ptr(i, j, k);
    }
    /// Point (-h, -h, -h), the first double of the storage.
    [[nodiscard]] T* data() const { return data_; }

  private:
    T* data_ = nullptr;
    Extents3 n_{};
    int h_ = 1;
    std::ptrdiff_t sx_ = 0;
    std::ptrdiff_t sxy_ = 0;
};

using FieldView = BasicFieldView<double>;
using ConstFieldView = BasicFieldView<const double>;

/// A 3-D array of doubles with interior extents (nx, ny, nz) and a halo of
/// width h, owning its storage; its layout accessors are its view's.
class Field3 {
  public:
    Field3() = default;
    explicit Field3(Extents3 interior, double fill = 0.0)
        : Field3(interior, 1, fill) {}
    Field3(Extents3 interior, int halo, double fill = 0.0)
        : n_(interior),
          h_(halo),
          data_(ConstFieldView(nullptr, interior, halo).storage_size(),
                fill) {}

    /// The layout over this field's storage, valid while the field keeps
    /// it: not across assignment, swap or destruction. Core routines take
    /// views, so a Field3 converts to one wherever it is passed. A mutable
    /// view of a temporary is rejected, so writing into one (say,
    /// `unpack(Field3(n), r, buf)`) does not compile.
    [[nodiscard]] FieldView view() & { return {data_.data(), n_, h_}; }
    FieldView view() && = delete;
    [[nodiscard]] ConstFieldView view() const& {
        return {data_.data(), n_, h_};
    }
    operator FieldView() & { return view(); }
    operator FieldView() && = delete;
    operator ConstFieldView() const { return view(); }

    /// Interior extents (halo excluded).
    [[nodiscard]] Extents3 extents() const { return n_; }
    /// Ghost-layer width on every side.
    [[nodiscard]] int halo_width() const { return h_; }
    /// Interior point count.
    [[nodiscard]] std::size_t interior_volume() const { return n_.volume(); }
    /// Total allocation including halos.
    [[nodiscard]] std::size_t storage_size() const { return data_.size(); }

    /// Point (i, j, k); halo points use indices down to -h or up to n+h-1.
    [[nodiscard]] double& operator()(int i, int j, int k) {
        return view()(i, j, k);
    }
    [[nodiscard]] double operator()(int i, int j, int k) const {
        return view()(i, j, k);
    }
    [[nodiscard]] double* ptr(int i, int j, int k) {
        return view().ptr(i, j, k);
    }
    [[nodiscard]] const double* ptr(int i, int j, int k) const {
        return view().ptr(i, j, k);
    }
    [[nodiscard]] std::ptrdiff_t x_stride() const {
        return view().x_stride();
    }
    [[nodiscard]] std::ptrdiff_t xy_stride() const {
        return view().xy_stride();
    }

    /// Raw storage including halos (x fastest).
    [[nodiscard]] std::span<double> raw() { return data_; }
    [[nodiscard]] std::span<const double> raw() const { return data_; }

    /// Half-open range covering the interior.
    [[nodiscard]] Range3 interior() const {
        return {{0, 0, 0}, {n_.nx, n_.ny, n_.nz}};
    }

    /// Copy the values in `region` (which may extend into halos) from `src`.
    /// Both fields must have identical extents.
    void copy_region_from(const Field3& src, const Range3& region);

    /// Exact equality of interior points against another same-shaped field.
    [[nodiscard]] bool interior_equals(const Field3& other) const;

    /// Fill every halo point with `value` (useful to poison ghosts in tests).
    void fill_halo(double value);

    void swap(Field3& other) noexcept {
        std::swap(n_, other.n_);
        std::swap(h_, other.h_);
        data_.swap(other.data_);
    }

  private:
    Extents3 n_{};
    int h_ = 1;  // halo (ghost) width per side
    std::vector<double> data_;
};

}  // namespace advect::core
