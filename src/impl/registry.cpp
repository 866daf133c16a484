#include "impl/registry.hpp"

#include <array>
#include <stdexcept>

namespace advect::impl {

namespace {

const std::array<Implementation, 9> kRegistry{{
    {"single_task", "IV-A", "single task with OpenMP threads", false, false},
    {"mpi_bulk", "IV-B", "bulk-synchronous MPI", true, false},
    {"mpi_nonblocking", "IV-C",
     "MPI using nonblocking communication for overlap", true, false},
    {"mpi_thread_overlap", "IV-D", "MPI using OpenMP threading for overlap",
     true, false},
    {"gpu_resident", "IV-E", "GPU resident (single device)", false, true},
    {"gpu_mpi_bulk", "IV-F", "GPU with bulk-synchronous MPI", true, true},
    {"gpu_mpi_streams", "IV-G", "GPU with MPI overlap using CUDA streams",
     true, true},
    {"cpu_gpu_bulk", "IV-H", "CPU and GPU computation with bulk-synchronous MPI",
     true, true},
    {"cpu_gpu_overlap", "IV-I",
     "CPU and GPU computation partitioned for overlap with nonblocking MPI "
     "and CPU-GPU communication",
     true, true},
}};

}  // namespace

std::span<const Implementation> registry() { return kRegistry; }

const Implementation& find_implementation(const std::string& id) {
    for (const auto& impl : kRegistry)
        if (impl.id == id) return impl;
    throw std::out_of_range("unknown implementation: " + id);
}

}  // namespace advect::impl
