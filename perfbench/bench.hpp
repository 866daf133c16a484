#pragma once
/// \file bench.hpp
/// Shared vocabulary of the end-to-end benchmark program (README.md): the
/// steady clock, the seeded generator, order statistics, the metric table
/// and the attempted/failed tally. Everything here is benchmark-side; the
/// library is only ever driven through its public calls.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace/span.hpp"

namespace perfbench {

/// Real time on the steady clock, in seconds. Every figure the benchmark
/// reports is real time, never the calling thread's CPU time.
inline double now_s() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/// splitmix64: the whole input sequence is a function of the seed alone,
/// on every platform.
class Rng {
  public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}
    std::uint64_t next() {
        state_ += 0x9E3779B97F4A7C15ull;
        std::uint64_t z = state_;
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        return z ^ (z >> 31);
    }
    /// Uniform in [0, 1).
    double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
    /// Uniform index in [0, n).
    std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
    template <class T>
    void shuffle(std::vector<T>& v) {
        for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[below(i)]);
    }

  private:
    std::uint64_t state_;
};

/// Linear-interpolation quantile (q in [0, 1]) of a non-empty sample.
inline double quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

struct Metric {
    double value = 0.0;
    std::string unit;
};
/// Metric name -> value; ordered so the printed table is stable.
using Metrics = std::map<std::string, Metric>;

/// Attempted and failed operations of one run: a solve whose state differs
/// from the reference, an exception, a refused job or a failed job each
/// count as failed, with a one-line reason kept for stderr.
struct Tally {
    long attempted = 0;
    long failed = 0;
    std::vector<std::string> errors;

    void fail(const std::string& why) {
        ++failed;
        if (errors.size() < 20) errors.push_back(why);
    }
};

/// The benchmark's own spans: one per library call it times (category
/// "bench"), kept apart from the library's recorder, which launch_solver
/// resets around every traced run.
class CallLog {
  public:
    /// Run `fn`, record a span named `name` over it, return its seconds.
    template <class Fn>
    double time(const std::string& name, Fn&& fn) {
        const double t0 = now_s();
        fn();
        const double t1 = now_s();
        record(name, t0, t1);
        return t1 - t0;
    }
    void record(const std::string& name, double t0, double t1) {
        spans_.push_back({name, "bench", advect::trace::Lane::Host, t0, t1});
    }
    [[nodiscard]] const std::vector<advect::trace::Span>& spans() const {
        return spans_;
    }

  private:
    std::vector<advect::trace::Span> spans_;
};

/// The nine implementations in paper order A..I.
[[nodiscard]] std::vector<std::string> impl_ids();

/// MPI tasks a solver cell runs with: 4 for the CPU implementations; 2 for
/// the GPU ones, whose simulated device each add an executor thread, so the
/// busy threads stay within the host's 4 cores.
[[nodiscard]] int ranks_for(const std::string& impl_id, int cpu_ranks);

}  // namespace perfbench
