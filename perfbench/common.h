// Small helpers shared by the benchmark's translation units: a seeded
// random source that depends only on the C++ standard library (so the
// benchmark's inputs never change when the program's own Rng does),
// quantiles, and process CPU / peak-RSS readings.
#pragma once

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "serve/request.h"
#include "tensor/tensor.h"

namespace perfbench {

using Clock = mime::serve::Clock;

double to_us(Clock::duration d);

/// Deterministic random source for workload inputs. The distributions
/// are written out here rather than taken from <random>, whose
/// distribution algorithms are implementation-defined.
class Random {
public:
    explicit Random(std::uint64_t seed) : engine_(seed) {}

    /// Uniform in [0, 1).
    double uniform();
    /// Exponential with the given rate (mean 1 / rate).
    double exponential(double rate);
    /// Standard normal (Box-Muller).
    double normal();
    /// Uniform integer in [0, n).
    std::uint64_t index(std::uint64_t n);

private:
    std::mt19937_64 engine_;
};

/// Image-shaped tensor of i.i.d. standard normal values.
mime::Tensor random_image(Random& random, const mime::Shape& shape);

/// Linear-interpolated quantile q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> values, double q);

/// User + system CPU seconds of this process so far.
double process_cpu_seconds();

/// Resets the kernel's peak-RSS mark to the current RSS. Returns false
/// when the kernel refuses (the peak then covers the whole process).
bool reset_peak_rss();

/// Peak resident set size (VmHWM) in MiB.
double peak_rss_mib();

}  // namespace perfbench
