#include "common.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numbers>

namespace perfbench {

double to_us(Clock::duration d) {
    return std::chrono::duration<double, std::micro>(d).count();
}

double Random::uniform() {
    return static_cast<double>(engine_() >> 11) * 0x1.0p-53;
}

double Random::exponential(double rate) {
    return -std::log1p(-uniform()) / rate;
}

double Random::normal() {
    const double u1 = 1.0 - uniform();  // (0, 1]: log stays finite
    const double u2 = uniform();
    return std::sqrt(-2.0 * std::log(u1)) *
           std::cos(2.0 * std::numbers::pi * u2);
}

std::uint64_t Random::index(std::uint64_t n) {
    return static_cast<std::uint64_t>(uniform() * static_cast<double>(n)) %
           n;
}

mime::Tensor random_image(Random& random, const mime::Shape& shape) {
    mime::Tensor image(shape);
    for (std::int64_t i = 0; i < image.numel(); ++i) {
        image[i] = static_cast<float>(random.normal());
    }
    return image;
}

double quantile(std::vector<double> values, double q) {
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const double position = q * static_cast<double>(values.size() - 1);
    const auto lower = static_cast<std::size_t>(position);
    const std::size_t upper = std::min(lower + 1, values.size() - 1);
    const double fraction = position - static_cast<double>(lower);
    return values[lower] + fraction * (values[upper] - values[lower]);
}

double process_cpu_seconds() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto seconds = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

bool reset_peak_rss() {
    malloc_trim(0);  // memory set-up freed must not count as serving's
    std::ofstream clear_refs("/proc/self/clear_refs");
    clear_refs << "5";
    clear_refs.flush();
    return clear_refs.good();
}

double peak_rss_mib() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
        }
    }
    return 0.0;
}

}  // namespace perfbench
