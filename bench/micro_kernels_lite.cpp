// Dependency-free micro-kernel bench (plain std::chrono, so it always
// builds and runs in CI).
//
// Reports, and persists to $MIME_BENCH_JSON_DIR/BENCH_kernels.json:
//   1. dense GEMM GFLOP/s for the compiled microkernel (vs the scalar
//      reference for correctness),
//   2. row-compacted gemm_rows speedup across a density sweep,
//   3. fused threshold-mask apply throughput,
//   4. planned forward on a structurally pruned tiny-VGG: dense vs
//      sparse execution, with bit-match verification and the
//      skipped-MAC fraction,
//   5. int8 qgemm vs float gemm across the tiny-VGG conv shapes, plus
//      report-only rows for the 2x2-output (n = 4) conv shapes that run
//      the kernels' narrow paths, and float GFLOP/s of the width-0.25
//      VGG's wide per-sample conv GEMMs on pre-packed weights,
//   6. int8 quantized planned forward vs the float sparse forward on
//      the same pruned tiny-VGG (A/B-interleaved, min-of-N timing),
//   7. report-only data-movement rows of the planned conv step, per
//      layer of the width-0.125 VGG at batch 1: the lowering and the
//      weight pack in G elements/s, and the 2x2 max pool in G input
//      floats/s.
//
// `--check` turns the bench into a perf gate: it exits nonzero unless
//   * the sparse planned forward beats dense by >= 1.1x at 75% channel
//     pruning (a silent dense fallback would show ~1.0x and fail),
//   * int8 qgemm beats float gemm by >= 1.5x aggregated over the
//     tiny-VGG shapes,
//   * the int8+sparse planned forward beats the float32 sparse forward
//     by >= 1.3x on the same pruned network.
// MIME_KERNELS_ITERS scales the timing loops (default 30). The JSON
// also records the host (CPU model, logical CPU count), the repetition
// count of every timing loop, and the spread of the two A/B-interleaved
// gate ratios across their repetitions.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "arch/vgg.h"
#include "bench_common.h"
#include "common/check.h"
#include "core/mime_network.h"
#include "core/threshold_mask.h"
#include "nn/pooling.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "tensor/qgemm.h"
#include "tensor/tensor.h"
#include "tensor/workspace.h"

namespace mime::bench {
namespace {

int env_int(const char* name, int fallback) {
    const char* env = std::getenv(name);
    if (env == nullptr) {
        return fallback;
    }
    const int value = std::atoi(env);
    return value > 0 ? value : fallback;
}

/// The "model name" line of /proc/cpuinfo, or "unknown" where there is
/// none.
std::string cpu_model() {
    std::ifstream cpuinfo("/proc/cpuinfo");
    std::string line;
    while (std::getline(cpuinfo, line)) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos) {
                const std::size_t start =
                    line.find_first_not_of(' ', colon + 1);
                return start == std::string::npos ? "" : line.substr(start);
            }
        }
    }
    return "unknown";
}

/// Repetitions of the time_seconds loops.
constexpr int kTimeReps = 3;

/// Best-of-three wall-clock seconds for `iters` repetitions of `fn`.
template <typename Fn>
double time_seconds(int iters, Fn&& fn) {
    double best = 0.0;
    for (int rep = 0; rep < kTimeReps; ++rep) {
        const auto start = std::chrono::steady_clock::now();
        for (int i = 0; i < iters; ++i) {
            fn();
        }
        const std::chrono::duration<double> elapsed =
            std::chrono::steady_clock::now() - start;
        const double s = elapsed.count();
        if (rep == 0 || s < best) {
            best = s;
        }
    }
    return best;
}

/// Per-repetition seconds of both sides of an A/B timing.
struct AbTimes {
    std::vector<double> a;
    std::vector<double> b;

    double best_a() const { return *std::min_element(a.begin(), a.end()); }
    double best_b() const { return *std::min_element(b.begin(), b.end()); }
};

/// Min and max over repetitions of sum(a) / sum(b), the sums running
/// over every A/B timing in `timings` (all with the same repetitions).
std::pair<double, double> per_rep_ratio_range(
    const std::vector<AbTimes>& timings) {
    double lo = 0.0;
    double hi = 0.0;
    for (std::size_t rep = 0; rep < timings.front().a.size(); ++rep) {
        double a = 0.0;
        double b = 0.0;
        for (const AbTimes& t : timings) {
            a += t.a[rep];
            b += t.b[rep];
        }
        const double ratio = a / b;
        lo = rep == 0 ? ratio : std::min(lo, ratio);
        hi = rep == 0 ? ratio : std::max(hi, ratio);
    }
    return {lo, hi};
}

Json ratio_range_json(const std::pair<double, double>& range) {
    Json json;
    json.set("min", range.first);
    json.set("max", range.second);
    return json;
}

/// Interleaved A/B timing: alternates the two candidates within each
/// repetition and records both sides' times; the gates use each side's
/// minimum. On a noisy machine this is
/// much fairer than timing A's block then B's block — a background
/// burst lands on both sides instead of poisoning one.
template <typename FnA, typename FnB>
AbTimes ab_time_seconds(int iters, int reps, FnA&& a, FnB&& b) {
    AbTimes times;
    for (int rep = 0; rep < reps; ++rep) {
        auto start = std::chrono::steady_clock::now();
        for (int i = 0; i < iters; ++i) {
            a();
        }
        const double sa =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count();
        start = std::chrono::steady_clock::now();
        for (int i = 0; i < iters; ++i) {
            b();
        }
        const double sb =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count();
        times.a.push_back(sa);
        times.b.push_back(sb);
    }
    return times;
}

core::MimeNetworkConfig tiny_vgg_config() {
    core::MimeNetworkConfig config;
    config.vgg.input_size = 32;
    config.vgg.width_scale = 0.0625;
    config.vgg.num_classes = 10;
    config.seed = 5;
    return config;
}

/// Structurally prunes every site to 1/keep_mod channel density.
void prune_channels(core::MimeNetwork& net, std::int64_t keep_mod) {
    for (std::int64_t s = 0; s < net.site_count(); ++s) {
        core::ThresholdMask& mask = net.site(s).mask();
        Tensor& t = mask.thresholds().value;
        const std::int64_t channels = mask.activation_shape().dim(0);
        const std::int64_t extent = mask.activation_shape().numel() / channels;
        for (std::int64_t c = 0; c < channels; ++c) {
            const float value =
                (c % keep_mod == 0) ? 0.05f : core::kPrunedThreshold;
            for (std::int64_t i = 0; i < extent; ++i) {
                t.data()[c * extent + i] = value;
            }
        }
        mask.mark_thresholds_dirty();
    }
}

int run(bool check_mode) {
    const int iters = env_int("MIME_KERNELS_ITERS", 30);
    print_banner(
        "micro_kernels_lite: GEMM / gemm_rows / mask-apply / sparse forward",
        "MIME row compaction converts structural sparsity into speedup");
    const std::string host_cpu = cpu_model();
    const auto host_cpus =
        static_cast<std::int64_t>(std::thread::hardware_concurrency());
    std::printf("  kernel: %s, iters: %d\n  host: %s, %lld logical CPUs\n\n",
                gemm_kernel_name(), iters, host_cpu.c_str(),
                static_cast<long long>(host_cpus));

    // Repetitions of each timing loop below (each repetition runs
    // `iters` calls; a loop reports its fastest repetition).
    constexpr int kQgemmReps = 5;
    constexpr int kNarrowReps = 5;
    constexpr int kInt8ForwardReps = 7;

    Json json;
    json.set("bench", "micro_kernels_lite");
    json.set("kernel", gemm_kernel_name());
    json.set("host_cpu_model", host_cpu);
    json.set("host_logical_cpus", host_cpus);
    json.set("iters", iters);
    Json reps;
    reps.set("gemm", kTimeReps);
    reps.set("gemm_rows_sweep", kTimeReps);
    reps.set("mask_apply", kTimeReps);
    reps.set("forward_dense_sparse", kTimeReps);
    reps.set("qgemm_shapes", kQgemmReps);
    reps.set("narrow_shapes", kNarrowReps);
    reps.set("wide_conv_shapes", kTimeReps);
    reps.set("forward_int8", kInt8ForwardReps);
    reps.set("conv_data_movement", kTimeReps);
    json.set("timing_reps", std::move(reps));

    // -- 1. dense GEMM ----------------------------------------------------
    const std::int64_t m = 192, n = 192, k = 192;
    Rng rng(11);
    const Tensor a = Tensor::randn({m, k}, rng);
    const Tensor b = Tensor::randn({k, n}, rng);
    Tensor c({m, n});
    Tensor c_ref({m, n});
    gemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
         c.data(), n);
    gemm_reference(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n,
                   0.0f, c_ref.data(), n);
    double max_err = 0.0;
    for (std::int64_t i = 0; i < m * n; ++i) {
        max_err = std::max(
            max_err, static_cast<double>(
                         std::abs(c.data()[i] - c_ref.data()[i])));
    }
    MIME_REQUIRE(max_err < 2e-3, "microkernel diverges from reference");
    const double gemm_s = time_seconds(iters, [&] {
        gemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
             c.data(), n);
    });
    const double gflops = 2.0 * static_cast<double>(m * n * k) * iters /
                          gemm_s / 1e9;
    std::printf("  dense gemm %lldx%lldx%lld: %.2f GFLOP/s (max |err| %.2e)\n",
                static_cast<long long>(m), static_cast<long long>(n),
                static_cast<long long>(k), gflops, max_err);
    json.set("gemm_gflops", gflops);
    json.set("gemm_max_abs_err", max_err);

    // -- 2. gemm_rows density sweep ---------------------------------------
    std::vector<Json> sweep;
    std::printf("\n  gemm_rows density sweep (vs dense %lldx%lldx%lld):\n",
                static_cast<long long>(m), static_cast<long long>(n),
                static_cast<long long>(k));
    for (const double density : {1.0, 0.5, 0.25, 0.1}) {
        std::vector<std::int64_t> rows;
        for (std::int64_t r = 0; r < k; ++r) {
            if (static_cast<double>(r % 20) < 20.0 * density) {
                rows.push_back(r);
            }
        }
        const double rows_s = time_seconds(iters, [&] {
            gemm_rows(false, false, m, n, k, rows.data(),
                      static_cast<std::int64_t>(rows.size()), 1.0f, a.data(),
                      k, b.data(), n, 0.0f, c.data(), n);
        });
        const double speedup = gemm_s / rows_s;
        const double measured =
            static_cast<double>(rows.size()) / static_cast<double>(k);
        std::printf("    density %.2f (%3zu/%lld rows): %6.2fx dense time\n",
                    measured, rows.size(), static_cast<long long>(k),
                    speedup);
        Json row;
        row.set("density", measured);
        row.set("live_rows", static_cast<std::int64_t>(rows.size()));
        row.set("speedup_vs_dense", speedup);
        sweep.push_back(std::move(row));
    }
    json.set("gemm_rows_sweep", std::move(sweep));

    // -- 3. fused mask apply ----------------------------------------------
    const std::int64_t mask_features = 4096, mask_batch = 64;
    core::ThresholdMask mask({mask_features}, 0.0f);
    const Tensor acts = Tensor::randn({mask_batch, mask_features}, rng);
    Tensor scratch = acts.clone();
    const double mask_s = time_seconds(iters, [&] {
        scratch.copy_from(acts);
        mask.forward_eval_inplace(scratch);
    });
    const double melem =
        static_cast<double>(mask_batch * mask_features) * iters / mask_s /
        1e6;
    std::printf("\n  mask apply (fused zero count): %.0f Melem/s, "
                "sparsity %.3f\n", melem, mask.last_sparsity());
    json.set("mask_apply_melem_per_s", melem);

    // -- 4. planned forward: dense vs sparse ------------------------------
    const std::int64_t batch = 8;
    core::MimeNetwork net(tiny_vgg_config());
    net.set_training(false);
    net.set_eval_mode(true);
    net.set_mode(core::ActivationMode::threshold);
    prune_channels(net, /*keep_mod=*/4);  // 75% of channels pruned

    Rng input_rng(17);
    const Tensor x = Tensor::randn({batch, 3, 32, 32}, input_rng);
    Workspace workspace;

    net.set_sparse_execution({false, 1.0});
    std::vector<float> dense_logits;
    {
        const Tensor& out = net.forward_planned(x, workspace);  // warm-up
        dense_logits.assign(out.data(), out.data() + out.numel());
    }
    const double dense_s = time_seconds(
        iters, [&] { net.forward_planned(x, workspace); });

    net.set_sparse_execution({true, 1.0});
    const Tensor& sparse_out = net.forward_planned(x, workspace);  // warm-up
    MIME_REQUIRE(std::memcmp(dense_logits.data(), sparse_out.data(),
                             dense_logits.size() * sizeof(float)) == 0,
                 "sparse planned forward must bit-match dense");
    const double sparse_s = time_seconds(
        iters, [&] { net.forward_planned(x, workspace); });

    const double forward_speedup = dense_s / sparse_s;
    const double skipped_fraction =
        net.planned_dense_macs() > 0
            ? static_cast<double>(net.planned_skipped_macs()) /
                  static_cast<double>(net.planned_dense_macs())
            : 0.0;
    std::printf("\n  planned forward, tiny-VGG @75%% channel pruning, "
                "batch %lld:\n", static_cast<long long>(batch));
    std::printf("    dense  %8.3f ms/iter\n", dense_s / iters * 1e3);
    std::printf("    sparse %8.3f ms/iter (bit-matched)\n",
                sparse_s / iters * 1e3);
    print_claim("sparse planned forward speedup", ">= 1.1x (gate)",
                std::to_string(forward_speedup).substr(0, 5) + "x");
    print_claim("skipped-MAC fraction", "~ channel density",
                std::to_string(skipped_fraction).substr(0, 5));
    json.set("forward_batch", batch);
    json.set("forward_dense_ms", dense_s / iters * 1e3);
    json.set("forward_sparse_ms", sparse_s / iters * 1e3);
    json.set("forward_sparse_speedup", forward_speedup);
    json.set("forward_skipped_mac_fraction", skipped_fraction);
    json.set("forward_bit_match", true);

    // -- 5. int8 qgemm vs float gemm on tiny-VGG conv shapes ---------------
    // The im2col GEMMs the pruned tiny-VGG actually runs: m = Cout,
    // n = output spatial, k = Cin * 3 * 3, one shape per conv block.
    struct QShape {
        const char* name;
        std::int64_t m, n, k;
    };
    const QShape qshapes[] = {{"conv1", 4, 1024, 27},
                              {"conv4", 8, 256, 72},
                              {"conv7", 16, 64, 144},
                              {"conv9-10", 32, 16, 288}};
    std::printf("\n  int8 qgemm vs float gemm (%s, tiny-VGG conv shapes):\n",
                qgemm_kernel_name());
    double float_total_s = 0.0;
    double int8_total_s = 0.0;
    std::vector<AbTimes> qgemm_timings;
    std::vector<Json> qgemm_rows_json;
    for (const QShape& shape : qshapes) {
        const Tensor fa = Tensor::randn({shape.m, shape.k}, rng);
        const Tensor fb = Tensor::randn({shape.k, shape.n}, rng);
        Tensor fc({shape.m, shape.n});
        std::vector<std::int8_t> qa(
            static_cast<std::size_t>(shape.m * shape.k));
        std::vector<std::int8_t> qb(
            static_cast<std::size_t>(shape.k * shape.n));
        for (std::size_t i = 0; i < qa.size(); ++i) {
            qa[i] = static_cast<std::int8_t>(
                static_cast<std::int64_t>(rng.uniform_index(255)) - 127);
        }
        for (std::size_t i = 0; i < qb.size(); ++i) {
            qb[i] = static_cast<std::int8_t>(
                static_cast<std::int64_t>(rng.uniform_index(255)) - 127);
        }
        std::vector<std::int32_t> qc(
            static_cast<std::size_t>(shape.m * shape.n));
        qgemm_timings.push_back(ab_time_seconds(
            iters, kQgemmReps,
            [&] {
                gemm(false, false, shape.m, shape.n, shape.k, 1.0f,
                     fa.data(), shape.k, fb.data(), shape.n, 0.0f, fc.data(),
                     shape.n);
            },
            [&] {
                qgemm(shape.m, shape.n, shape.k, qa.data(), shape.k,
                      qb.data(), shape.n, qc.data(), shape.n);
            }));
        const double float_s = qgemm_timings.back().best_a();
        const double int8_s = qgemm_timings.back().best_b();
        float_total_s += float_s;
        int8_total_s += int8_s;
        std::printf("    %-7s %3lldx%4lldx%3lld: %6.2fx float time\n",
                    shape.name, static_cast<long long>(shape.m),
                    static_cast<long long>(shape.n),
                    static_cast<long long>(shape.k), float_s / int8_s);
        Json row;
        row.set("shape", std::string(shape.name));
        row.set("m", shape.m);
        row.set("n", shape.n);
        row.set("k", shape.k);
        row.set("int8_speedup_vs_float", float_s / int8_s);
        qgemm_rows_json.push_back(std::move(row));
    }
    const double qgemm_speedup = float_total_s / int8_total_s;
    const auto qgemm_range = per_rep_ratio_range(qgemm_timings);
    print_claim("int8 qgemm speedup (aggregate)", ">= 1.5x (gate)",
                std::to_string(qgemm_speedup).substr(0, 5) + "x");
    std::printf("    per repetition: %.3fx .. %.3fx\n", qgemm_range.first,
                qgemm_range.second);
    json.set("qgemm_kernel", qgemm_kernel_name());
    json.set("qgemm_shapes", std::move(qgemm_rows_json));
    json.set("qgemm_int8_speedup", qgemm_speedup);
    json.set("qgemm_int8_speedup_per_rep", ratio_range_json(qgemm_range));

    // Report-only (no gate): the 2x2-output conv11-13 shapes, n = 4, of
    // the tiny-VGG and of the width-0.25 VGG the serving benchmark's
    // `singular` workload runs. Float runs gemm's narrow path; int8 runs
    // the operand-swapped product Conv2d uses for narrow outputs
    // ([n, k] x [k, m], so its 16-wide tiles span output channels).
    const QShape narrow_shapes[] = {{"conv11-13", 32, 4, 288},
                                    {"w0.25 conv11-13", 128, 4, 1152}};
    std::printf("\n  narrow (n = 4) conv shapes, report-only:\n");
    std::vector<Json> narrow_json;
    for (const QShape& shape : narrow_shapes) {
        const Tensor fa = Tensor::randn({shape.m, shape.k}, rng);
        const Tensor fb = Tensor::randn({shape.k, shape.n}, rng);
        Tensor fc({shape.m, shape.n});
        std::vector<std::int8_t> qa(
            static_cast<std::size_t>(shape.n * shape.k));
        std::vector<std::int8_t> qb(
            static_cast<std::size_t>(shape.k * shape.m));
        for (auto* q : {&qa, &qb}) {
            for (std::int8_t& v : *q) {
                v = static_cast<std::int8_t>(
                    static_cast<std::int64_t>(rng.uniform_index(255)) - 127);
            }
        }
        std::vector<std::int32_t> qc(
            static_cast<std::size_t>(shape.n * shape.m));
        const AbTimes timing = ab_time_seconds(
            iters, kNarrowReps,
            [&] {
                gemm(false, false, shape.m, shape.n, shape.k, 1.0f,
                     fa.data(), shape.k, fb.data(), shape.n, 0.0f, fc.data(),
                     shape.n);
            },
            [&] {
                qgemm(shape.n, shape.m, shape.k, qa.data(), shape.k,
                      qb.data(), shape.m, qc.data(), shape.m);
            });
        const double float_s = timing.best_a();
        const double int8_s = timing.best_b();
        const double float_gflops = 2.0 *
                                    static_cast<double>(shape.m * shape.n *
                                                        shape.k) *
                                    iters / float_s / 1e9;
        std::printf("    %-15s %3lldx%4lldx%4lld: float %6.2f GFLOP/s, "
                    "int8 %5.2fx float time\n",
                    shape.name, static_cast<long long>(shape.m),
                    static_cast<long long>(shape.n),
                    static_cast<long long>(shape.k), float_gflops,
                    float_s / int8_s);
        Json row;
        row.set("shape", std::string(shape.name));
        row.set("m", shape.m);
        row.set("n", shape.n);
        row.set("k", shape.k);
        row.set("float_gflops", float_gflops);
        row.set("int8_speedup_vs_float", float_s / int8_s);
        narrow_json.push_back(std::move(row));
    }
    json.set("narrow_shapes", std::move(narrow_json));

    // Report-only (no gate): the wide per-sample conv GEMMs of the
    // width-0.25 VGG that `singular` serves (m = Cout, n = output
    // positions, k = Cin * 3 * 3), run the way Conv2d::forward_into runs
    // them: the weights packed once with gemm_pack, then one gemm_packed
    // per sample, which is what is timed here.
    const QShape wide_shapes[] = {{"w0.25 conv2", 16, 1024, 144},
                                  {"w0.25 conv4", 32, 256, 288},
                                  {"w0.25 conv6-7", 64, 64, 576},
                                  {"w0.25 conv9-10", 128, 16, 1152}};
    std::printf("\n  wide conv shapes, packed once, report-only:\n");
    std::vector<Json> wide_json;
    for (const QShape& shape : wide_shapes) {
        const Tensor fa = Tensor::randn({shape.m, shape.k}, rng);
        const Tensor fb = Tensor::randn({shape.k, shape.n}, rng);
        Tensor fc({shape.m, shape.n});
        std::vector<float> packed(
            static_cast<std::size_t>(gemm_pack_floats(shape.m, shape.k)));
        gemm_pack(false, shape.m, shape.k, nullptr, shape.k, 1.0f, fa.data(),
                  shape.k, packed.data());
        const double float_s = time_seconds(iters, [&] {
            gemm_packed(shape.m, shape.n, shape.k, nullptr, shape.k,
                        packed.data(), fb.data(), shape.n, 0.0f, fc.data(),
                        shape.n);
        });
        const double float_gflops = 2.0 *
                                    static_cast<double>(shape.m * shape.n *
                                                        shape.k) *
                                    iters / float_s / 1e9;
        std::printf("    %-15s %3lldx%4lldx%4lld: float %6.2f GFLOP/s\n",
                    shape.name, static_cast<long long>(shape.m),
                    static_cast<long long>(shape.n),
                    static_cast<long long>(shape.k), float_gflops);
        Json row;
        row.set("shape", std::string(shape.name));
        row.set("m", shape.m);
        row.set("n", shape.n);
        row.set("k", shape.k);
        row.set("float_gflops", float_gflops);
        wide_json.push_back(std::move(row));
    }
    json.set("wide_conv_shapes", std::move(wide_json));

    // -- 6. int8 quantized planned forward vs float sparse -----------------
    // Two networks with identical weights and pruning so the A/B can
    // interleave without plan rebuilds (flipping the mode on one
    // network would rebuild its plans every repetition).
    core::MimeNetwork qnet(tiny_vgg_config());
    qnet.set_training(false);
    qnet.set_eval_mode(true);
    qnet.set_mode(core::ActivationMode::threshold);
    prune_channels(qnet, /*keep_mod=*/4);
    qnet.set_sparse_execution({true, 1.0});
    qnet.set_quantized_execution({true});
    Workspace qworkspace;

    net.set_sparse_execution({true, 1.0});
    net.forward_planned(x, workspace);                       // warm-up
    const Tensor& int8_out = qnet.forward_planned(x, qworkspace);  // warm-up
    const Tensor& float_out = net.forward_planned(x, workspace);
    std::int64_t agree = 0;
    const std::int64_t classes = float_out.shape().dim(1);
    for (std::int64_t s = 0; s < batch; ++s) {
        std::int64_t best_f = 0;
        std::int64_t best_q = 0;
        for (std::int64_t j = 1; j < classes; ++j) {
            if (float_out.data()[s * classes + j] >
                float_out.data()[s * classes + best_f]) {
                best_f = j;
            }
            if (int8_out.data()[s * classes + j] >
                int8_out.data()[s * classes + best_q]) {
                best_q = j;
            }
        }
        agree += best_f == best_q;
    }
    const AbTimes forward_timing = ab_time_seconds(
        iters, kInt8ForwardReps,
        [&] { net.forward_planned(x, workspace); },
        [&] { qnet.forward_planned(x, qworkspace); });
    const double float_fwd_s = forward_timing.best_a();
    const double int8_fwd_s = forward_timing.best_b();
    const double int8_speedup = float_fwd_s / int8_fwd_s;
    const auto forward_range = per_rep_ratio_range({forward_timing});
    std::printf("\n  quantized planned forward, same pruned tiny-VGG:\n");
    std::printf("    float32 sparse %8.3f ms/iter\n",
                float_fwd_s / iters * 1e3);
    std::printf("    int8    sparse %8.3f ms/iter\n",
                int8_fwd_s / iters * 1e3);
    print_claim("int8 planned forward speedup", ">= 1.3x (gate)",
                std::to_string(int8_speedup).substr(0, 5) + "x");
    std::printf("    per repetition: %.3fx .. %.3fx\n", forward_range.first,
                forward_range.second);
    std::printf("    top-1 agreement on bench batch: %lld/%lld, "
                "weight max rel err %.4f\n",
                static_cast<long long>(agree),
                static_cast<long long>(batch),
                qnet.planned_quantized_max_rel_error());
    json.set("forward_int8_ms", int8_fwd_s / iters * 1e3);
    json.set("forward_float_sparse_ms", float_fwd_s / iters * 1e3);
    json.set("forward_int8_speedup_vs_float_sparse", int8_speedup);
    json.set("forward_int8_speedup_per_rep", ratio_range_json(forward_range));
    json.set("forward_int8_top1_agree", agree);
    json.set("forward_int8_top1_total", batch);
    json.set("quantized_weight_max_rel_error",
             qnet.planned_quantized_max_rel_error());

    // -- 7. conv-step data movement, report-only ---------------------------
    // Each conv of the width-0.125 VGG that `burst` serves, at batch 1:
    // the lowering of one sample (column-matrix elements written per
    // second, read off the zero-bordered plane) and the pack of the
    // layer's Cout x C*K*K weights into panels (elements per second);
    // then each 2x2 max pool's planned forward (input floats per
    // second). One timed iteration makes kMoveCalls calls. The column
    // matrix, the plane and the pack are carved from a Workspace, as
    // Conv2d::forward_into carves them, so they are cacheline-aligned.
    constexpr int kMoveCalls = 50;
    arch::VggConfig vgg;
    vgg.width_scale = 0.125;
    std::printf("\n  conv-step data movement, width-0.125 VGG, batch 1, "
                "report-only:\n");
    std::vector<Json> movement_json;
    std::vector<Json> pool_json;
    const double calls = static_cast<double>(iters) * kMoveCalls;
    for (const arch::LayerSpec& spec : arch::vgg16_spec(vgg)) {
        if (spec.kind != arch::LayerKind::conv) {
            continue;
        }
        ConvGeometry g;
        g.in_channels = spec.in_channels;
        g.in_height = spec.in_height;
        g.in_width = spec.in_width;
        g.kernel = spec.kernel;
        g.stride = spec.stride;
        g.padding = spec.padding;
        const Tensor sample =
            Tensor::randn({spec.in_channels, spec.in_height, spec.in_width},
                          rng);
        const std::int64_t lowered_floats = g.col_rows() * g.col_cols();
        const std::int64_t packed_floats =
            gemm_pack_floats(spec.out_channels, g.col_rows());
        Workspace move_ws(
            (Workspace::aligned_floats(lowered_floats) +
             Workspace::aligned_floats(g.plane_elements()) +
             Workspace::aligned_floats(packed_floats)) *
            sizeof(float));
        float* cols = move_ws.alloc_floats(lowered_floats);
        float* plane = move_ws.alloc_floats(g.plane_elements());
        float* packed = move_ws.alloc_floats(packed_floats);
        const double lower_s = time_seconds(iters, [&] {
            for (int i = 0; i < kMoveCalls; ++i) {
                im2col(g, sample.data(), cols, plane);
            }
        });
        const Tensor weight =
            Tensor::randn({spec.out_channels, g.col_rows()}, rng);
        const double pack_s = time_seconds(iters, [&] {
            for (int i = 0; i < kMoveCalls; ++i) {
                gemm_pack(false, spec.out_channels, g.col_rows(), nullptr,
                          g.col_rows(), 1.0f, weight.data(), g.col_rows(),
                          packed);
            }
        });
        const double lowered = static_cast<double>(lowered_floats);
        const double weights =
            static_cast<double>(spec.out_channels * g.col_rows());
        std::printf("    %-6s %3lld ch %2lldx%-2lld -> %3lld: lowering "
                    "%5.2f G elem/s (%6.2f us), pack %5.2f G elem/s "
                    "(%6.2f us)\n",
                    spec.name.c_str(),
                    static_cast<long long>(spec.in_channels),
                    static_cast<long long>(spec.in_height),
                    static_cast<long long>(spec.in_width),
                    static_cast<long long>(spec.out_channels),
                    lowered * calls / lower_s / 1e9, lower_s / calls * 1e6,
                    weights * calls / pack_s / 1e9, pack_s / calls * 1e6);
        Json row;
        row.set("layer", spec.name);
        row.set("in_channels", spec.in_channels);
        row.set("out_channels", spec.out_channels);
        row.set("in_size", spec.in_height);
        row.set("lowering_gelem_per_s", lowered * calls / lower_s / 1e9);
        row.set("lowering_us", lower_s / calls * 1e6);
        row.set("pack_gelem_per_s", weights * calls / pack_s / 1e9);
        row.set("pack_us", pack_s / calls * 1e6);
        movement_json.push_back(std::move(row));
        if (!spec.pool_after) {
            continue;
        }
        nn::MaxPool2d pool(2, 2);
        pool.set_eval_mode(true);
        const Tensor pool_in = Tensor::randn(
            {1, spec.out_channels, spec.out_height(), spec.out_width()}, rng);
        Tensor pool_out(pool.output_shape(pool_in.shape()));
        const double pool_s = time_seconds(iters, [&] {
            for (int i = 0; i < kMoveCalls; ++i) {
                pool.forward_into(pool_in, pool_out);
            }
        });
        const double floats = static_cast<double>(pool_in.numel());
        std::printf("    pool after %-6s %3lld ch %2lldx%-2lld: %5.2f G "
                    "input floats/s (%6.2f us)\n",
                    spec.name.c_str(),
                    static_cast<long long>(spec.out_channels),
                    static_cast<long long>(spec.out_height()),
                    static_cast<long long>(spec.out_width()),
                    floats * calls / pool_s / 1e9, pool_s / calls * 1e6);
        Json pool_row;
        pool_row.set("after", spec.name);
        pool_row.set("channels", spec.out_channels);
        pool_row.set("in_size", spec.out_height());
        pool_row.set("gfloats_per_s", floats * calls / pool_s / 1e9);
        pool_row.set("us", pool_s / calls * 1e6);
        pool_json.push_back(std::move(pool_row));
    }
    json.set("conv_data_movement", std::move(movement_json));
    json.set("max_pool_2x2", std::move(pool_json));

    write_json_file("BENCH_kernels.json", json);

    if (check_mode) {
        // One machine-readable line per gate so CI log scrapers get the
        // verdict, the measured ratio and the reason without parsing
        // prose.
        bool all_pass = true;
        const struct {
            const char* check;
            double measured;
            double threshold;
            const char* ok;
            const char* bad;
        } gates[] = {
            {"sparse_forward_speedup", forward_speedup, 1.1,
             "sparse planned forward beats dense by the gated margin",
             "dense fallback or kernel regression: sparse speedup below "
             "gate"},
            {"int8_qgemm_speedup", qgemm_speedup, 1.5,
             "int8 qgemm beats float gemm on the tiny-VGG shapes",
             "int8 kernel regression or scalar fallback: qgemm speedup "
             "below gate"},
            {"int8_forward_speedup", int8_speedup, 1.3,
             "int8 planned forward beats float32 sparse by the gated "
             "margin",
             "quantized path regression: int8 forward speedup below gate"},
        };
        for (const auto& gate : gates) {
            const bool pass = gate.measured >= gate.threshold;
            all_pass = all_pass && pass;
            Json verdict;
            verdict.set("check", std::string(gate.check));
            verdict.set("pass", pass);
            verdict.set("measured_speedup", gate.measured);
            verdict.set("threshold", gate.threshold);
            verdict.set("reason",
                        std::string(pass ? gate.ok : gate.bad));
            std::printf("\nCHECK_RESULT %s\n", verdict.to_line().c_str());
            if (!pass) {
                std::printf("CHECK FAILED: %s %.3fx < %.1fx\n", gate.check,
                            gate.measured, gate.threshold);
            }
        }
        if (!all_pass) {
            return 1;
        }
        std::printf("\nall checks passed: sparse %.3fx >= 1.1x, int8 gemm "
                    "%.3fx >= 1.5x, int8 forward %.3fx >= 1.3x\n",
                    forward_speedup, qgemm_speedup, int8_speedup);
    }
    return 0;
}

}  // namespace
}  // namespace mime::bench

int main(int argc, char** argv) {
    bool check = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--check") == 0) {
            check = true;
        }
    }
    return mime::bench::run(check);
}
