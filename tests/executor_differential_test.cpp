// Seeded differential test for the planned executor. Each seed draws
// per-channel thresholds from {0, 0.05, -1, 1e30, +inf, NaN} with one
// site all-live, twice: once with no site all-dead, so the logits depend
// on the input through every layer, and once with one site forced
// all-dead (everything past it then depends on the biases only). The
// networks are a tiny VGG (whose 2x2 conv11-13 run the narrow GEMMs) and
// a plain CNN with batchnorm whose channel counts are not multiples of
// the SIMD width, at 16x16 and at 20x20 input (whose conv outputs of
// 100 and 25 positions run the wide GEMM tile's 8-wide and scalar
// column tails). At batch sizes 1, 3 and 8, in an order drawn per seed
// (so smaller plans also run on an arena a larger plan grew),
// single-threaded and banded over a pool, and with the sparse policy's
// density cutoff at 0, at its default and at 1.0:
//   * float sparse planned logits == float dense planned logits ==
//     MimeNetwork::forward, bit for bit;
//   * int8 sparse planned logits == int8 dense planned logits, bit for
//     bit;
//   * the planned skipped-MAC counter equals the count recomputed here
//     from layer_specs(), the live lists and the cutoff, and does not
//     fall as the cutoff rises. At cutoff 0 only an empty list (density
//     0) compacts, so the count is what the all-dead lists skip, and 0
//     where no list is empty; at 1.0 every list that is not all-live
//     compacts, on both sides of a conv.
// Before each checked run, a batch of another size whose inputs include
// +-1e30, +inf and NaN runs through the same network, so every checked
// run starts from an arena holding another plan's garbage (huge,
// infinite and NaN activations), which the skipped output channels must
// never leak.
// The seed list is fixed, plus one seed from std::random_device that is
// printed to the test log; add it to kSeeds to replay a failure.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "arch/plain_cnn.h"
#include "common/thread_pool.h"
#include "core/mime_network.h"
#include "nn/conv2d.h"
#include "tensor/workspace.h"

namespace mime {
namespace {

constexpr double kCutoffs[] = {0.0, nn::kDefaultSparseDensityCutoff, 1.0};
constexpr std::uint64_t kSeeds[] = {1, 2, 3, 4};

std::vector<std::uint64_t> seeds() {
    static const std::uint64_t logged = [] {
        std::random_device device;
        const std::uint64_t seed =
            (static_cast<std::uint64_t>(device()) << 32) | device();
        std::printf("executor_differential_test: random seed %llu\n",
                    static_cast<unsigned long long>(seed));
        return seed;
    }();
    std::vector<std::uint64_t> all(std::begin(kSeeds), std::end(kSeeds));
    all.push_back(logged);
    return all;
}

core::MimeNetworkConfig tiny_vgg() {
    core::MimeNetworkConfig config;
    config.vgg.input_size = 32;
    config.vgg.width_scale = 0.0625;
    config.vgg.num_classes = 10;
    config.seed = 3;
    return config;
}

/// Four pooled blocks, so the last block's conv has a 2x2 output (the
/// narrow GEMMs) at 16x16 and at 20x20 input; every width is odd.
/// plain_cnn_spec takes only sizes divisible by 2^blocks, so the convs
/// of the 16x16 spec are re-sized to `input_size`. Each 2x2 pool floors
/// (20 -> 10 -> 5 -> 2 -> 1), so the fc widths stay the same, and at
/// 20x20 the wide convs' outputs have 400, 100 and 25 positions.
core::MimeNetworkConfig odd_channel_cnn(std::int64_t input_size) {
    arch::PlainCnnConfig cnn;
    cnn.input_size = 16;
    cnn.blocks = {{5, 1}, {13, 2}, {21, 1}, {13, 1}};
    cnn.fc_widths = {11};
    cnn.num_classes = 7;
    core::MimeNetworkConfig config;
    config.custom_layers = arch::plain_cnn_spec(cnn);
    std::int64_t hw = input_size;
    for (arch::LayerSpec& spec : config.custom_layers) {
        if (spec.kind == arch::LayerKind::conv) {
            spec.in_height = hw;
            spec.in_width = hw;
            hw = spec.pool_after ? hw / 2 : hw;
        }
    }
    config.custom_classifier = arch::plain_cnn_classifier(cnn);
    config.batchnorm = true;
    config.seed = 5;
    return config;
}

/// Nudges every bias (and batchnorm gamma / beta) off its init, so a
/// conv whose input is all zero still writes a nonzero output.
void perturb_vectors(core::MimeNetwork& net, std::mt19937_64& rng) {
    std::normal_distribution<float> normal(0.0f, 0.05f);
    for (nn::Parameter* parameter : net.backbone_parameters()) {
        if (parameter->value.shape().rank() == 1) {
            for (std::int64_t i = 0; i < parameter->value.numel(); ++i) {
                parameter->value[i] += normal(rng);
            }
        }
    }
}

/// Per-channel thresholds from {0, 0.05, -1, 1e30, +inf, NaN}: site
/// `all_dead` (none when -1) gets only +inf or NaN, site `all_live` no
/// +inf or NaN. Elsewhere one site in three is mostly dead (so some
/// output lists are short enough for the narrow int8 conv to gather its
/// weights), and one channel in eight draws per neuron, so partly dead
/// channels occur too.
void draw_thresholds(core::MimeNetwork& net, std::int64_t all_dead,
                     std::int64_t all_live, std::mt19937_64& rng) {
    const float values[] = {0.0f,
                            0.05f,
                            -1.0f,
                            1e30f,
                            std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::quiet_NaN()};
    for (std::int64_t s = 0; s < net.site_count(); ++s) {
        core::ThresholdMask& mask = net.site(s).mask();
        Tensor& t = mask.thresholds().value;
        const std::int64_t channels = mask.activation_shape().dim(0);
        const std::int64_t extent = t.numel() / channels;
        const bool mostly_dead = s != all_live && rng() % 3 == 0;
        auto draw = [&] {
            if (s == all_dead || (mostly_dead && rng() % 4 != 0)) {
                return values[4 + rng() % 2];
            }
            return values[rng() % (s == all_live ? 4 : 6)];
        };
        for (std::int64_t c = 0; c < channels; ++c) {
            const bool per_neuron = rng() % 8 == 0;
            const float channel_value = draw();
            for (std::int64_t i = c * extent; i < (c + 1) * extent; ++i) {
                t[i] = per_neuron ? draw() : channel_value;
            }
        }
        mask.mark_thresholds_dirty();
    }
}

Tensor random_input(std::int64_t batch, std::int64_t size,
                    std::mt19937_64& rng) {
    std::normal_distribution<float> normal(0.0f, 1.0f);
    Tensor x({batch, 3, size, size});
    for (std::int64_t i = 0; i < x.numel(); ++i) {
        x[i] = normal(rng);
    }
    return x;
}

/// A random input with about one value in four replaced by +-1e30, +inf
/// or NaN.
Tensor poisoned_input(std::int64_t batch, std::int64_t size,
                      std::mt19937_64& rng) {
    const float poison[] = {1e30f, -1e30f,
                            std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::quiet_NaN()};
    Tensor x = random_input(batch, size, rng);
    for (std::int64_t i = 0; i < x.numel(); ++i) {
        if (rng() % 4 == 0) {
            x[i] = poison[rng() % 4];
        }
    }
    return x;
}

/// Builds the plan for `batch` (unless cached), then runs a poisoned
/// batch of another size drawn from `sizes`, which leaves that plan's
/// arena views full of garbage; a larger garbage plan first grows the
/// arena and rebinds the `batch` plan onto it.
void soil_arena(core::MimeNetwork& net, std::int64_t batch,
                const std::vector<std::int64_t>& sizes, Workspace& workspace,
                std::mt19937_64& rng) {
    net.plan_for(batch);
    std::vector<std::int64_t> others;
    for (const std::int64_t other : sizes) {
        if (other != batch) {
            others.push_back(other);
        }
    }
    const std::int64_t other = others[rng() % others.size()];
    net.forward_planned(
        poisoned_input(other, net.layer_specs().front().in_height, rng),
        workspace);
}

/// Runs the module graph layer by layer and keeps each conv's input.
std::vector<Tensor> conv_inputs(core::MimeNetwork& net, const Tensor& x) {
    std::vector<Tensor> inputs;
    Tensor current = x;
    nn::Sequential& graph = net.network();
    for (std::size_t i = 0; i < graph.size(); ++i) {
        if (dynamic_cast<nn::Conv2d*>(&graph.layer(i)) != nullptr) {
            inputs.push_back(current);
        }
        current = graph.layer(i).forward(current);
    }
    return inputs;
}

/// Channels of a mask with at least one threshold below +inf (NaN
/// compares false, so a NaN neuron is dead).
std::vector<std::int64_t> live_channels(const core::ThresholdMask& mask) {
    const Tensor& t = mask.thresholds().value;
    const std::int64_t channels = mask.activation_shape().dim(0);
    const std::int64_t extent = t.numel() / channels;
    std::vector<std::int64_t> live;
    for (std::int64_t c = 0; c < channels; ++c) {
        for (std::int64_t i = c * extent; i < (c + 1) * extent; ++i) {
            if (t[i] < std::numeric_limits<float>::infinity()) {
                live.push_back(c);
                break;
            }
        }
    }
    return live;
}

std::int64_t live_neurons(const core::ThresholdMask& mask) {
    const Tensor& t = mask.thresholds().value;
    std::int64_t live = 0;
    for (std::int64_t i = 0; i < t.numel(); ++i) {
        live += t[i] < std::numeric_limits<float>::infinity() ? 1 : 0;
    }
    return live;
}

/// `live` of `total` indices, or `total` when the list would not pass
/// the density cutoff (the layer then runs dense).
std::int64_t compacted(std::int64_t live, std::int64_t total,
                       double cutoff) {
    return live < total && static_cast<double>(live) /
                                   static_cast<double>(total) <=
                               cutoff
               ? live
               : total;
}

/// MACs one sparse planned float forward skips at `cutoff`. Layer spec i
/// is masked
/// by site i (the classifier by none) and reads site i - 1 (the first
/// conv reads the image). A conv contracts over the input site's live
/// channels that are nonzero in some sample, and computes the output
/// site's live channels. A linear layer after a pool reads the input
/// site's live channels, each expanded to its flattened features; after
/// another linear layer, its live neurons.
std::uint64_t expected_skipped_macs(core::MimeNetwork& net,
                                    const std::vector<Tensor>& conv_in,
                                    std::int64_t batch, double cutoff) {
    std::vector<arch::LayerSpec> specs = net.layer_specs();
    specs.push_back(net.classifier_spec());
    std::uint64_t skipped = 0;
    std::size_t conv = 0;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const arch::LayerSpec& spec = specs[i];
        const bool is_conv = spec.kind == arch::LayerKind::conv;
        const std::int64_t kk = spec.kernel * spec.kernel;
        std::int64_t in_live = spec.in_channels;
        if (i > 0) {
            const core::ThresholdMask& mask =
                net.site(static_cast<std::int64_t>(i) - 1).mask();
            if (is_conv) {
                const Tensor& x = conv_in[conv];
                const std::int64_t plane = x.shape().dim(2) * x.shape().dim(3);
                std::int64_t nonzero = 0;
                for (const std::int64_t c : live_channels(mask)) {
                    bool any = false;
                    for (std::int64_t n = 0; n < batch && !any; ++n) {
                        const float* p =
                            x.data() + (n * spec.in_channels + c) * plane;
                        for (std::int64_t e = 0; e < plane && !any; ++e) {
                            any = p[e] != 0.0f;
                        }
                    }
                    nonzero += any ? 1 : 0;
                }
                in_live = compacted(nonzero, spec.in_channels, cutoff);
            } else if (specs[i - 1].pool_after) {
                const std::int64_t channels = mask.activation_shape().dim(0);
                in_live = compacted(
                    static_cast<std::int64_t>(live_channels(mask).size()) *
                        (spec.in_channels / channels),
                    spec.in_channels, cutoff);
            } else {
                in_live =
                    compacted(live_neurons(mask), spec.in_channels, cutoff);
            }
        }
        std::int64_t out_live = spec.out_channels;
        if (is_conv) {
            out_live = compacted(
                static_cast<std::int64_t>(
                    live_channels(net.site(static_cast<std::int64_t>(i))
                                      .mask())
                        .size()),
                spec.out_channels, cutoff);
            ++conv;
        }
        const auto unit = static_cast<std::uint64_t>(
            batch * spec.out_height() * spec.out_width() * kk);
        skipped += unit * static_cast<std::uint64_t>(
                              spec.out_channels * spec.in_channels -
                              out_live * in_live);
    }
    return skipped;
}

std::vector<float> copy_of(const Tensor& t) {
    return std::vector<float>(t.data(), t.data() + t.numel());
}

bool bit_equal(const std::vector<float>& a, const Tensor& b) {
    return a.size() == static_cast<std::size_t>(b.numel()) &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Runs batch sizes 1, 3 and 8 in an order drawn from `rng`,
/// single-threaded and on `pool`, under the thresholds installed in
/// `net`, and checks the three equalities at every cutoff. Plans of all
/// three sizes share one arena per (pool, precision) pass, and a
/// poisoned batch of another size runs before every checked run.
void check_paths(core::MimeNetwork& net, ThreadPool& pool,
                 std::mt19937_64& rng) {
    const std::int64_t size = net.layer_specs().front().in_height;
    std::vector<std::int64_t> batches = {1, 3, 8};
    std::shuffle(batches.begin(), batches.end(), rng);
    SCOPED_TRACE("batch order " + std::to_string(batches[0]) + ", " +
                 std::to_string(batches[1]) + ", " +
                 std::to_string(batches[2]));
    struct Case {
        std::int64_t batch;
        Tensor x;
        std::vector<float> reference;
        std::vector<std::uint64_t> expected_skipped;  ///< per kCutoffs
    };
    std::vector<Case> cases;
    net.set_pool(nullptr);
    for (const std::int64_t batch : batches) {
        Tensor x = random_input(batch, size, rng);
        std::vector<float> reference = copy_of(net.forward(x));
        const std::vector<Tensor> conv_in = conv_inputs(net, x);
        std::vector<std::uint64_t> expected;
        for (const double cutoff : kCutoffs) {
            expected.push_back(
                expected_skipped_macs(net, conv_in, batch, cutoff));
        }
        cases.push_back({batch, std::move(x), std::move(reference),
                         std::move(expected)});
    }
    const double dense_cutoff = nn::kDefaultSparseDensityCutoff;
    for (const bool pooled : {false, true}) {
        SCOPED_TRACE(pooled ? "ThreadPool(4)" : "no pool");
        net.set_pool(pooled ? &pool : nullptr);
        Workspace workspace;

        net.set_quantized_execution({false});
        for (const Case& c : cases) {
            SCOPED_TRACE("float, batch " + std::to_string(c.batch));
            net.set_sparse_execution({false, dense_cutoff});
            soil_arena(net, c.batch, batches, workspace, rng);
            EXPECT_TRUE(
                bit_equal(c.reference, net.forward_planned(c.x, workspace)))
                << "float dense planned diverges from forward()";
            for (std::size_t k = 0; k < std::size(kCutoffs); ++k) {
                SCOPED_TRACE("cutoff " + std::to_string(kCutoffs[k]));
                net.set_sparse_execution({true, kCutoffs[k]});
                soil_arena(net, c.batch, batches, workspace, rng);
                const std::uint64_t skipped0 = net.planned_skipped_macs();
                EXPECT_TRUE(bit_equal(c.reference,
                                      net.forward_planned(c.x, workspace)))
                    << "float sparse planned diverges from forward()";
                EXPECT_EQ(net.planned_skipped_macs() - skipped0,
                          c.expected_skipped[k]);
                if (k > 0) {
                    EXPECT_GE(c.expected_skipped[k],
                              c.expected_skipped[k - 1]);
                }
            }
        }

        net.set_quantized_execution({true});
        for (const Case& c : cases) {
            SCOPED_TRACE("int8, batch " + std::to_string(c.batch));
            net.set_sparse_execution({false, dense_cutoff});
            soil_arena(net, c.batch, batches, workspace, rng);
            const std::vector<float> int8_dense =
                copy_of(net.forward_planned(c.x, workspace));
            for (const double cutoff : kCutoffs) {
                SCOPED_TRACE("cutoff " + std::to_string(cutoff));
                net.set_sparse_execution({true, cutoff});
                soil_arena(net, c.batch, batches, workspace, rng);
                EXPECT_TRUE(bit_equal(int8_dense,
                                      net.forward_planned(c.x, workspace)))
                    << "int8 sparse planned diverges from int8 dense";
            }
        }
    }
    net.set_pool(nullptr);
}

void check_network(const core::MimeNetworkConfig& config) {
    ThreadPool pool(4);
    for (const std::uint64_t seed : seeds()) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        core::MimeNetwork net(config);
        net.set_training(false);
        net.set_mode(core::ActivationMode::threshold);
        std::mt19937_64 rng(seed);
        perturb_vectors(net, rng);
        net.set_eval_mode(true);
        // The forced all-dead site is one of the last three conv sites,
        // picked by the seed (kSeeds covers all three), so the last convs
        // (the narrow GEMMs in both networks) meet an empty output list
        // and an empty input list.
        const auto sites = static_cast<std::uint64_t>(net.site_count());
        std::int64_t last_conv = -1;
        for (const arch::LayerSpec& spec : net.layer_specs()) {
            last_conv += spec.kind == arch::LayerKind::conv ? 1 : 0;
        }
        const std::int64_t killed =
            last_conv - static_cast<std::int64_t>(seed % 3);
        const auto all_live = static_cast<std::int64_t>(
            (static_cast<std::uint64_t>(killed) + 1 + rng() % (sites - 1)) %
            sites);
        for (const std::int64_t all_dead : {std::int64_t{-1}, killed}) {
            SCOPED_TRACE(all_dead < 0 ? std::string("no all-dead site")
                                      : "site " + std::to_string(all_dead) +
                                            " all-dead");
            draw_thresholds(net, all_dead, all_live, rng);
            check_paths(net, pool, rng);
        }
    }
}

TEST(ExecutorDifferential, TinyVgg) { check_network(tiny_vgg()); }

TEST(ExecutorDifferential, OddChannelCnnWithBatchnorm) {
    check_network(odd_channel_cnn(16));
}

TEST(ExecutorDifferential, OddChannelCnnWithBatchnormAt20x20) {
    check_network(odd_channel_cnn(20));
}

}  // namespace
}  // namespace mime
