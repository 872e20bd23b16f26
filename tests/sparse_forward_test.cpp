// Sparse planned executor tests: the row-compacted path must bit-match
// dense planned execution across architectures, batch sizes, batchnorm
// variants, mid-stream threshold swaps, channels zeroed at run time, and
// the all-dead / all-live edge cases — and stay allocation-free after
// warm-up.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "arch/plain_cnn.h"
#include "common/thread_pool.h"
#include "core/mime_network.h"
#include "tensor/workspace.h"

namespace mime {
namespace {

core::MimeNetworkConfig vgg_config(bool batchnorm) {
    core::MimeNetworkConfig config;
    config.vgg.input_size = 32;
    config.vgg.width_scale = 0.0625;
    config.vgg.num_classes = 10;
    config.batchnorm = batchnorm;
    config.seed = 5;
    return config;
}

core::MimeNetworkConfig cnn_config(bool batchnorm) {
    arch::PlainCnnConfig cnn;
    cnn.input_size = 32;
    cnn.blocks = {{16, 2}, {32, 2}};
    cnn.fc_widths = {64};
    cnn.num_classes = 10;
    core::MimeNetworkConfig config;
    config.custom_layers = arch::plain_cnn_spec(cnn);
    config.custom_classifier = arch::plain_cnn_classifier(cnn);
    config.batchnorm = batchnorm;
    config.seed = 7;
    return config;
}

/// Structurally prunes every site: channel c stays live iff
/// c % keep_mod == live_rem; live channels keep a small finite
/// threshold so they still mask data-dependently.
void prune_channels(core::MimeNetwork& net, std::int64_t keep_mod,
                    std::int64_t live_rem = 0) {
    for (std::int64_t s = 0; s < net.site_count(); ++s) {
        core::ThresholdMask& mask = net.site(s).mask();
        Tensor& t = mask.thresholds().value;
        const Shape& shape = mask.activation_shape();
        const std::int64_t channels = shape.dim(0);
        const std::int64_t extent = shape.numel() / channels;
        for (std::int64_t c = 0; c < channels; ++c) {
            const float value = (c % keep_mod == live_rem)
                                    ? 0.05f
                                    : core::kPrunedThreshold;
            for (std::int64_t i = 0; i < extent; ++i) {
                t.data()[c * extent + i] = value;
            }
        }
        mask.mark_thresholds_dirty();
    }
}

/// Zeroes channels at run time without pruning any: channel c of every
/// site gets threshold 1e30 (no activation this network produces reaches
/// it) when c % 4 == 0, and -1e30 (every such activation passes
/// unmasked) otherwise. Every channel stays structurally live, so only the
/// executor's run-time scan can find the zero ones.
void zero_channels_at_run_time(core::MimeNetwork& net) {
    for (std::int64_t s = 0; s < net.site_count(); ++s) {
        core::ThresholdMask& mask = net.site(s).mask();
        Tensor& t = mask.thresholds().value;
        const std::int64_t extent =
            t.numel() / mask.activation_shape().dim(0);
        for (std::int64_t i = 0; i < t.numel(); ++i) {
            t.data()[i] = (i / extent) % 4 == 0 ? 1e30f : -1e30f;
        }
        mask.mark_thresholds_dirty();
    }
}

/// MACs a planned forward of `batch` samples skips when exactly the
/// zero_channels_at_run_time() zeros are skipped: every conv after the
/// first drops the K*K column rows of each input channel c % 4 == 0.
std::uint64_t run_time_zero_skipped_macs(const core::MimeNetwork& net,
                                         std::int64_t batch) {
    std::uint64_t macs = 0;
    bool first = true;
    for (const arch::LayerSpec& spec : net.layer_specs()) {
        if (spec.kind != arch::LayerKind::conv) {
            continue;
        }
        if (!first) {
            const std::int64_t zero_channels = (spec.in_channels + 3) / 4;
            macs += static_cast<std::uint64_t>(
                batch * spec.out_channels * spec.out_height() *
                spec.out_width() * spec.kernel * spec.kernel * zero_channels);
        }
        first = false;
    }
    return macs;
}

std::vector<float> tensor_copy(const Tensor& t) {
    return std::vector<float>(t.data(), t.data() + t.numel());
}

bool bit_equal(const std::vector<float>& a, const Tensor& b) {
    return a.size() == static_cast<std::size_t>(b.numel()) &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// (use vgg?, batchnorm?, batch size)
using SparseCase = std::tuple<bool, bool, int>;

class SparseForwardTest : public ::testing::TestWithParam<SparseCase> {};

TEST_P(SparseForwardTest, BitMatchesDensePlanned) {
    const auto [use_vgg, batchnorm, batch] = GetParam();
    core::MimeNetwork net(use_vgg ? vgg_config(batchnorm)
                                  : cnn_config(batchnorm));
    net.set_training(false);
    net.set_eval_mode(true);
    net.set_mode(core::ActivationMode::threshold);
    prune_channels(net, /*keep_mod=*/4);

    Rng rng(17);
    const Tensor x = Tensor::randn({batch, 3, 32, 32}, rng);
    Workspace workspace;

    net.set_sparse_execution({false, 0.85});
    const std::vector<float> dense =
        tensor_copy(net.forward_planned(x, workspace));
    ASSERT_EQ(net.planned_sparse_hits(), 0u);

    net.set_sparse_execution({true, 0.85});
    const Tensor& sparse = net.forward_planned(x, workspace);
    EXPECT_TRUE(bit_equal(dense, sparse))
        << "sparse planned logits diverge from dense";
    EXPECT_GT(net.planned_sparse_hits(), 0u);
    EXPECT_GT(net.planned_skipped_macs(), 0u);
    EXPECT_GT(net.planned_dense_macs(), net.planned_skipped_macs());
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, SparseForwardTest,
    ::testing::Combine(::testing::Bool(),        // vgg / plain-cnn
                       ::testing::Bool(),        // batchnorm
                       ::testing::Values(1, 7, 32)));

TEST(SparseForward, MidStreamThresholdSwapRebuildsActiveSets) {
    core::MimeNetwork net(cnn_config(false));
    net.set_training(false);
    net.set_eval_mode(true);
    net.set_mode(core::ActivationMode::threshold);

    // Two tasks with different live-channel patterns.
    prune_channels(net, 2, 0);
    const core::ThresholdSet task_a = net.snapshot_thresholds("a");
    prune_channels(net, 4, 1);
    const core::ThresholdSet task_b = net.snapshot_thresholds("b");

    Rng rng(23);
    const Tensor x = Tensor::randn({7, 3, 32, 32}, rng);
    Workspace workspace;

    auto dense_logits = [&](const core::ThresholdSet& task) {
        net.load_thresholds(task);
        net.set_sparse_execution({false, 0.85});
        return tensor_copy(net.forward_planned(x, workspace));
    };
    const std::vector<float> dense_a = dense_logits(task_a);
    const std::vector<float> dense_b = dense_logits(task_b);
    ASSERT_NE(0, std::memcmp(dense_a.data(), dense_b.data(),
                             dense_a.size() * sizeof(float)))
        << "tasks must differ for the swap test to mean anything";

    net.set_sparse_execution({true, 0.85});
    core::ThresholdMask& probe = net.site(0).mask();

    net.load_thresholds(task_a);
    const std::uint64_t version_a = probe.active_set().version;
    const double density_a = probe.active_set().channel_density();
    EXPECT_TRUE(bit_equal(dense_a, net.forward_planned(x, workspace)));

    // Swap mid-stream: the next forward must pick up task B's live sets
    // (stale active sets would compute task A's sparsity pattern).
    net.load_thresholds(task_b);
    EXPECT_TRUE(bit_equal(dense_b, net.forward_planned(x, workspace)));
    EXPECT_GT(probe.active_set().version, version_a);
    EXPECT_NE(probe.active_set().channel_density(), density_a);

    // And back again.
    net.load_thresholds(task_a);
    EXPECT_TRUE(bit_equal(dense_a, net.forward_planned(x, workspace)));
}

TEST(SparseForward, AllDeadMasksBitMatchDense) {
    // The VGG's 2x2-output conv11-13 run the narrow-N GEMMs (float and
    // int8), here over an empty live set.
    for (const auto& [use_vgg, quantized] :
         {std::pair{false, false}, std::pair{true, false},
          std::pair{true, true}}) {
        SCOPED_TRACE(std::string(use_vgg ? "vgg" : "cnn") +
                     (quantized ? " int8" : " float"));
        core::MimeNetwork net(use_vgg ? vgg_config(false)
                                      : cnn_config(false));
        net.set_training(false);
        net.set_eval_mode(true);
        net.set_mode(core::ActivationMode::threshold);
        net.reset_thresholds(core::kPrunedThreshold);
        net.set_quantized_execution({quantized});

        Rng rng(29);
        const Tensor x = Tensor::randn({3, 3, 32, 32}, rng);
        Workspace workspace;

        net.set_sparse_execution({false, 0.85});
        const std::vector<float> dense =
            tensor_copy(net.forward_planned(x, workspace));
        net.set_sparse_execution({true, 0.85});
        const Tensor& sparse = net.forward_planned(x, workspace);
        EXPECT_TRUE(bit_equal(dense, sparse));
        EXPECT_GT(net.planned_sparse_hits(), 0u);
    }
}

TEST(SparseForward, AllLiveMasksFallBackDense) {
    core::MimeNetwork net(cnn_config(false));
    net.set_training(false);
    net.set_eval_mode(true);
    net.set_mode(core::ActivationMode::threshold);
    net.reset_thresholds(0.05f);  // finite everywhere: nothing pruned

    Rng rng(31);
    const Tensor x = Tensor::randn({4, 3, 32, 32}, rng);
    Workspace workspace;
    net.set_sparse_execution({true, 0.85});
    net.forward_planned(x, workspace);
    EXPECT_EQ(net.planned_sparse_hits(), 0u);
    EXPECT_EQ(net.planned_skipped_macs(), 0u);
    EXPECT_GT(net.planned_dense_macs(), 0u);
}

TEST(SparseForward, DensityCutoffGatesSparsePath) {
    core::MimeNetwork net(cnn_config(false));
    net.set_training(false);
    net.set_eval_mode(true);
    net.set_mode(core::ActivationMode::threshold);
    prune_channels(net, 4);  // 25% channel density

    Rng rng(37);
    const Tensor x = Tensor::randn({2, 3, 32, 32}, rng);
    Workspace workspace;

    // Cutoff below the measured density: everything runs dense.
    net.set_sparse_execution({true, 0.1});
    net.forward_planned(x, workspace);
    EXPECT_EQ(net.planned_sparse_hits(), 0u);

    // Cutoff above it: the compacted path engages.
    net.set_sparse_execution({true, 1.0});
    net.forward_planned(x, workspace);
    EXPECT_GT(net.planned_sparse_hits(), 0u);
}

TEST(SparseForward, BandedPoolBitMatchesSingleThread) {
    core::MimeNetwork net(vgg_config(false));
    net.set_training(false);
    net.set_eval_mode(true);
    net.set_mode(core::ActivationMode::threshold);
    prune_channels(net, 4);
    net.set_sparse_execution({true, 0.85});

    Rng rng(41);
    const Tensor x = Tensor::randn({8, 3, 32, 32}, rng);
    Workspace workspace;

    const std::vector<float> single =
        tensor_copy(net.forward_planned(x, workspace));

    // With a pool the planned conv splits samples across bands; the
    // per-sample math is unchanged, so outputs stay bit-identical (and
    // TSan validates the banding has no races).
    ThreadPool pool(4);
    net.set_pool(&pool);
    const Tensor& banded = net.forward_planned(x, workspace);
    EXPECT_TRUE(bit_equal(single, banded));
    net.set_pool(nullptr);
}

TEST(SparseForward, RunTimeZeroChannelsSkipBitExactly) {
    // A structurally live channel that is zero in every sample of the
    // batch is skipped like a pruned one, on the float and int8 paths,
    // without changing an output bit. A channel nonzero in even one
    // sample still runs.
    for (const bool quantized : {false, true}) {
        for (const int batch : {1, 8}) {
            SCOPED_TRACE(std::string(quantized ? "int8" : "float") +
                         " batch " + std::to_string(batch));
            core::MimeNetwork net(vgg_config(false));
            net.set_training(false);
            net.set_eval_mode(true);
            net.set_mode(core::ActivationMode::threshold);
            zero_channels_at_run_time(net);
            net.set_quantized_execution({quantized});

            Rng rng(71);
            const Tensor random = Tensor::randn({batch, 3, 32, 32}, rng);
            // Every sample zero but the last: with zero biases and no
            // batchnorm, each pass-through channel is then zero in every
            // sample but one.
            Tensor one_live({batch, 3, 32, 32}, 0.0f);
            const std::int64_t per_sample = random.numel() / batch;
            std::memcpy(one_live.data() + (batch - 1) * per_sample,
                        random.data() + (batch - 1) * per_sample,
                        per_sample * sizeof(float));
            const std::uint64_t expected =
                run_time_zero_skipped_macs(net, batch);
            ASSERT_GT(expected, 0u);

            const std::pair<const char*, const Tensor*> inputs[] = {
                {"random batch", &random}, {"one nonzero sample", &one_live}};
            for (const auto& [name, x] : inputs) {
                SCOPED_TRACE(name);
                Workspace workspace;
                net.set_sparse_execution({false, 0.85});
                const std::vector<float> dense =
                    tensor_copy(net.forward_planned(*x, workspace));

                net.set_sparse_execution({true, 0.85});
                const std::uint64_t skipped0 = net.planned_skipped_macs();
                const Tensor& sparse = net.forward_planned(*x, workspace);
                EXPECT_TRUE(bit_equal(dense, sparse))
                    << "sparse planned logits diverge from dense";
                EXPECT_EQ(net.planned_skipped_macs() - skipped0, expected);
                const std::vector<float> single = tensor_copy(sparse);

                ThreadPool pool(4);
                net.set_pool(&pool);
                EXPECT_TRUE(
                    bit_equal(single, net.forward_planned(*x, workspace)))
                    << "banded pool diverges from single-threaded";
                net.set_pool(nullptr);
            }
        }
    }
}

TEST(SparseForward, ZeroAllocationsAfterWarmUp) {
    core::MimeNetwork net(vgg_config(false));
    net.set_training(false);
    net.set_eval_mode(true);
    net.set_mode(core::ActivationMode::threshold);
    prune_channels(net, 2, 0);
    const core::ThresholdSet task_a = net.snapshot_thresholds("a");
    prune_channels(net, 4, 1);
    const core::ThresholdSet task_b = net.snapshot_thresholds("b");
    zero_channels_at_run_time(net);
    const core::ThresholdSet task_c = net.snapshot_thresholds("c");
    const core::ThresholdSet* tasks[] = {&task_a, &task_b, &task_c};
    net.set_sparse_execution({true, 0.85});

    Rng rng(43);
    const Tensor x = Tensor::randn({8, 3, 32, 32}, rng);
    Workspace workspace;

    // Warm-up: plan build, workspace reserve, first sparse pass for
    // every task (active-set vectors size themselves here).
    for (const core::ThresholdSet* task : tasks) {
        net.load_thresholds(*task);
        net.forward_planned(x, workspace);
    }

    const std::int64_t alloc0 = Tensor::storage_allocation_count();
    for (int i = 0; i < 6; ++i) {
        net.load_thresholds(*tasks[i % 3]);
        net.forward_planned(x, workspace);
    }
    EXPECT_EQ(Tensor::storage_allocation_count() - alloc0, 0)
        << "sparse planned path must stay allocation-free after warm-up, "
           "including across task swaps";
}

// ---------------------------------------------------------------------------
// Quantized planned execution
// ---------------------------------------------------------------------------

std::int64_t argmax_row(const float* row, std::int64_t n) {
    std::int64_t best = 0;
    for (std::int64_t j = 1; j < n; ++j) {
        if (row[j] > row[best]) {
            best = j;
        }
    }
    return best;
}

TEST(QuantizedForward, Top1AgreementAcrossArchsAndBatches) {
    // Accuracy guard for the int8 path: top-1 decisions must agree with
    // float planned execution on >= 99% of samples, aggregated across
    // {vgg, plain-cnn} x batch {1, 7, 32}. ReLU mode: the threshold
    // nonlinearity has a masking cliff at t where int8 noise legitimately
    // flips the mask (covered by the bit-stability tests below instead);
    // ReLU has no cliff, so disagreements here measure pure quantization
    // error. Deterministic — fixed seeds make this a regression gate,
    // not a flaky statistical test.
    std::int64_t agree = 0;
    std::int64_t total = 0;
    for (const bool use_vgg : {true, false}) {
        core::MimeNetwork net(use_vgg ? vgg_config(true) : cnn_config(true));
        net.set_training(false);
        net.set_eval_mode(true);
        net.set_mode(core::ActivationMode::relu);

        Rng rng(123);
        std::int64_t arch_agree = 0;
        std::int64_t arch_total = 0;
        for (const int batch : {1, 7, 32}) {
            for (int trial = 0; trial < 4; ++trial) {
                const Tensor x = Tensor::randn({batch, 3, 32, 32}, rng);
                Workspace workspace;
                net.set_quantized_execution({false});
                const std::vector<float> fp32 =
                    tensor_copy(net.forward_planned(x, workspace));
                net.set_quantized_execution({true});
                const Tensor& int8 = net.forward_planned(x, workspace);
                const std::int64_t classes = int8.shape().dim(1);
                for (std::int64_t n = 0; n < batch; ++n) {
                    arch_agree += argmax_row(fp32.data() + n * classes,
                                             classes) ==
                                  argmax_row(int8.data() + n * classes,
                                             classes);
                    ++arch_total;
                }
            }
        }
        // Per-architecture floor, looser than the aggregate gate.
        EXPECT_GE(arch_agree, (arch_total * 95 + 99) / 100)
            << (use_vgg ? "vgg" : "plain-cnn") << ": " << arch_agree << "/"
            << arch_total;
        agree += arch_agree;
        total += arch_total;
    }
    EXPECT_GE(agree * 100, total * 99)
        << "aggregate top-1 agreement " << agree << "/" << total
        << " below 99%";
}

TEST(QuantizedForward, BitStableAcrossRunsAndTaskSwaps) {
    // The int8 path must be a function of (weights, thresholds, input)
    // only: repeated runs and A->B->A task swaps reproduce logits
    // bit-for-bit. Per-sample activation scales make this hold under
    // banding too (each sample's bytes depend only on its own data).
    core::MimeNetwork net(cnn_config(false));
    net.set_training(false);
    net.set_eval_mode(true);
    net.set_mode(core::ActivationMode::threshold);
    prune_channels(net, 2, 0);
    const core::ThresholdSet task_a = net.snapshot_thresholds("a");
    prune_channels(net, 4, 1);
    const core::ThresholdSet task_b = net.snapshot_thresholds("b");
    net.set_quantized_execution({true});
    net.set_sparse_execution({true, 0.85});

    Rng rng(47);
    const Tensor x = Tensor::randn({7, 3, 32, 32}, rng);
    Workspace workspace;

    net.load_thresholds(task_a);
    const std::vector<float> first =
        tensor_copy(net.forward_planned(x, workspace));
    EXPECT_TRUE(bit_equal(first, net.forward_planned(x, workspace)))
        << "repeated quantized runs must be bit-identical";

    net.load_thresholds(task_b);
    const std::vector<float> other =
        tensor_copy(net.forward_planned(x, workspace));
    ASSERT_FALSE(bit_equal(first, net.forward_planned(x, workspace)))
        << "tasks must differ for the swap test to mean anything";
    EXPECT_TRUE(bit_equal(other, net.forward_planned(x, workspace)));

    net.load_thresholds(task_a);
    EXPECT_TRUE(bit_equal(first, net.forward_planned(x, workspace)))
        << "task swap must restore bit-identical quantized logits";
}

TEST(QuantizedForward, SparseBitMatchesDenseQuantized) {
    // Dead channels / features quantize to exact 0 (scale 0 rows and
    // zero activations), so row compaction changes nothing about the
    // int32 accumulation: int8 sparse == int8 dense bit-for-bit, the
    // same exactness guarantee the float sparse path has.
    core::MimeNetwork net(vgg_config(false));
    net.set_training(false);
    net.set_eval_mode(true);
    net.set_mode(core::ActivationMode::threshold);
    prune_channels(net, 4);
    net.set_quantized_execution({true});

    Rng rng(53);
    const Tensor x = Tensor::randn({5, 3, 32, 32}, rng);
    Workspace workspace;

    net.set_sparse_execution({false, 0.85});
    const std::vector<float> dense =
        tensor_copy(net.forward_planned(x, workspace));
    ASSERT_GT(net.planned_quantized_hits(), 0u);

    net.set_sparse_execution({true, 0.85});
    const Tensor& sparse = net.forward_planned(x, workspace);
    EXPECT_TRUE(bit_equal(dense, sparse))
        << "int8 sparse planned logits diverge from int8 dense";
    EXPECT_GT(net.planned_sparse_hits(), 0u);
    EXPECT_GT(net.planned_quantized_hits(), 0u);
}

TEST(QuantizedForward, BandedPoolBitMatchesSingleThread) {
    core::MimeNetwork net(vgg_config(false));
    net.set_training(false);
    net.set_eval_mode(true);
    net.set_mode(core::ActivationMode::threshold);
    prune_channels(net, 4);
    net.set_quantized_execution({true});
    net.set_sparse_execution({true, 0.85});

    Rng rng(59);
    const Tensor x = Tensor::randn({8, 3, 32, 32}, rng);
    Workspace workspace;

    const std::vector<float> single =
        tensor_copy(net.forward_planned(x, workspace));

    // Activation scales are per sample, so band boundaries never change
    // which bytes a sample quantizes to — pooled output is bit-identical.
    ThreadPool pool(4);
    net.set_pool(&pool);
    const Tensor& banded = net.forward_planned(x, workspace);
    EXPECT_TRUE(bit_equal(single, banded));
    net.set_pool(nullptr);
}

TEST(QuantizedForward, TaskInstallReachesAnExistingPlan) {
    // A server installs a task between batches: it loads the task's
    // thresholds and copies the task's head into the classifier. An int8
    // plan built under task A must then run task B's head, exactly as a
    // plan built after B would.
    core::MimeNetwork net(vgg_config(false));
    net.set_training(false);
    net.set_eval_mode(true);
    net.set_mode(core::ActivationMode::threshold);
    net.set_quantized_execution({true});
    net.set_sparse_execution({true, 0.85});
    // Every channel stays live: deeper pruning starves the classifier of
    // features, and then logits are just the (float) bias either way.
    prune_channels(net, 1);
    auto install_head = [&net](std::uint64_t seed) {
        const auto params = net.backbone_parameters();
        Rng rng(seed);
        for (nn::Parameter* p : {params[params.size() - 2],
                                 params[params.size() - 1]}) {
            p->value.copy_from(Tensor::randn(p->value.shape(), rng));
        }
    };

    Rng rng(67);
    const Tensor x = Tensor::randn({3, 3, 32, 32}, rng);
    Workspace workspace;
    install_head(101);  // task A; the first forward builds the plan
    const std::vector<float> task_a =
        tensor_copy(net.forward_planned(x, workspace));
    install_head(202);  // task B
    const std::vector<float> installed =
        tensor_copy(net.forward_planned(x, workspace));
    EXPECT_FALSE(bit_equal(task_a, net.forward_planned(x, workspace)));

    net.set_quantized_execution({true});  // drops the plan built under A
    const Tensor& rebuilt = net.forward_planned(x, workspace);
    EXPECT_TRUE(bit_equal(installed, rebuilt))
        << "int8 plan kept the classifier head it was built with";
}

TEST(QuantizedForward, CountersAndWeightErrorSurface) {
    core::MimeNetwork net(cnn_config(false));
    net.set_training(false);
    net.set_eval_mode(true);
    net.set_mode(core::ActivationMode::relu);
    net.set_quantized_execution({true});
    ASSERT_TRUE(net.quantized_execution().enabled);

    Rng rng(61);
    const Tensor x = Tensor::randn({2, 3, 32, 32}, rng);
    Workspace workspace;
    net.forward_planned(x, workspace);
    // plain-cnn: 4 convs + 1 hidden fc = 5 quantized steps per run (the
    // classifier, a per-task head, always runs float).
    const std::uint64_t per_run = net.planned_quantized_hits();
    EXPECT_EQ(per_run, 5u);
    net.forward_planned(x, workspace);
    EXPECT_EQ(net.planned_quantized_hits(), 2 * per_run);

    // Int8 per-channel weight error: nonzero, and far below 1/127 would
    // be impossible — sanity-band it rather than pinning a value.
    const double err = net.planned_quantized_max_rel_error();
    EXPECT_GT(err, 0.0);
    EXPECT_LT(err, 0.05);

    // Flipping the policy off clears cached plans: the next forward
    // runs float and reports no quantized hits.
    net.set_quantized_execution({false});
    net.forward_planned(x, workspace);
    EXPECT_EQ(net.planned_quantized_hits(), 0u);
    EXPECT_EQ(net.planned_quantized_max_rel_error(), 0.0);
}

TEST(QuantizedForward, ZeroAllocationsAfterWarmUp) {
    core::MimeNetwork net(vgg_config(false));
    net.set_training(false);
    net.set_eval_mode(true);
    net.set_mode(core::ActivationMode::threshold);
    prune_channels(net, 2, 0);
    const core::ThresholdSet task_a = net.snapshot_thresholds("a");
    prune_channels(net, 4, 1);
    const core::ThresholdSet task_b = net.snapshot_thresholds("b");
    zero_channels_at_run_time(net);
    const core::ThresholdSet task_c = net.snapshot_thresholds("c");
    const core::ThresholdSet* tasks[] = {&task_a, &task_b, &task_c};
    net.set_quantized_execution({true});
    net.set_sparse_execution({true, 0.85});

    Rng rng(67);
    const Tensor x = Tensor::randn({8, 3, 32, 32}, rng);
    Workspace workspace;

    for (const core::ThresholdSet* task : tasks) {
        net.load_thresholds(*task);
        net.forward_planned(x, workspace);
    }

    const std::int64_t alloc0 = Tensor::storage_allocation_count();
    for (int i = 0; i < 6; ++i) {
        net.load_thresholds(*tasks[i % 3]);
        net.forward_planned(x, workspace);
    }
    EXPECT_EQ(Tensor::storage_allocation_count() - alloc0, 0)
        << "quantized planned path must stay allocation-free after "
           "warm-up, including across task swaps";
}

}  // namespace
}  // namespace mime
