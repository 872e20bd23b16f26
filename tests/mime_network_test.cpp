// Tests for MimeNetwork: construction, mode switching, threshold sets,
// backbone snapshots and freezing, plus the planned executor
// (ForwardPlan + Workspace): bit-match against the legacy forward,
// zero allocations after warm-up, and eval-mode cache hygiene.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "arch/plain_cnn.h"
#include "common/check.h"
#include "common/thread_pool.h"
#include "core/forward_plan.h"
#include "core/mime_network.h"
#include "tensor/workspace.h"

namespace mime::core {
namespace {

MimeNetworkConfig tiny_config() {
    MimeNetworkConfig config;
    config.vgg.input_size = 32;
    config.vgg.width_scale = 0.0625;  // channels 4..32
    config.vgg.num_classes = 10;
    config.seed = 3;
    return config;
}

TEST(MimeNetwork, HasFifteenSites) {
    MimeNetwork net(tiny_config());
    EXPECT_EQ(net.site_count(), 15);
    EXPECT_EQ(net.site_name(0), "conv1");
    EXPECT_EQ(net.site_name(13), "conv14");
    EXPECT_EQ(net.site_name(14), "conv15");
}

TEST(MimeNetwork, ForwardProducesLogits) {
    MimeNetwork net(tiny_config());
    net.set_training(false);
    Rng rng(1);
    const Tensor x = Tensor::randn({2, 3, 32, 32}, rng);
    const Tensor logits = net.forward(x);
    EXPECT_EQ(logits.shape(), Shape({2, 10}));
}

TEST(MimeNetwork, ModeSwitchesAllSites) {
    MimeNetwork net(tiny_config());
    net.set_mode(ActivationMode::threshold);
    for (std::int64_t i = 0; i < net.site_count(); ++i) {
        EXPECT_EQ(net.site(i).mode(), ActivationMode::threshold);
    }
    net.set_mode(ActivationMode::relu);
    for (std::int64_t i = 0; i < net.site_count(); ++i) {
        EXPECT_EQ(net.site(i).mode(), ActivationMode::relu);
    }
}

TEST(MimeNetwork, ThresholdAndReluOutputsDiffer) {
    MimeNetwork net(tiny_config());
    net.set_training(false);
    Rng rng(2);
    const Tensor x = Tensor::randn({1, 3, 32, 32}, rng);

    net.set_mode(ActivationMode::relu);
    const Tensor relu_logits = net.forward(x);
    net.set_mode(ActivationMode::threshold);
    net.reset_thresholds(0.5f);
    const Tensor mask_logits = net.forward(x);

    bool differs = false;
    for (std::int64_t i = 0; i < relu_logits.numel(); ++i) {
        if (relu_logits[i] != mask_logits[i]) {
            differs = true;
            break;
        }
    }
    EXPECT_TRUE(differs);
}

TEST(MimeNetwork, ThresholdModeSparserThanRelu) {
    MimeNetwork net(tiny_config());
    net.set_training(false);
    Rng rng(4);
    const Tensor x = Tensor::randn({4, 3, 32, 32}, rng);

    net.set_mode(ActivationMode::relu);
    net.forward(x);
    const auto relu_sparsity = net.last_site_sparsities();

    net.set_mode(ActivationMode::threshold);
    net.reset_thresholds(0.2f);  // positive thresholds prune more than ReLU
    net.forward(x);
    const auto mask_sparsity = net.last_site_sparsities();

    // With t >= 0, {y >= t} ⊆ {y > 0} up to boundary ties, so the mask
    // can only be sparser (checked per layer).
    for (std::size_t i = 0; i < relu_sparsity.size(); ++i) {
        EXPECT_GE(mask_sparsity[i] + 1e-9, relu_sparsity[i]) << "site " << i;
    }
}

TEST(MimeNetwork, SnapshotAndLoadThresholds) {
    MimeNetwork net(tiny_config());
    net.reset_thresholds(0.3f);
    const ThresholdSet set_a = net.snapshot_thresholds("task-a");
    EXPECT_EQ(set_a.task_name, "task-a");
    EXPECT_EQ(set_a.thresholds.size(), 15u);

    net.reset_thresholds(0.9f);
    const ThresholdSet set_b = net.snapshot_thresholds("task-b");

    net.load_thresholds(set_a);
    EXPECT_FLOAT_EQ(net.site(0).mask().thresholds().value[0], 0.3f);
    net.load_thresholds(set_b);
    EXPECT_FLOAT_EQ(net.site(0).mask().thresholds().value[0], 0.9f);
}

TEST(MimeNetwork, ThresholdSetParameterCountMatchesNeurons) {
    MimeNetwork net(tiny_config());
    const ThresholdSet set = net.snapshot_thresholds("t");
    std::int64_t neurons = 0;
    for (const auto& spec : net.layer_specs()) {
        neurons += spec.neuron_count();
    }
    EXPECT_EQ(set.parameter_count(), neurons);
}

TEST(MimeNetwork, LoadRejectsWrongSiteCount) {
    MimeNetwork net(tiny_config());
    ThresholdSet bad;
    bad.thresholds.resize(3, Tensor({4}));
    EXPECT_THROW(net.load_thresholds(bad), mime::check_error);
}

TEST(MimeNetwork, FreezeBackboneTogglesTrainable) {
    MimeNetwork net(tiny_config());
    net.freeze_backbone(true);
    for (const auto* p : net.backbone_parameters()) {
        EXPECT_FALSE(p->trainable);
    }
    // Thresholds stay trainable.
    for (auto* p : net.threshold_parameters()) {
        EXPECT_TRUE(p->trainable);
    }
    net.freeze_backbone(false);
    for (const auto* p : net.backbone_parameters()) {
        EXPECT_TRUE(p->trainable);
    }
}

TEST(MimeNetwork, BackboneSnapshotRoundTrip) {
    MimeNetwork net(tiny_config());
    const auto snapshot = net.snapshot_backbone();
    const float original = net.backbone_parameters()[0]->value[0];

    net.backbone_parameters()[0]->value[0] = original + 5.0f;
    net.load_backbone(snapshot);
    EXPECT_FLOAT_EQ(net.backbone_parameters()[0]->value[0], original);
}

TEST(MimeNetwork, ParameterGroupsArePartition) {
    MimeNetwork net(tiny_config());
    const auto backbone = net.backbone_parameters();
    const auto thresholds = net.threshold_parameters();
    const auto all = net.all_parameters();
    EXPECT_EQ(all.size(), backbone.size() + thresholds.size());
    EXPECT_EQ(thresholds.size(), 15u);
    // Threshold parameter names carry their site names.
    EXPECT_EQ(thresholds[0]->name, "conv1.thresholds");
    EXPECT_EQ(thresholds[14]->name, "conv15.thresholds");
}

TEST(MimeNetwork, RegularizationAggregatesAcrossSites) {
    MimeNetwork net(tiny_config());
    net.reset_thresholds(0.0f);
    std::int64_t neurons = 0;
    for (const auto& spec : net.layer_specs()) {
        neurons += spec.neuron_count();
    }
    // exp(0) = 1 per neuron.
    EXPECT_NEAR(net.threshold_regularization_loss(),
                static_cast<double>(neurons), 1e-3);
}

TEST(MimeNetwork, ClampAppliesEverywhere) {
    MimeNetwork net(tiny_config());
    net.reset_thresholds(-1.0f);
    net.clamp_thresholds(0.0f);
    for (auto* p : net.threshold_parameters()) {
        EXPECT_GE(min_value(p->value), 0.0f);
    }
}

TEST(MimeNetwork, BatchNormVariantBuilds) {
    MimeNetworkConfig config = tiny_config();
    config.batchnorm = true;
    MimeNetwork net(config);
    Rng rng(1);
    net.set_training(true);
    const Tensor x = Tensor::randn({2, 3, 32, 32}, rng);
    EXPECT_EQ(net.forward(x).shape(), Shape({2, 10}));
    // BN adds gamma/beta per conv layer: 13 * 2 extra parameters.
    EXPECT_EQ(net.backbone_parameters().size(), 15u * 2 + 13u * 2 + 2u);
}

TEST(MimeNetwork, SharedBackboneCloneAliasesWeightsNotHead) {
    MimeNetwork net(tiny_config());
    net.set_training(false);
    net.set_mode(ActivationMode::threshold);
    net.reset_thresholds(0.3f);
    auto replica = net.clone_with_shared_backbone();

    EXPECT_TRUE(net.shares_backbone_with(*replica));
    EXPECT_EQ(replica->mode(), ActivationMode::threshold);
    auto mine = net.backbone_parameters();
    auto theirs = replica->backbone_parameters();
    ASSERT_EQ(mine.size(), theirs.size());
    for (std::size_t i = 0; i + 2 < mine.size(); ++i) {
        EXPECT_TRUE(mine[i]->value.aliases(theirs[i]->value))
            << "parameter " << i << " (" << mine[i]->name
            << ") was duplicated";
    }
    // The classifier head is per-replica (serving installs a task head
    // into it), equal in value but not in storage.
    for (std::size_t i = mine.size() - 2; i < mine.size(); ++i) {
        EXPECT_FALSE(mine[i]->value.aliases(theirs[i]->value));
        for (std::int64_t n = 0; n < mine[i]->value.numel(); ++n) {
            ASSERT_EQ(mine[i]->value[n], theirs[i]->value[n]);
        }
    }
    EXPECT_GT(net.shared_backbone_bytes(), 0);
}

TEST(MimeNetwork, SharedBackboneCloneForwardsBitMatch) {
    MimeNetwork net(tiny_config());
    net.set_training(false);
    net.set_mode(ActivationMode::threshold);
    net.reset_thresholds(0.25f);
    auto replica = net.clone_with_shared_backbone();

    Rng rng(9);
    const Tensor x = Tensor::randn({2, 3, 32, 32}, rng);
    const Tensor expected = net.forward(x);
    const Tensor actual = replica->forward(x);
    ASSERT_EQ(actual.shape(), expected.shape());
    for (std::int64_t i = 0; i < expected.numel(); ++i) {
        ASSERT_EQ(actual[i], expected[i]);
    }

    // Per-replica threshold installs must not leak across replicas:
    // blunting the replica's thresholds changes its output only.
    replica->reset_thresholds(5.0f);
    const Tensor after_replica_change = net.forward(x);
    for (std::int64_t i = 0; i < expected.numel(); ++i) {
        ASSERT_EQ(after_replica_change[i], expected[i]);
    }
}

TEST(MimeNetwork, LoadBackboneKeepsReplicasAliased) {
    // load_backbone must restore values in place: reallocating would
    // silently detach every shared-backbone replica.
    MimeNetwork net(tiny_config());
    net.set_training(false);
    auto replica = net.clone_with_shared_backbone();
    const std::vector<Tensor> snapshot = net.snapshot_backbone();

    net.backbone_parameters()[0]->value.fill(0.0f);
    net.load_backbone(snapshot);
    EXPECT_TRUE(net.shares_backbone_with(*replica));
    // The replica observes the restored values through the shared
    // storage.
    EXPECT_EQ(replica->backbone_parameters()[0]->value[0], snapshot[0][0]);
}

// ---------------------------------------------------------------------------
// Planned executor: ForwardPlan + Workspace
// ---------------------------------------------------------------------------

MimeNetworkConfig plain_cnn_config() {
    arch::PlainCnnConfig cnn;
    cnn.input_size = 32;
    cnn.blocks = {{8, 2}, {16, 2}};
    cnn.fc_widths = {32};
    cnn.num_classes = 10;
    MimeNetworkConfig config;
    config.custom_layers = arch::plain_cnn_spec(cnn);
    config.custom_classifier = arch::plain_cnn_classifier(cnn);
    config.seed = 11;
    return config;
}

/// Planned forward must bit-match the legacy module-graph forward at
/// every batch size, for the given network as currently configured.
void expect_planned_matches_legacy(MimeNetwork& net, std::uint64_t seed) {
    Workspace workspace;
    Rng rng(seed);
    for (const std::int64_t batch : {1, 7, 32}) {
        const Tensor x = Tensor::randn({batch, 3, 32, 32}, rng);
        net.set_eval_mode(false);
        const Tensor expected = net.forward(x);  // legacy allocate-per-call
        net.set_eval_mode(true);
        const Tensor& planned = net.forward_planned(x, workspace);
        ASSERT_EQ(planned.shape(), expected.shape()) << "batch " << batch;
        for (std::int64_t i = 0; i < expected.numel(); ++i) {
            ASSERT_EQ(planned[i], expected[i])
                << "batch " << batch << " element " << i;
        }
    }
    net.set_eval_mode(false);
}

TEST(ForwardPlan, BitMatchesLegacyForwardVggThreshold) {
    MimeNetwork net(tiny_config());
    net.set_training(false);
    net.set_mode(ActivationMode::threshold);
    net.reset_thresholds(0.15f);
    expect_planned_matches_legacy(net, 21);
}

TEST(ForwardPlan, BitMatchesLegacyForwardVggRelu) {
    MimeNetwork net(tiny_config());
    net.set_training(false);
    net.set_mode(ActivationMode::relu);
    expect_planned_matches_legacy(net, 22);
}

TEST(ForwardPlan, BitMatchesLegacyForwardPlainCnn) {
    MimeNetwork net(plain_cnn_config());
    net.set_training(false);
    net.set_mode(ActivationMode::threshold);
    net.reset_thresholds(0.1f);
    expect_planned_matches_legacy(net, 23);
}

TEST(ForwardPlan, BitMatchesLegacyForwardWithBatchNorm) {
    MimeNetworkConfig config = tiny_config();
    config.batchnorm = true;
    MimeNetwork net(config);
    net.set_training(false);
    net.set_mode(ActivationMode::threshold);
    net.reset_thresholds(0.1f);
    expect_planned_matches_legacy(net, 24);
}

TEST(ForwardPlan, TracksThresholdSwapMidStream) {
    MimeNetwork net(tiny_config());
    net.set_training(false);
    net.set_mode(ActivationMode::threshold);
    net.reset_thresholds(0.05f);
    const ThresholdSet set_a = net.snapshot_thresholds("a");
    net.reset_thresholds(0.4f);
    const ThresholdSet set_b = net.snapshot_thresholds("b");

    Rng rng(31);
    const Tensor x = Tensor::randn({2, 3, 32, 32}, rng);
    net.load_thresholds(set_a);
    const Tensor expected_a = net.forward(x);
    net.load_thresholds(set_b);
    const Tensor expected_b = net.forward(x);

    // One plan serves both tasks: thresholds are read live, so a swap
    // between batches needs no rebuild.
    Workspace workspace;
    net.set_eval_mode(true);
    net.load_thresholds(set_a);
    const Tensor planned_a = net.forward_planned(x, workspace);  // copy out
    net.load_thresholds(set_b);
    const Tensor& planned_b = net.forward_planned(x, workspace);
    for (std::int64_t i = 0; i < expected_a.numel(); ++i) {
        ASSERT_EQ(planned_a[i], expected_a[i]);
        ASSERT_EQ(planned_b[i], expected_b[i]);
    }
    // The two outputs genuinely differ (the swap had an effect).
    bool differs = false;
    for (std::int64_t i = 0; i < expected_a.numel(); ++i) {
        differs = differs || (expected_a[i] != expected_b[i]);
    }
    EXPECT_TRUE(differs);
}

TEST(ForwardPlan, ZeroTensorAllocationsAfterWarmup) {
    MimeNetwork net(tiny_config());
    net.set_training(false);
    net.set_mode(ActivationMode::threshold);
    net.reset_thresholds(0.1f);
    net.set_eval_mode(true);

    Rng rng(41);
    const Tensor x = Tensor::randn({4, 3, 32, 32}, rng);
    Workspace workspace;
    net.forward_planned(x, workspace);  // warm-up: plan build + reserve

    const std::int64_t allocations = Tensor::storage_allocation_count();
    const std::int64_t bytes = Tensor::storage_allocation_bytes();
    for (int iter = 0; iter < 3; ++iter) {
        const Tensor& logits = net.forward_planned(x, workspace);
        ASSERT_EQ(logits.shape(), Shape({4, 10}));
    }
    EXPECT_EQ(Tensor::storage_allocation_count(), allocations)
        << "planned forward allocated tensor storage after warm-up";
    EXPECT_EQ(Tensor::storage_allocation_bytes(), bytes);

    // Steady-state scratch is bounded by the reserved capacity and is
    // the maximum im2col footprint, not the sum over layers.
    EXPECT_GT(workspace.peak_bytes(), 0u);
    EXPECT_LE(workspace.peak_bytes(), workspace.capacity_bytes());
    EXPECT_EQ(workspace.used_bytes(), 0u);  // every step rewound
    EXPECT_EQ(net.planned_workspace_bytes(), workspace.peak_bytes());
}

TEST(ForwardPlan, PlanIsPerBatchSizeAndReusesWorkspace) {
    MimeNetwork net(tiny_config());
    net.set_training(false);
    net.set_eval_mode(true);
    ForwardPlan& plan2 = net.plan_for(2);
    ForwardPlan& plan5 = net.plan_for(5);
    EXPECT_EQ(plan2.batch_size(), 2);
    EXPECT_EQ(plan5.batch_size(), 5);
    EXPECT_EQ(&plan2, &net.plan_for(2));  // cached, not rebuilt
    EXPECT_EQ(plan2.input_shape(), Shape({2, 3, 32, 32}));
    EXPECT_GT(plan2.workspace_bytes(), 0u);
    EXPECT_GT(plan5.arena_floats(), plan2.arena_floats());
    // One workspace serves every batch size (max, not sum).
    EXPECT_EQ(net.planned_workspace_bytes(),
              std::max(plan2.workspace_bytes(), plan5.workspace_bytes()));
}

/// Bytes of one arena storage at `batch`: the largest step output, which
/// is some layer's (pre-pool) output or the logits.
std::size_t arena_storage_bytes(const MimeNetwork& net, std::int64_t batch) {
    std::int64_t largest = net.classifier_spec().out_channels;
    for (const arch::LayerSpec& spec : net.layer_specs()) {
        largest = std::max(largest, spec.neuron_count());
    }
    return static_cast<std::size_t>(batch * largest) * sizeof(float);
}

TEST(ForwardPlan, PlansOfEveryBatchSizeShareOneArena) {
    // Whatever order plans for batch sizes 1-8 are built in, the
    // network holds two arena storages sized for the largest plan built
    // so far, plus one input slab per plan; smaller plans built after a
    // larger one add only their slab.
    const std::vector<std::vector<std::int64_t>> orders = {
        {1, 2, 3, 4, 5, 6, 7, 8}, {5, 2, 8, 1, 7, 3, 6, 4}};
    for (const std::vector<std::int64_t>& order : orders) {
        MimeNetwork net(tiny_config());
        net.set_training(false);
        net.set_eval_mode(true);
        const arch::LayerSpec& first = net.layer_specs().front();
        const std::size_t image_bytes =
            static_cast<std::size_t>(first.in_channels * first.in_height *
                                     first.in_width) *
            sizeof(float);
        std::int64_t largest = 0;
        std::size_t slabs = 0;
        for (const std::int64_t batch : order) {
            SCOPED_TRACE("batch " + std::to_string(batch));
            net.plan_for(batch);
            largest = std::max(largest, batch);
            slabs += static_cast<std::size_t>(batch) * image_bytes;
            EXPECT_EQ(net.planned_buffer_bytes(),
                      2 * arena_storage_bytes(net, largest) + slabs);
        }
        EXPECT_EQ(net.planned_buffer_bytes(),
                  2 * arena_storage_bytes(net, 8) + 36 * image_bytes);
    }
}

TEST(ForwardPlan, Int8WeightSnapshotsAreBuiltOncePerNetwork) {
    MimeNetwork net(tiny_config());
    net.set_training(false);
    net.set_eval_mode(true);
    net.plan_for(2);  // a float plan quantizes nothing
    EXPECT_EQ(net.planned_quantized_weight_bytes(), 0u);

    // One int8 byte per weight and one float scale per output channel,
    // for every conv and hidden fc layer (the classifier runs float).
    std::size_t expected = 0;
    for (const arch::LayerSpec& spec : net.layer_specs()) {
        expected += static_cast<std::size_t>(spec.weight_count()) +
                    static_cast<std::size_t>(spec.out_channels) * sizeof(float);
    }
    net.set_quantized_execution({true});
    EXPECT_EQ(net.planned_buffer_bytes(), 0u);  // plans and arena dropped
    for (std::int64_t batch = 1; batch <= 8; ++batch) {
        net.plan_for(batch);
        EXPECT_EQ(net.planned_quantized_weight_bytes(), expected)
            << "after building the batch-" << batch << " plan";
    }
    EXPECT_GT(net.planned_quantized_max_rel_error(), 0.0);

    net.set_quantized_execution({false});
    EXPECT_EQ(net.planned_quantized_weight_bytes(), 0u);
    EXPECT_EQ(net.planned_quantized_max_rel_error(), 0.0);
}

TEST(ForwardPlan, NetworkCountsEveryPlanUntilThePlansAreDropped) {
    // One set of counters and step profiles per network: runs of the
    // plans of batch sizes 1-8 all add to it, and dropping the plans
    // (set_quantized_execution, set_pool) resets it.
    MimeNetwork net(tiny_config());
    net.set_training(false);
    net.set_eval_mode(true);
    net.set_mode(ActivationMode::threshold);
    // Odd channels of every site pruned: density 0.5, so steps compact.
    for (std::int64_t s = 0; s < net.site_count(); ++s) {
        ThresholdMask& mask = net.site(s).mask();
        Tensor& t = mask.thresholds().value;
        const std::int64_t extent =
            t.numel() / mask.activation_shape().dim(0);
        for (std::int64_t i = 0; i < t.numel(); ++i) {
            t[i] = (i / extent) % 2 == 1
                       ? std::numeric_limits<float>::infinity()
                       : 0.0f;
        }
        mask.mark_thresholds_dirty();
    }
    net.set_plan_profiling(true);
    Workspace workspace;
    Rng rng(71);

    // Runs batch sizes 1-8 once each; every profile then has 8 runs and
    // the profiles' MACs sum to the network's counters.
    auto run_all_sizes = [&] {
        std::uint64_t dense_per_image = 0;
        for (std::int64_t batch = 1; batch <= 8; ++batch) {
            SCOPED_TRACE("batch " + std::to_string(batch));
            const std::uint64_t hits0 = net.planned_sparse_hits();
            const std::uint64_t skipped0 = net.planned_skipped_macs();
            const std::uint64_t dense0 = net.planned_dense_macs();
            net.forward_planned(Tensor::randn({batch, 3, 32, 32}, rng),
                                workspace);
            EXPECT_GT(net.planned_sparse_hits(), hits0);
            EXPECT_GT(net.planned_skipped_macs(), skipped0);
            const std::uint64_t dense = net.planned_dense_macs() - dense0;
            if (batch == 1) {
                dense_per_image = dense;
            }
            EXPECT_EQ(dense, static_cast<std::uint64_t>(batch) *
                                 dense_per_image);
            for (const obs::LayerProfile& p : net.planned_layer_profiles()) {
                EXPECT_EQ(p.runs, batch) << p.name;
            }
        }
        std::int64_t dense = 0;
        std::int64_t skipped = 0;
        for (const obs::LayerProfile& p : net.planned_layer_profiles()) {
            dense += p.dense_macs;
            skipped += p.skipped_macs;
        }
        EXPECT_EQ(static_cast<std::uint64_t>(dense), net.planned_dense_macs());
        EXPECT_EQ(static_cast<std::uint64_t>(skipped),
                  net.planned_skipped_macs());
    };
    auto expect_reset = [&] {
        EXPECT_EQ(net.planned_sparse_hits(), 0u);
        EXPECT_EQ(net.planned_skipped_macs(), 0u);
        EXPECT_EQ(net.planned_dense_macs(), 0u);
        EXPECT_EQ(net.planned_quantized_hits(), 0u);
        EXPECT_TRUE(net.planned_layer_profiles().empty());
    };

    run_all_sizes();
    EXPECT_EQ(net.planned_quantized_hits(), 0u);  // float plans

    net.set_quantized_execution({true});
    expect_reset();
    run_all_sizes();
    // 13 convs + 2 hidden fcs per run; the classifier runs float.
    EXPECT_EQ(net.planned_quantized_hits(), 8u * 15u);

    ThreadPool pool(2);
    net.set_pool(&pool);
    expect_reset();
    run_all_sizes();
    net.set_pool(nullptr);
    expect_reset();
}

TEST(ForwardPlan, RunSelfHealsAStaleWorkspaceOffset) {
    // A batch that throws between a conv's scratch alloc and its rewind
    // leaves the workspace offset dangling; the next run must discard
    // it and proceed instead of failing forever.
    MimeNetwork net(tiny_config());
    net.set_training(false);
    net.set_eval_mode(true);
    Rng rng(61);
    const Tensor x = Tensor::randn({2, 3, 32, 32}, rng);
    Workspace workspace;
    const Tensor expected = net.forward_planned(x, workspace);

    workspace.alloc_floats(32);  // simulate an aborted batch's leftovers
    const Tensor& healed = net.forward_planned(x, workspace);
    for (std::int64_t i = 0; i < expected.numel(); ++i) {
        ASSERT_EQ(healed[i], expected[i]);
    }
    EXPECT_EQ(workspace.used_bytes(), 0u);
}

TEST(ForwardPlan, RequiresEvalMode) {
    MimeNetwork net(tiny_config());
    net.set_training(false);
    Workspace workspace;
    Rng rng(1);
    const Tensor x = Tensor::randn({1, 3, 32, 32}, rng);
    EXPECT_THROW(net.forward_planned(x, workspace), mime::check_error);
}

TEST(MimeNetwork, EvalModeForwardRetainsNoCachedState) {
    MimeNetworkConfig config = tiny_config();
    config.batchnorm = true;  // BN batch-stat buffers are covered too
    MimeNetwork net(config);
    net.set_training(false);
    net.set_mode(ActivationMode::threshold);
    Rng rng(51);
    const Tensor x = Tensor::randn({2, 3, 32, 32}, rng);

    // Without eval mode the graph retains backward-only caches even in
    // inference mode (that is what threshold training relies on)...
    net.forward(x);
    EXPECT_GT(net.cached_state_bytes(), 0);

    // ...entering eval mode releases them, and eval forwards (legacy
    // and planned alike) leave none behind.
    net.set_eval_mode(true);
    EXPECT_EQ(net.cached_state_bytes(), 0);
    net.forward(x);
    EXPECT_EQ(net.cached_state_bytes(), 0);
    Workspace workspace;
    net.forward_planned(x, workspace);
    EXPECT_EQ(net.cached_state_bytes(), 0);
}

TEST(MimeNetwork, BatchNormCloneSharesRunningStatistics) {
    MimeNetworkConfig config = tiny_config();
    config.batchnorm = true;
    MimeNetwork net(config);
    net.set_training(false);
    auto replica = net.clone_with_shared_backbone();
    auto mine = net.network().buffers();
    auto theirs = replica->network().buffers();
    ASSERT_EQ(mine.size(), theirs.size());
    ASSERT_GT(mine.size(), 0u);
    for (std::size_t i = 0; i < mine.size(); ++i) {
        EXPECT_TRUE(mine[i]->value.aliases(theirs[i]->value));
    }
}

}  // namespace
}  // namespace mime::core
