#include "core/forward_plan.h"

#include <algorithm>
#include <chrono>
#include <string>

#include "common/check.h"
#include "core/mime_network.h"
#include "nn/layers.h"

namespace mime::core {

ForwardPlan::ForwardPlan(MimeNetwork& network, std::int64_t batch_size,
                         std::vector<nn::QuantizedTensor>& int8_weights)
    : network_(&network), batch_size_(batch_size) {
    MIME_REQUIRE(batch_size >= 1, "ForwardPlan batch size must be >= 1");
    MIME_REQUIRE(!network.layer_specs().empty(),
                 "ForwardPlan needs a built network");
    const arch::LayerSpec& first = network.layer_specs().front();
    input_shape_ = Shape(
        {batch_size, first.in_channels, first.in_height, first.in_width});
    input_slab_ = Tensor(input_shape_);

    nn::Sequential& graph = network.network();
    steps_.reserve(graph.size());
    // The network keeps one profile per step for all of its plans: every
    // plan walks the same Sequential, so step i is the same layer in each.
    std::vector<obs::LayerProfile>& profiles = network.planned_profiles_;
    profiles.resize(graph.size());
    // One int8 snapshot per layer, shared by every batch size's plan:
    // the first quantized plan fills the slots, later ones reuse them.
    const bool quantized = network.quantized_execution().enabled;
    if (quantized) {
        int8_weights.resize(graph.size());
    }
    // Per-kind ordinals for profile names (conv1, bn1, act1, ...). bn
    // and act number after the conv/linear they follow, matching how
    // the arch layer specs are usually read.
    int conv_ordinal = 0;
    int bn_ordinal = 0;
    int act_ordinal = 0;
    int pool_ordinal = 0;
    int fc_ordinal = 0;
    Shape current = input_shape_;
    // Arena storage holding the current activation; the input slab is
    // outside the arena, so the first conv writes storage 0.
    std::size_t side = 1;
    bool have_output = false;

    // Deadness provenance for the sparse path: the most recent threshold
    // mask whose structural zeros still cover the current buffer. Masks
    // introduce it, max-pool keeps it at channel granularity (a pooled
    // all-zero channel stays all-zero), flatten keeps it (row-major
    // [C,H,W] flattens channels to contiguous feature ranges), and any
    // compute layer (conv/bn/linear) replaces the values, killing it.
    ActivationSite* upstream_site = nullptr;
    bool upstream_channel_only = false;

    for (std::size_t i = 0; i < graph.size(); ++i) {
        nn::Module& layer = graph.layer(i);
        Step step{};
        obs::LayerProfile& profile = profiles[i];
        if (auto* conv = dynamic_cast<nn::Conv2d*>(&layer)) {
            step.kind = Step::Kind::conv;
            step.conv = conv;
            // One validated geometry drives both the buffer shape and
            // the scratch reservation, so the plan can never diverge
            // from what forward_into computes.
            const ConvGeometry g =
                conv->geometry(current.dim(2), current.dim(3));
            std::size_t scratch;
            if (quantized) {
                nn::QuantizedTensor& snapshot = int8_weights[i];
                if (snapshot.empty()) {
                    snapshot =
                        conv->quantize_weights(current.dim(2), current.dim(3));
                }
                step.qweight = &snapshot;
                scratch = conv->quantized_workspace_bytes(
                    current.dim(2), current.dim(3), batch_size);
            } else {
                scratch = static_cast<std::size_t>(conv->workspace_floats(
                              current.dim(2), current.dim(3), batch_size)) *
                          sizeof(float);
            }
            if (scratch > workspace_bytes_) {
                workspace_bytes_ = scratch;
            }
            profile.name = "conv" + std::to_string(++conv_ordinal);
            profile.workspace_bytes =
                std::max(profile.workspace_bytes, scratch);
            // Conv consumes channel-level deadness (a fully-masked input
            // channel zeroes its K*K rows of the column matrix), which
            // both channel-only and full neuron-level provenance supply.
            if (upstream_site != nullptr &&
                upstream_site->mask().activation_shape().dim(0) ==
                    conv->in_channels()) {
                step.input_site = upstream_site;
                step.live_scratch.reserve(
                    static_cast<std::size_t>(conv->in_channels()));
            }
            step.output_shape = Shape({batch_size, conv->out_channels(),
                                       g.out_height(), g.out_width()});
            step.mac_unit =
                static_cast<std::uint64_t>(batch_size * g.col_cols());
            step.out_total = static_cast<std::uint64_t>(conv->out_channels());
            step.k_total = static_cast<std::uint64_t>(g.col_rows());
            upstream_site = nullptr;
        } else if (auto* bn = dynamic_cast<nn::BatchNorm2d*>(&layer)) {
            MIME_REQUIRE(have_output,
                         "BatchNorm2d cannot be the first planned layer");
            step.kind = Step::Kind::batchnorm;
            step.bn = bn;
            profile.name = "bn" + std::to_string(++bn_ordinal);
            // The affine shift maps zeros to nonzeros: deadness dies.
            upstream_site = nullptr;
        } else if (auto* site = dynamic_cast<ActivationSite*>(&layer)) {
            MIME_REQUIRE(have_output,
                         "ActivationSite cannot be the first planned layer");
            step.kind = Step::Kind::activation;
            step.site = site;
            profile.name = "act" + std::to_string(++act_ordinal);
            upstream_site = site;
            upstream_channel_only = false;
            // The conv this site masks, directly or through a BN (which
            // is per-channel, so a masked channel stays masked).
            std::size_t producer = steps_.size() - 1;
            if (steps_[producer].kind == Step::Kind::batchnorm &&
                producer > 0) {
                --producer;
            }
            Step& conv_step = steps_[producer];
            if (conv_step.kind == Step::Kind::conv &&
                site->mask().activation_shape().dim(0) ==
                    conv_step.conv->out_channels()) {
                conv_step.output_site = site;
            }
        } else if (auto* pool = dynamic_cast<nn::MaxPool2d*>(&layer)) {
            step.kind = Step::Kind::pool;
            step.pool = pool;
            profile.name = "pool" + std::to_string(++pool_ordinal);
            step.output_shape = pool->output_shape(current);
            // Pooling mixes neurons within a channel but a structurally
            // dead channel (all zeros) pools to all zeros.
            upstream_channel_only = true;
        } else if (dynamic_cast<nn::Flatten*>(&layer) != nullptr) {
            MIME_REQUIRE(have_output,
                         "Flatten cannot be the first planned layer");
            step.kind = Step::Kind::flatten;
            profile.name = "flatten";
            const std::int64_t features = current.numel() / batch_size;
            step.output_shape = Shape({batch_size, features});
        } else if (auto* linear = dynamic_cast<nn::Linear*>(&layer)) {
            step.kind = Step::Kind::linear;
            step.linear = linear;
            profile.name = "fc" + std::to_string(++fc_ordinal);
            if (upstream_site != nullptr) {
                const ThresholdMask& mask = upstream_site->mask();
                const std::int64_t channels = mask.activation_shape().dim(0);
                if (!upstream_channel_only &&
                    mask.activation_shape().numel() == linear->in_features()) {
                    // Flatten of [C,H,W] is neuron-index order, so the
                    // mask's live list IS the live-feature list.
                    step.input_site = upstream_site;
                    step.input_neuron_level = true;
                } else if (channels > 0 &&
                           linear->in_features() % channels == 0) {
                    // Only channel deadness survived (pool in between):
                    // each mask channel owns a contiguous run of
                    // in_features/channels flattened features.
                    step.input_site = upstream_site;
                    step.input_neuron_level = false;
                    step.input_channel_extent =
                        linear->in_features() / channels;
                    step.live_scratch.reserve(
                        static_cast<std::size_t>(linear->in_features()));
                }
            }
            // The classifier (always the graph's last layer) is the
            // per-task head serving copies in between batches, so an
            // int8 snapshot of it would go stale at the next task
            // install: it stays float in every plan.
            const bool task_head = i + 1 == graph.size();
            if (quantized && !task_head) {
                // Linear keeps its int8 snapshot transposed ([in, out])
                // so the GEMM tiles 16-wide over out_features; the
                // per-output-channel scales are unaffected.
                nn::QuantizedTensor& snapshot = int8_weights[i];
                if (snapshot.empty()) {
                    snapshot = nn::transpose_quantized(
                        nn::quantize_weights_per_channel(
                            linear->weight().value));
                }
                step.qweight = &snapshot;
                // Unlike the float path, quantized linear needs scratch
                // (int8 activations + int32 accumulators).
                const std::size_t scratch =
                    linear->quantized_workspace_bytes(batch_size);
                if (scratch > workspace_bytes_) {
                    workspace_bytes_ = scratch;
                }
                profile.workspace_bytes =
                    std::max(profile.workspace_bytes, scratch);
            }
            step.output_shape = Shape({batch_size, linear->out_features()});
            step.mac_unit = static_cast<std::uint64_t>(batch_size);
            step.out_total =
                static_cast<std::uint64_t>(linear->out_features());
            step.k_total = static_cast<std::uint64_t>(linear->in_features());
            upstream_site = nullptr;
        } else {
            MIME_REQUIRE(false, "ForwardPlan cannot schedule layer kind '" +
                                    layer.kind() + "'");
        }
        if (step.kind == Step::Kind::conv || step.kind == Step::Kind::pool ||
            step.kind == Step::Kind::linear) {
            // A computed output goes to the storage its input is not in.
            side = 1 - side;
            have_output = true;
            arena_floats_ =
                std::max(arena_floats_, step.output_shape.numel());
        }
        if (step.output_shape.rank() != 0) {
            step.arena_side = side;
            current = step.output_shape;
        }
        steps_.push_back(std::move(step));
    }
}

void ForwardPlan::bind_arena(std::array<Tensor, 2>& arena) {
    for (Step& step : steps_) {
        if (step.output_shape.rank() != 0) {
            // Flush with the storage's end, so a write past the output
            // leaves the allocation. Flatten lands on its input's run.
            Tensor& storage = arena[step.arena_side];
            step.buffer = storage.alias(
                storage.numel() - step.output_shape.numel(),
                step.output_shape);
        }
    }
}

namespace {

/// `list` when the sparse policy lets a layer compact over it: not
/// all-live, and its density at or below the cutoff. Null otherwise, so
/// the layer runs that side dense.
const nn::ActiveIndexView* usable(const nn::ActiveIndexView& list,
                                  double density_cutoff) {
    return !list.all_live() && list.density() <= density_cutoff ? &list
                                                                : nullptr;
}

}  // namespace

void ForwardPlan::account(const Step& step, const nn::ActiveIndexView* in,
                          const nn::ActiveIndexView* out,
                          obs::LayerProfile* profile) {
    const std::uint64_t dense = step.mac_unit * step.out_total * step.k_total;
    std::uint64_t skipped = 0;
    if (in != nullptr || out != nullptr) {
        // A listed input index owns k_total / total contraction rows: K*K
        // for a conv's channel, 1 for a linear's feature.
        const std::uint64_t k_live =
            in != nullptr ? static_cast<std::uint64_t>(in->count) *
                                (step.k_total /
                                 static_cast<std::uint64_t>(in->total))
                          : step.k_total;
        const std::uint64_t out_live =
            out != nullptr ? static_cast<std::uint64_t>(out->count)
                           : step.out_total;
        skipped = dense - step.mac_unit * out_live * k_live;
        ++network_->planned_sparse_hits_;
        network_->planned_skipped_macs_ += skipped;
    }
    network_->planned_dense_macs_ += dense;
    if (step.qweight != nullptr) {
        ++network_->planned_quantized_hits_;
    }
    if (profile != nullptr) {
        profile->dense_macs += static_cast<std::int64_t>(dense);
        profile->skipped_macs += static_cast<std::int64_t>(skipped);
    }
}

const Tensor& ForwardPlan::run(const Tensor& input, Workspace& workspace) {
    MIME_REQUIRE(input.shape() == input_shape_,
                 "ForwardPlan::run input must be " + input_shape_.to_string() +
                     ", got " + input.shape().to_string());
    // Scratch has no cross-batch lifetime, so discard any leftover
    // offset up front: a batch that threw mid-conv (between alloc and
    // rewind) must not wedge every subsequent batch on this workspace.
    workspace.reset();
    if (workspace.capacity_bytes() < workspace_bytes_) {
        workspace.reserve(workspace_bytes_);  // warm-up only
    }

    const bool sparse_enabled = network_->sparse_execution().enabled;
    const double density_cutoff = network_->sparse_execution().density_cutoff;
    // Hoisted once per run: profiling costs one branch per step when
    // off, two steady_clock reads per step when on.
    const bool profiling = network_->plan_profiling();
    const Tensor* cur = &input;
    Tensor* cur_mut = nullptr;  // null while cur is the caller's input
    for (std::size_t si = 0; si < steps_.size(); ++si) {
        Step& step = steps_[si];
        obs::LayerProfile* profile =
            profiling ? &network_->planned_profiles_[si] : nullptr;
        std::chrono::steady_clock::time_point step_begin;
        if (profiling) {
            step_begin = std::chrono::steady_clock::now();
        }
        switch (step.kind) {
            case Step::Kind::conv: {
                nn::ActiveIndexView view;
                const nn::ActiveIndexView* viewp = nullptr;
                if (sparse_enabled && step.input_site != nullptr &&
                    step.input_site->mode() == ActivationMode::threshold) {
                    // Of the structurally live channels, keep those
                    // nonzero in at least one sample. A channel the
                    // thresholds zeroed across the whole batch lowers to
                    // all-zero im2col rows, which skip exactly as a
                    // pruned channel's do. Live planes usually exit the
                    // scan at their first elements.
                    const ActiveSet& as =
                        step.input_site->mask().active_set();
                    const std::int64_t plane =
                        cur->shape().dim(2) * cur->shape().dim(3);
                    step.live_scratch.clear();
                    for (const std::int64_t c : as.live_channels) {
                        for (std::int64_t n = 0; n < batch_size_; ++n) {
                            const float* p =
                                cur->data() + (n * as.channels + c) * plane;
                            if (std::any_of(p, p + plane, [](float v) {
                                    return v != 0.0f;
                                })) {
                                step.live_scratch.push_back(c);
                                break;
                            }
                        }
                    }
                    view = {step.live_scratch.data(),
                            static_cast<std::int64_t>(
                                step.live_scratch.size()),
                            as.channels};
                    viewp = usable(view, density_cutoff);
                }
                // Output channels the consuming mask zeroes whatever they
                // hold are not computed at all.
                nn::ActiveIndexView out_view;
                const nn::ActiveIndexView* out_viewp = nullptr;
                if (sparse_enabled && step.output_site != nullptr &&
                    step.output_site->mode() == ActivationMode::threshold) {
                    const ActiveSet& as =
                        step.output_site->mask().active_set();
                    out_view = {as.live_channels.data(),
                                static_cast<std::int64_t>(
                                    as.live_channels.size()),
                                as.channels};
                    out_viewp = usable(out_view, density_cutoff);
                }
                if (step.qweight != nullptr) {
                    step.conv->forward_into_quantized(
                        *cur, workspace, step.buffer, *step.qweight, viewp,
                        out_viewp);
                } else {
                    step.conv->forward_into(*cur, workspace, step.buffer,
                                            viewp, out_viewp);
                }
                account(step, viewp, out_viewp, profile);
                cur = cur_mut = &step.buffer;
                break;
            }
            case Step::Kind::batchnorm:
                step.bn->forward_into(*cur, *cur_mut);
                break;
            case Step::Kind::activation:
                step.site->forward_eval_inplace(*cur_mut);
                break;
            case Step::Kind::pool:
                step.pool->forward_into(*cur, step.buffer);
                cur = cur_mut = &step.buffer;
                break;
            case Step::Kind::flatten:
                // The view aliases cur_mut's elements; nothing to compute.
                cur = cur_mut = &step.buffer;
                break;
            case Step::Kind::linear: {
                nn::ActiveIndexView view;
                const nn::ActiveIndexView* viewp = nullptr;
                if (sparse_enabled && step.input_site != nullptr &&
                    step.input_site->mode() == ActivationMode::threshold) {
                    const ActiveSet& as =
                        step.input_site->mask().active_set();
                    if (step.input_neuron_level) {
                        view = {as.live.data(),
                                static_cast<std::int64_t>(as.live.size()),
                                as.neurons};
                    } else {
                        // Expand live channels to their contiguous
                        // feature runs; capacity was reserved at build,
                        // so this never allocates.
                        step.live_scratch.clear();
                        for (const std::int64_t c : as.live_channels) {
                            const std::int64_t base =
                                c * step.input_channel_extent;
                            for (std::int64_t t = 0;
                                 t < step.input_channel_extent; ++t) {
                                step.live_scratch.push_back(base + t);
                            }
                        }
                        view = {step.live_scratch.data(),
                                static_cast<std::int64_t>(
                                    step.live_scratch.size()),
                                step.linear->in_features()};
                    }
                    viewp = usable(view, density_cutoff);
                }
                if (step.qweight != nullptr) {
                    step.linear->forward_into_quantized(
                        *cur, workspace, step.buffer, *step.qweight, viewp);
                } else {
                    step.linear->forward_into(*cur, step.buffer, viewp);
                }
                account(step, viewp, nullptr, profile);
                cur = cur_mut = &step.buffer;
                break;
            }
        }
        if (profiling) {
            ++profile->runs;
            profile->total_us +=
                std::chrono::duration<double, std::micro>(
                    std::chrono::steady_clock::now() - step_begin)
                    .count();
        }
    }
    return *cur;
}

}  // namespace mime::core
