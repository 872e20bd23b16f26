// ForwardPlan: a pre-sized, allocation-free execution schedule for one
// MimeNetwork forward pass at a fixed (batch size, input shape).
//
// The module-graph forward allocates on every call: each Conv2d
// materializes an im2col buffer and a fresh output tensor, each
// activation site a mask, and eval-mode forwards still pay for caches
// that only a backward pass would read. MIME's value proposition is a
// *fixed* steady-state working set per task switch, so serving wants the
// dual: build the schedule once, then execute batches against
// preallocated buffers with zero heap traffic.
//
// The plan walks the network's Sequential once at build time and records
// one step per layer:
//   * Conv2d / MaxPool2d / Linear steps write a contiguous view of the
//     network's activation arena (and conv takes a workspace scratch
//     reservation for im2col);
//   * BatchNorm2d normalizes the conv activations in place;
//   * activation sites run as one fused in-place pass (threshold masking
//     or ReLU — no mask tensor, no cached MAC outputs);
//   * Flatten is free: an alias view of the previous output at the
//     flattened shape.
// Scratch lifetimes nest per layer, so the Workspace high-water mark is
// the *maximum* im2col footprint over conv layers, not the sum.
//
// Activation memory: the arena is two float storages owned by the
// MimeNetwork and shared by every plan it builds, each sized for the
// largest step output of any of them. A step's output lives in the
// storage its predecessor did not write (ping-pong), so a step never
// reads and writes one storage, and each view ends flush with the end of
// its storage, so an overrun of a step's output runs off the allocation
// (where ASan sees it). A replica serving every batch size from 1 to 8
// thus holds two buffers of the batch-8 plan's largest activation
// instead of one buffer per layer per batch size. Building a plan whose
// largest step outgrows the arena grows both storages and rebinds every
// plan of the network; plan build stays the only place that allocates.
// Input slabs stay per plan: callers fill them right before run().
//
// Sparse execution: the build walk additionally records, per conv /
// linear step, which upstream ThresholdMask (if any) provably zeroed
// that step's input — threshold deadness survives max-pooling at channel
// granularity and flatten at neuron granularity, and dies at any
// conv/bn/linear in between. At run time, when the network's sparse
// policy is on and the site runs in threshold mode, the step builds a
// live list. A linear step takes the mask's structural ActiveSet as is.
// A conv step narrows the structurally live channels at run time to
// those nonzero in at least one sample of the batch, found by an
// early-exit scan of its input: thresholds that zero a live channel
// across the batch skip its MACs as pruning does.
//
// The output side: each conv step also records the site that masks its
// own output, directly or through a BatchNorm2d, and lists that site's
// live channels when it runs in threshold mode. The mask's select zeroes
// a +inf- or NaN-threshold channel whatever the arena held there,
// another plan's NaN or +-inf included (inf - inf and NaN compare
// false), so the skipped channels need no write and post-mask
// activations stay bit-identical.
//
// run() is the only code that applies the policy's density cutoff: it
// hands a layer a list, input or output side alike, only when the list
// is not all-live and its density is at or below the cutoff, and the
// layer compacts exactly when it is handed one (row-compacted GEMM;
// bit-identical outputs, because the skipped terms are exact zeros). A
// pruned task's conv then costs live-in x live-out MACs. The hits,
// skipped and dense MACs, quantized hits and per-step profiles of every
// run accumulate on the network (MimeNetwork::planned_sparse_hits and
// its siblings), one set for all of its plans.
//
// Quantized execution: when the network's QuantizedExecution policy is
// on at build time, conv/linear steps run through the int8 kernels
// against an int8 snapshot of their weights with per-output-channel
// scales (the float masters are untouched). The network keeps one
// snapshot per layer, built with its first quantized plan and shared by
// every batch size. Activations quantize with one dynamic scale per
// sample into workspace scratch, the contraction happens in int32, and
// the dequantized float lands in the same output view, so BN /
// activation / threshold-mask stages are unchanged. Deadness
// propagation composes: the same input and output live sets drive
// qgemm_rows. The classifier is the exception: it is the per-task head
// a server copies in at every task install, which a build-time snapshot
// would miss, so it always runs float.
//
// Thresholds are read live from the sites at execution time: a task's
// threshold install between batches needs no plan rebuild (the
// ActiveSet rebuild is the mask's own, amortized per install).
//
// The plan holds non-owning pointers into the network's modules and
// int8 snapshots; the network must outlive it (MimeNetwork owns its
// plans, which makes that automatic). Executing a plan requires the
// network to be in eval mode — backward-only caching is exactly the
// allocation the plan eliminates. Plans of one network share the arena
// (and each Conv2d's live-row scratch), so they never run concurrently;
// replicas that serve in parallel are separate networks.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "obs/profile.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/pooling.h"
#include "nn/quantize.h"
#include "tensor/tensor.h"
#include "tensor/workspace.h"

namespace mime::core {

class MimeNetwork;
class ActivationSite;

/// Built, and bound to its network's arena, by MimeNetwork::plan_for.
class ForwardPlan {
public:
    ForwardPlan(const ForwardPlan&) = delete;
    ForwardPlan& operator=(const ForwardPlan&) = delete;

    /// Executes one batch. `input` must match input_shape(); the
    /// workspace is reset on entry (scratch never outlives a batch, and
    /// a previous batch that threw mid-layer must not wedge this one)
    /// and reserved to workspace_bytes() on first use. Returns the
    /// logits, a view into the network's activation arena: valid until
    /// the next planned run of any batch size on that network, or the
    /// next plan build that grows the arena. Callers copy out what they
    /// keep (the server copies each row before its next forward). Never
    /// run two plans of one network concurrently. Performs zero heap
    /// allocations after the first call reserved the workspace.
    const Tensor& run(const Tensor& input, Workspace& workspace);

    /// Preallocated batched input slab callers may fill in place (the
    /// server stacks request images straight into it) and pass to
    /// run().
    Tensor& input_slab() noexcept { return input_slab_; }

    std::int64_t batch_size() const noexcept { return batch_size_; }
    /// Batched input shape ([N, C, H, W]) this plan was built for.
    const Shape& input_shape() const noexcept { return input_shape_; }

    /// Scratch high-water mark a run needs (im2col; alignment-rounded).
    std::size_t workspace_bytes() const noexcept { return workspace_bytes_; }
    /// Floats of this plan's largest step output: what each of the two
    /// arena storages must hold for it.
    std::int64_t arena_floats() const noexcept { return arena_floats_; }

private:
    friend class MimeNetwork;

    /// Builds the schedule and the input slab, and names the network's
    /// per-step profiles (conv1/bn1/act1/pool1/.../fc3), raising each
    /// step's workspace bytes to this plan's scratch where it is
    /// larger. Under an enabled QuantizedExecution policy
    /// the steps run on `int8_weights`, the network's snapshots indexed
    /// by graph layer, filling any slot still empty. The steps' outputs
    /// stay unbound until bind_arena().
    ForwardPlan(MimeNetwork& network, std::int64_t batch_size,
                std::vector<nn::QuantizedTensor>& int8_weights);

    /// Points every step's output at its arena storage; each storage
    /// must hold at least arena_floats().
    void bind_arena(std::array<Tensor, 2>& arena);

    struct Step {
        enum class Kind {
            conv,        ///< conv->forward_into, arena view + scratch
            batchnorm,   ///< bn->forward_into in place
            activation,  ///< site->forward_eval_inplace (fused mask/ReLU)
            pool,        ///< pool->forward_into, arena view
            flatten,     ///< alias of the previous output
            linear       ///< linear->forward_into, arena view
        };
        Kind kind;
        nn::Conv2d* conv = nullptr;
        nn::BatchNorm2d* bn = nullptr;
        ActivationSite* site = nullptr;
        nn::MaxPool2d* pool = nullptr;
        nn::Linear* linear = nullptr;
        /// Output shape (conv/pool/linear/flatten; rank 0 for the
        /// in-place steps) and the arena storage that holds it.
        Shape output_shape;
        std::size_t arena_side = 0;
        /// The last output_shape.numel() floats of that storage, carved
        /// by bind_arena().
        Tensor buffer;

        // -- sparse execution (conv / linear steps only) -------------------
        /// Upstream mask whose structural zeros cover this step's input
        /// (null when no mask's deadness survives to here).
        ActivationSite* input_site = nullptr;
        /// Linear only: the mask's neuron indices equal this step's
        /// input-feature indices (no pool in between, numel matches), so
        /// the full neuron-level live list applies; otherwise only
        /// channel-level deadness is usable.
        bool input_neuron_level = false;
        /// Linear, channel-level only: input features per mask channel.
        std::int64_t input_channel_extent = 0;
        /// The input live list when it is built per run: for a conv,
        /// the structurally live input channels nonzero in some sample
        /// of the batch; for a channel-level linear, the live channels
        /// expanded to their features. Capacity is reserved at build,
        /// so runs never allocate.
        std::vector<std::int64_t> live_scratch;
        /// Conv only: the threshold site that masks this conv's output
        /// (next step, or the one after a BatchNorm2d; null otherwise).
        /// Its live channels are the only output channels computed
        /// when the policy's cutoff passes them.
        ActivationSite* output_site = nullptr;
        /// Skipped-MAC accounting constants: a step runs
        /// mac_unit * out * k MACs over the output rows (conv output
        /// channels, linear output features) and contraction rows it
        /// computes; out_total and k_total are the dense extents, and
        /// mac_unit is batch * spatial for conv, batch for linear.
        std::uint64_t mac_unit = 0;
        std::uint64_t out_total = 0;
        std::uint64_t k_total = 0;

        // -- quantized execution (conv / linear steps only) ----------------
        /// The network's int8 snapshot of the layer's weights with
        /// per-output-channel scales, when the plan was built under an
        /// enabled QuantizedExecution policy (null otherwise, and always
        /// null for the classifier); the step runs int8 exactly when it
        /// is set. The float master weights stay untouched, so threshold
        /// installs and calibration see exactly the weights they always
        /// did.
        const nn::QuantizedTensor* qweight = nullptr;
    };

    /// Adds a conv / linear step that ran with input list `in` and
    /// output list `out` (null: that side ran dense) to the network's
    /// counters, and to `profile` unless it is null.
    void account(const Step& step, const nn::ActiveIndexView* in,
                 const nn::ActiveIndexView* out, obs::LayerProfile* profile);

    MimeNetwork* network_;
    std::int64_t batch_size_;
    Shape input_shape_;
    Tensor input_slab_;
    std::vector<Step> steps_;
    std::size_t workspace_bytes_ = 0;
    std::int64_t arena_floats_ = 0;
};

}  // namespace mime::core
