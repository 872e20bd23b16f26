// Fully-connected layer.
#pragma once

#include <optional>

#include "nn/module.h"
#include "nn/quantize.h"
#include "nn/sparse.h"
#include "tensor/workspace.h"

namespace mime::nn {

/// y[N, out] = x[N, in] * W^T + b. Weight layout [out_features,
/// in_features] (row per output neuron, matching Conv2d's channel-major
/// convention).
class Linear : public Module {
public:
    /// He-normal weight init (fan-in), zero bias.
    Linear(std::int64_t in_features, std::int64_t out_features, Rng& rng,
           bool bias = true);

    Tensor forward(const Tensor& input) override;
    Tensor backward(const Tensor& grad_output) override;
    std::string kind() const override { return "Linear"; }
    std::vector<Parameter*> parameters() override;
    void set_eval_mode(bool eval) override;
    std::int64_t cached_state_bytes() const override;

    /// Planned-executor forward: writes into the caller-preallocated
    /// `output` ([N, out_features]); no heap allocation, no backward
    /// caching. Bit-identical to forward().
    ///
    /// `live_features`, when given, lists the input features that can be
    /// nonzero (the rest were provably zeroed by an upstream threshold
    /// mask), and the layer runs the row-compacted GEMM over just those
    /// features — bit-identical to the dense product because the
    /// skipped features contribute exact zeros. Whether a list is worth
    /// compacting over (the sparse policy's density cutoff) is the
    /// caller's decision.
    void forward_into(const Tensor& input, Tensor& output,
                      const ActiveIndexView* live_features = nullptr);

    /// Int8 planned forward: quantizes the activations ([N, in], one
    /// dynamic scale per sample row) into workspace scratch, contracts them
    /// against `qweight` — the weight matrix quantized and then
    /// *transposed* to [in, out] (see transpose_quantized; scales stay
    /// per output channel) — with the int8 kernel into int32, and
    /// dequantizes + bias into the float `output`. Same live-feature
    /// compaction as forward_into.
    void forward_into_quantized(const Tensor& input, Workspace& workspace,
                                Tensor& output,
                                const nn::QuantizedTensor& qweight,
                                const ActiveIndexView* live_features =
                                    nullptr);

    /// Workspace bytes forward_into_quantized() allocates for one
    /// forward at this batch size (alignment-rounded): the int8
    /// activation slab plus the int32 accumulator tile.
    std::size_t quantized_workspace_bytes(std::int64_t batch) const;

    Parameter& weight() noexcept { return weight_; }
    Parameter& bias() { return bias_.value(); }
    bool has_bias() const noexcept { return bias_.has_value(); }

    std::int64_t in_features() const noexcept { return in_features_; }
    std::int64_t out_features() const noexcept { return out_features_; }

private:
    void forward_compute(const Tensor& input, Tensor& output,
                         const ActiveIndexView* live_features);

    std::int64_t in_features_;
    std::int64_t out_features_;
    Parameter weight_;
    std::optional<Parameter> bias_;
    Tensor cached_input_;
};

}  // namespace mime::nn
