// 2-D convolution layer (NCHW, square kernels, symmetric padding).
#pragma once

#include <optional>
#include <vector>

#include "nn/module.h"
#include "nn/quantize.h"
#include "nn/sparse.h"
#include "tensor/im2col.h"
#include "tensor/workspace.h"

namespace mime::nn {

/// Conv2d lowered to GEMM via im2col. Weight layout is
/// [out_channels, in_channels, k, k]; contiguity makes the same buffer a
/// [out_channels, in_channels*k*k] row-major matrix for the GEMM.
class Conv2d : public Module {
public:
    /// He-normal weight init (fan-in), zero bias.
    Conv2d(std::int64_t in_channels, std::int64_t out_channels,
           std::int64_t kernel, std::int64_t stride, std::int64_t padding,
           Rng& rng, bool bias = true);

    Tensor forward(const Tensor& input) override;
    Tensor backward(const Tensor& grad_output) override;
    std::string kind() const override { return "Conv2d"; }
    std::vector<Parameter*> parameters() override;
    void set_eval_mode(bool eval) override;
    std::int64_t cached_state_bytes() const override;

    /// Planned-executor forward: writes into the caller-preallocated
    /// `output` ([N, Cout, Ho, Wo]) using `workspace` for the packed
    /// weights and the im2col scratch — no tensor-storage allocation, no
    /// backward caching. The weights (only the listed rows and columns,
    /// under the lists below) are packed once per call, and every
    /// sample's GEMM reads that one pack.
    /// When this module has a pool and batch > 1, samples are split
    /// across conv_bands() workers, each with its own pre-carved
    /// workspace slice: a column matrix and the zero-bordered plane the
    /// lowering copies each channel into (the band scratch is carved up
    /// front on the calling thread because Workspace is not
    /// thread-safe); outputs are bit-identical to the sequential order
    /// because each output row's FMA chain is the same either way.
    ///
    /// The layer compacts over exactly the lists it is given; whether a
    /// list is worth compacting over (the sparse policy's density
    /// cutoff) is the caller's decision.
    ///
    /// `live_in_channels`, when given, lists the input channels that can
    /// be nonzero; every other channel must be zero in every sample
    /// (structurally pruned by an upstream threshold mask, or zeroed
    /// across the batch at run time). im2col lowers only the listed
    /// channels and the GEMM contracts over their rows only —
    /// bit-identical to dense because the skipped rows contribute exact
    /// zeros.
    ///
    /// `live_out_channels`, when given, lists the only output channels
    /// computed: the GEMM reads just those weight rows and writes just
    /// those rows of each sample's output, with the bias added to them
    /// only. Every other channel of `output` keeps whatever it held, so
    /// the caller must zero it: the planned executor passes the live
    /// channels of the threshold mask that consumes this output, which
    /// zeroes a +inf/NaN-threshold channel whatever it holds. The listed
    /// channels bit-match a dense forward (rows of the GEMM never mix),
    /// and an empty list computes nothing. Composes with
    /// `live_in_channels`: a pruned task's conv costs live-in x live-out
    /// MACs.
    void forward_into(const Tensor& input, Workspace& workspace,
                      Tensor& output,
                      const ActiveIndexView* live_in_channels = nullptr,
                      const ActiveIndexView* live_out_channels = nullptr);

    /// Int8 planned forward: quantizes each sample of the input (one
    /// dynamic scale per sample, so a hot outlier in one image never
    /// inflates the others' step size — and each sample's bytes depend
    /// only on its own data, so banding never changes them), lowers to
    /// an int8 column matrix, contracts against `qweight`
    /// (per-output-channel scales, prebuilt by the plan with
    /// quantize_weights) into int32 accumulators, and dequantizes + bias
    /// into the float `output`. An output with fewer than kGemmNarrowN
    /// spatial positions runs the GEMM with operands swapped (transposed
    /// column matrix times transposed weights), so the int8 kernel's
    /// 16-wide tiles span output channels rather than a scalar tail.
    /// Same live-channel compaction and output-channel list as
    /// forward_into; a compacted call also computes each sample's scale
    /// from, and quantizes, only the listed channels' planes (the rest
    /// are zero, so the scale and the bytes the GEMM reads are the
    /// same), and the dequant runs over the listed output
    /// channels only. On the swapped narrow GEMM the output channels are
    /// its columns, which a row list cannot reach, so the listed
    /// channels' weight columns are gathered once per call into
    /// workspace, padded to whole 16-wide tiles. Scratch comes from
    /// `workspace` (quantized_workspace_bytes), so steady state
    /// allocates nothing.
    void forward_into_quantized(const Tensor& input, Workspace& workspace,
                                Tensor& output,
                                const nn::QuantizedTensor& qweight,
                                const ActiveIndexView* live_in_channels =
                                    nullptr,
                                const ActiveIndexView* live_out_channels =
                                    nullptr);

    /// The int8 weight snapshot forward_into_quantized expects for an
    /// input of this size: [Cout, C*K*K] with one scale per output
    /// channel, transposed to [C*K*K, Cout] when the output has fewer
    /// than kGemmNarrowN spatial positions.
    nn::QuantizedTensor quantize_weights(std::int64_t in_height,
                                         std::int64_t in_width) const;

    /// Validated convolution geometry for an input of the given spatial
    /// extents — the single source of truth for output sizes that both
    /// the forwards and ForwardPlan's buffer pre-sizing derive from.
    ConvGeometry geometry(std::int64_t in_height, std::int64_t in_width) const;

    /// Workspace floats forward_into() allocates for one forward at
    /// this input geometry and batch size (already alignment-rounded):
    /// the weights packed once per call, plus per band a column matrix
    /// and a zero-bordered (H+2p) x (W+2p) lowering plane. A Workspace
    /// reserved to this size throws on any byte past it.
    std::int64_t workspace_floats(std::int64_t in_height,
                                  std::int64_t in_width,
                                  std::int64_t batch = 1) const;

    /// Workspace bytes forward_into_quantized() allocates at this input
    /// geometry and batch size (alignment-rounded): the int8 input
    /// slab plus, per band, an int8 column matrix (and its transpose
    /// for a narrow output), an int8 lowering plane and an int32
    /// accumulator tile; a narrow output adds room for the gathered
    /// output-channel weights.
    std::size_t quantized_workspace_bytes(std::int64_t in_height,
                                          std::int64_t in_width,
                                          std::int64_t batch = 1) const;

    /// Number of per-sample bands forward_into() splits a batch of the
    /// given size into: min(pool size, batch) with a pool, else 1.
    std::int64_t conv_bands(std::int64_t batch) const;

    Parameter& weight() noexcept { return weight_; }
    Parameter& bias() { return bias_.value(); }
    bool has_bias() const noexcept { return bias_.has_value(); }

    std::int64_t in_channels() const noexcept { return in_channels_; }
    std::int64_t out_channels() const noexcept { return out_channels_; }
    std::int64_t kernel() const noexcept { return kernel_; }
    std::int64_t stride() const noexcept { return stride_; }
    std::int64_t padding() const noexcept { return padding_; }

private:
    /// The GEMM index lists one planned forward runs with: contraction
    /// rows expanded from the input channels (null rows = all C*K*K)
    /// and the output channels to compute (null out_rows = all Cout).
    struct GemmLists {
        const std::int64_t* rows = nullptr;
        std::int64_t row_count = 0;
        const std::int64_t* out_rows = nullptr;
        std::int64_t out_count = 0;
    };
    GemmLists gemm_lists(const ActiveIndexView* live_in_channels,
                         const ActiveIndexView* live_out_channels,
                         std::int64_t ckk);

    ConvGeometry geometry_for(const Tensor& input) const;

    std::int64_t in_channels_;
    std::int64_t out_channels_;
    std::int64_t kernel_;
    std::int64_t stride_;
    std::int64_t padding_;
    Parameter weight_;
    std::optional<Parameter> bias_;
    Tensor cached_input_;  ///< saved by forward for the backward pass
    /// Scratch for the live-channel -> live-GEMM-row (c*K*K + t)
    /// expansion; member so steady-state sparse forwards reuse its
    /// capacity instead of reallocating.
    std::vector<std::int64_t> live_rows_;
};

}  // namespace mime::nn
