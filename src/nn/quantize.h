// Fixed-point quantization: fake (validation) and real (execution).
//
// The paper's accelerator stores W, X, A and T at reduced fixed-point
// precision (Table IV); training here runs in float32. Two families
// live here:
//
//   * fake_quantize* round-trips a float tensor through b-bit signed
//     fixed point in place, so tests and benches can verify that the
//     deployment precision does not change model behavior — validating
//     the Table IV assumption for our trained models. Per-tensor and
//     per-output-channel scale variants.
//
//   * The real path the quantized planned executor runs on:
//     quantize_weights_per_channel materializes an int8 weight matrix
//     with one symmetric scale per output channel (row), and
//     quantize_activations writes dynamically scaled int8 activations
//     into caller scratch (the executor applies it per sample, one
//     scale per image/row). real = q * scale throughout
//     (symmetric, zero-point-free), so dequantization after the int32
//     GEMM is one multiply per output element.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/module.h"
#include "tensor/tensor.h"

namespace mime::nn {

/// Result of quantizing one tensor.
struct QuantizationStats {
    double scale = 0.0;          ///< LSB step size (largest, if per-channel)
    double max_abs_error = 0.0;  ///< max |x - q(x)|
    double mean_abs_error = 0.0;
    std::int64_t saturated = 0;  ///< values clipped at the integer range
    /// Worst per-channel relative error: max over channels of
    /// (channel max |x - q(x)|) / (channel max |x|). The per-tensor
    /// variant reports its single global ratio here.
    double max_channel_rel_error = 0.0;
};

/// Quantizes `t` in place to `bits`-bit signed symmetric fixed point
/// (scale = max|x| / (2^(bits-1) - 1)) and dequantizes back. A zero
/// tensor is left unchanged (scale 0).
QuantizationStats fake_quantize(Tensor& t, int bits);

/// Per-output-channel variant: `t` must have rank >= 2; each slice along
/// dim 0 (the output channel, for conv and linear weight layouts) gets
/// its own symmetric scale. Strictly no worse per channel than the
/// per-tensor scale. Zero channels are left unchanged.
QuantizationStats fake_quantize_per_channel(Tensor& t, int bits);

/// Applies fake_quantize to every parameter of `module`; returns the
/// worst per-parameter max_abs_error.
double fake_quantize_parameters(Module& module, int bits);

/// Relative L2 error between the original and quantized copies of `t`
/// at the given precision (non-destructive helper for sweeps).
double quantization_relative_error(const Tensor& t, int bits);

// ---------------------------------------------------------------------------
// Real int8 path (quantized planned executor)
// ---------------------------------------------------------------------------

/// An int8 weight matrix with per-output-channel symmetric scales:
/// real[r, c] ~= data[r * cols + c] * scales[r]. Built once per layer
/// from the float master weights (which stay untouched) when a network
/// builds its first quantized ForwardPlan.
struct QuantizedTensor {
    std::vector<std::int8_t> data;  ///< row-major [rows, cols]
    std::vector<float> scales;      ///< one per row (output channel)
    std::int64_t rows = 0;
    std::int64_t cols = 0;
    /// Worst per-channel relative quantization error (metrics surface).
    double max_rel_error = 0.0;

    bool empty() const noexcept { return rows == 0; }
};

/// Quantizes a weight tensor (rank >= 2; dim 0 = output channel, the
/// remaining dims flatten into columns) to int8 [-127, 127] with one
/// symmetric scale per output channel (row absmax / 127). All-zero
/// channels get scale 0 and all-zero data, dequantizing to exactly 0.
QuantizedTensor quantize_weights_per_channel(const Tensor& weight);

/// Returns `q` with its data transposed (row-major [cols, rows]).
/// `scales` are copied unchanged — they stay indexed by the original
/// row (= the transposed matrix's column), i.e. still per output
/// channel. Linear layers store their plan snapshot this way so the
/// int8 GEMM runs activations-major ([batch, in] x [in, out]) with the
/// 16-wide column tiles on out_features instead of the batch; so do
/// convs whose output has fewer than 16 positions (see
/// Conv2d::quantize_weights).
QuantizedTensor transpose_quantized(const QuantizedTensor& q);

/// Quantizes `count` activations into int8 [-127, 127] with one dynamic
/// symmetric scale (absmax / 127, computed over this call's data).
/// Returns the scale; an all-zero input
/// returns scale 0 with all-zero output. Deterministic: same input
/// bytes give the same output bytes regardless of threading (callers
/// quantize on the dispatch thread before any banding).
float quantize_activations(const float* x, std::int64_t count,
                           std::int8_t* out);

/// The two phases of quantize_activations, split so the conv path can
/// compute the batch scale once on the dispatch thread and then let
/// each band worker quantize its own (disjoint) sample slice — the
/// scale is fixed before any banding, so thread count never changes
/// the produced bytes.
float activation_absmax(const float* x, std::int64_t count);
/// Writes round-to-nearest int8 of x * inv_scale (inv_scale = 127 /
/// absmax, or 0 for an all-zero tensor, which zero-fills).
void quantize_with_scale(const float* x, std::int64_t count, float inv_scale,
                         std::int8_t* out);

/// out[i] = float(acc[i]) * scale + add — the dequantize epilogue that
/// turns one output channel's int32 accumulator row back into floats
/// (scale = weight-channel scale * activation scale, add = bias).
/// Lives here so it compiles in the SIMD-flagged translation unit.
void dequantize_affine(const std::int32_t* acc, std::int64_t count,
                       float scale, float add, float* out);

}  // namespace mime::nn
