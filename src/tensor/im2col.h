// im2col / col2im lowering for convolution.
//
// Conv2d forward lowers each input sample [C, H, W] into a column matrix
// [C*K*K, Hout*Wout]; the convolution then becomes a GEMM with the
// [Cout, C*K*K] filter matrix. col2im is the adjoint used by the backward
// pass w.r.t. the input.
//
// The lowering copies each channel it lowers once into a zero-bordered
// (H+2p) x (W+2p) plane, caller scratch of plane_elements() elements.
// Every tap's output row is then a run of that plane: contiguous at
// stride 1, every s-th element at stride s. Padding never needs a bounds
// test, and a stride-1 run is copied in fixed-size chunks that compile to
// register moves. One routine serves float and int8, the dense and the
// live-channel lowering, and every stride.
#pragma once

#include <cstdint>

namespace mime {

/// Static geometry of one 2-D convolution.
struct ConvGeometry {
    std::int64_t in_channels = 0;
    std::int64_t in_height = 0;
    std::int64_t in_width = 0;
    std::int64_t kernel = 0;   ///< square kernel extent
    std::int64_t stride = 1;
    std::int64_t padding = 0;  ///< symmetric zero padding

    std::int64_t out_height() const {
        return (in_height + 2 * padding - kernel) / stride + 1;
    }
    std::int64_t out_width() const {
        return (in_width + 2 * padding - kernel) / stride + 1;
    }
    /// Rows of the lowered column matrix (= C*K*K).
    std::int64_t col_rows() const { return in_channels * kernel * kernel; }
    /// Columns of the lowered column matrix (= Hout*Wout).
    std::int64_t col_cols() const { return out_height() * out_width(); }
    /// Elements of the zero-bordered plane one channel is lowered from
    /// (= (H+2p) * (W+2p)).
    std::int64_t plane_elements() const {
        return (in_height + 2 * padding) * (in_width + 2 * padding);
    }

    /// Validates extents; throws on non-positive output sizes.
    void validate() const;
};

/// Lowers one sample `input` [C, H, W] (contiguous) into `columns`
/// [C*K*K, Hout*Wout] (contiguous, caller-allocated). Out-of-image taps
/// contribute zeros. `plane` is scratch of g.plane_elements() elements;
/// its contents on entry do not matter.
void im2col(const ConvGeometry& g, const float* input, float* columns,
            float* plane);

/// Int8 lowering for the quantized executor — identical layout and tap
/// rules on already-quantized samples (pure data movement; a zero tap
/// dequantizes to exactly 0 at any scale).
void im2col(const ConvGeometry& g, const std::int8_t* input,
            std::int8_t* columns, std::int8_t* plane);

/// Partial lowering for the sparse conv path: writes only the K*K row
/// blocks of the `live_count` channels listed (strictly ascending) in
/// `live_channels`. `columns` keeps its full [C*K*K, Hout*Wout] layout —
/// rows of dead channels are left untouched (their previous contents are
/// garbage and must never be read; the row-compacted GEMM skips them).
void im2col(const ConvGeometry& g, const float* input, float* columns,
            float* plane, const std::int64_t* live_channels,
            std::int64_t live_count);

/// Int8 partial lowering (see above; composes with qgemm_rows).
void im2col(const ConvGeometry& g, const std::int8_t* input,
            std::int8_t* columns, std::int8_t* plane,
            const std::int64_t* live_channels, std::int64_t live_count);

/// Adjoint of im2col: accumulates `columns` [C*K*K, Hout*Wout] back into
/// `input_grad` [C, H, W]. `input_grad` must be zeroed by the caller
/// before the first accumulation.
void col2im(const ConvGeometry& g, const float* columns, float* input_grad);

}  // namespace mime
