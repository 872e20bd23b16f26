#include "tensor/im2col.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"

namespace mime {

void ConvGeometry::validate() const {
    MIME_REQUIRE(in_channels > 0 && in_height > 0 && in_width > 0,
                 "conv input extents must be positive");
    MIME_REQUIRE(kernel > 0, "conv kernel must be positive");
    MIME_REQUIRE(stride > 0, "conv stride must be positive");
    MIME_REQUIRE(padding >= 0, "conv padding must be non-negative");
    MIME_REQUIRE(out_height() > 0 && out_width() > 0,
                 "conv output extent is non-positive; kernel/stride/padding "
                 "incompatible with input size");
}

namespace {

// Copies `rows` runs of `width` elements, run r from src + r * src_pitch
// to dst + r * dst_pitch, each in fixed-size chunks of 8, 4, 2 and 1
// elements that the compiler turns into register moves: no libc call
// per run, and no image-bounds test, since the plane's zero border
// supplies the padding.
template <typename T>
void copy_runs(const T* src, std::int64_t src_pitch, T* dst,
               std::int64_t dst_pitch, std::int64_t rows,
               std::int64_t width) {
    for (std::int64_t r = 0; r < rows;
         ++r, src += src_pitch, dst += dst_pitch) {
        std::int64_t i = 0;
        for (; i + 8 <= width; i += 8) {
            std::memcpy(dst + i, src + i, 8 * sizeof(T));
        }
        if (i + 4 <= width) {
            std::memcpy(dst + i, src + i, 4 * sizeof(T));
            i += 4;
        }
        if (i + 2 <= width) {
            std::memcpy(dst + i, src + i, 2 * sizeof(T));
            i += 2;
        }
        if (i < width) {
            dst[i] = src[i];
        }
    }
}

// The strided form: run r takes every `step`-th element of the plane
// row at src + r * src_pitch into the contiguous dst + r * width.
template <typename T>
void gather_runs(const T* src, std::int64_t src_pitch, std::int64_t step,
                 T* dst, std::int64_t rows, std::int64_t width) {
    for (std::int64_t r = 0; r < rows; ++r, src += src_pitch, dst += width) {
        for (std::int64_t x = 0; x < width; ++x) {
            dst[x] = src[x * step];
        }
    }
}

// The one lowering routine: the `count` channels listed in `channels`
// (the identity list when null), each copied into the zero-bordered
// `plane` and its K*K rows of `columns` read off the plane as runs. The
// element type is float for the f32 path and int8 for the quantized
// executor (pure data movement either way; the border is the type's
// zero, which for int8 dequantizes to exactly 0). Every extent is a
// local: int8 stores may alias anything, so a field read in the loops
// would be reloaded after each one.
template <typename T>
void lower(const ConvGeometry& g, const T* input, T* columns, T* plane,
           const std::int64_t* channels, std::int64_t count) {
    MIME_REQUIRE(plane != nullptr, "im2col needs a plane scratch buffer");
    const std::int64_t h = g.in_height;
    const std::int64_t w = g.in_width;
    const std::int64_t k = g.kernel;
    const std::int64_t stride = g.stride;
    const std::int64_t pad = g.padding;
    const std::int64_t pw = w + 2 * pad;
    const std::int64_t ho = g.out_height();
    const std::int64_t wo = g.out_width();
    const std::int64_t cols = ho * wo;
    T* const interior = plane + pad * pw + pad;

    // The border is the same for every channel: zero the plane once, and
    // let each channel overwrite only the interior.
    std::fill(plane, plane + g.plane_elements(), T{});
    for (std::int64_t i = 0; i < count; ++i) {
        const std::int64_t c = channels != nullptr ? channels[i] : i;
        copy_runs(input + c * h * w, w, interior, pw, h, w);
        T* out = columns + c * k * k * cols;
        for (std::int64_t ky = 0; ky < k; ++ky) {
            for (std::int64_t kx = 0; kx < k; ++kx, out += cols) {
                const T* tap = plane + ky * pw + kx;
                if (stride == 1) {
                    copy_runs(tap, pw, out, wo, ho, wo);
                } else {
                    gather_runs(tap, stride * pw, stride, out, ho, wo);
                }
            }
        }
    }
}

template <typename T>
void lower_live(const ConvGeometry& g, const T* input, T* columns, T* plane,
                const std::int64_t* live_channels, std::int64_t live_count) {
    g.validate();
    MIME_REQUIRE(live_channels != nullptr || live_count == 0,
                 "im2col needs a channel list unless live_count is 0");
    for (std::int64_t i = 0; i < live_count; ++i) {
        const std::int64_t c = live_channels[i];
        MIME_REQUIRE(c >= 0 && c < g.in_channels &&
                         (i == 0 || c > live_channels[i - 1]),
                     "im2col live channels must be strictly ascending within "
                     "[0, in_channels)");
    }
    lower(g, input, columns, plane, live_channels, live_count);
}

}  // namespace

void im2col(const ConvGeometry& g, const float* input, float* columns,
            float* plane) {
    g.validate();
    lower(g, input, columns, plane, nullptr, g.in_channels);
}

void im2col(const ConvGeometry& g, const std::int8_t* input,
            std::int8_t* columns, std::int8_t* plane) {
    g.validate();
    lower(g, input, columns, plane, nullptr, g.in_channels);
}

void im2col(const ConvGeometry& g, const float* input, float* columns,
            float* plane, const std::int64_t* live_channels,
            std::int64_t live_count) {
    lower_live(g, input, columns, plane, live_channels, live_count);
}

void im2col(const ConvGeometry& g, const std::int8_t* input,
            std::int8_t* columns, std::int8_t* plane,
            const std::int64_t* live_channels, std::int64_t live_count) {
    lower_live(g, input, columns, plane, live_channels, live_count);
}

void col2im(const ConvGeometry& g, const float* columns, float* input_grad) {
    g.validate();
    const std::int64_t ho = g.out_height();
    const std::int64_t wo = g.out_width();
    const std::int64_t cols = ho * wo;

    std::int64_t row = 0;
    for (std::int64_t c = 0; c < g.in_channels; ++c) {
        float* channel = input_grad + c * g.in_height * g.in_width;
        for (std::int64_t ky = 0; ky < g.kernel; ++ky) {
            for (std::int64_t kx = 0; kx < g.kernel; ++kx, ++row) {
                const float* in_row_vals = columns + row * cols;
                for (std::int64_t oy = 0; oy < ho; ++oy) {
                    const std::int64_t iy = oy * g.stride + ky - g.padding;
                    if (iy < 0 || iy >= g.in_height) {
                        continue;
                    }
                    float* grad_row = channel + iy * g.in_width;
                    for (std::int64_t ox = 0; ox < wo; ++ox) {
                        const std::int64_t ix = ox * g.stride + kx - g.padding;
                        if (ix >= 0 && ix < g.in_width) {
                            grad_row[ix] += in_row_vals[oy * wo + ox];
                        }
                    }
                }
            }
        }
    }
}

}  // namespace mime
