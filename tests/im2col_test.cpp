// Tests for im2col / col2im lowering.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <tuple>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "tensor/im2col.h"

namespace mime {
namespace {

ConvGeometry make_geometry(std::int64_t c, std::int64_t h, std::int64_t w,
                           std::int64_t k, std::int64_t stride,
                           std::int64_t pad) {
    ConvGeometry g;
    g.in_channels = c;
    g.in_height = h;
    g.in_width = w;
    g.kernel = k;
    g.stride = stride;
    g.padding = pad;
    return g;
}

// The lowering's plane scratch for `g`, filled with a nonzero value so a
// border the lowering failed to zero shows up as data.
template <typename T>
std::vector<T> plane_for(const ConvGeometry& g) {
    return std::vector<T>(static_cast<std::size_t>(g.plane_elements()),
                          T{9});
}

TEST(ConvGeometry, OutputExtents) {
    const auto g = make_geometry(3, 32, 32, 3, 1, 1);
    EXPECT_EQ(g.out_height(), 32);
    EXPECT_EQ(g.out_width(), 32);
    EXPECT_EQ(g.col_rows(), 27);
    EXPECT_EQ(g.col_cols(), 1024);
    EXPECT_EQ(g.plane_elements(), 34 * 34);
}

TEST(ConvGeometry, StridedExtents) {
    const auto g = make_geometry(1, 8, 8, 2, 2, 0);
    EXPECT_EQ(g.out_height(), 4);
    EXPECT_EQ(g.out_width(), 4);
}

TEST(ConvGeometry, RejectsDegenerate) {
    auto g = make_geometry(1, 2, 2, 5, 1, 0);
    EXPECT_THROW(g.validate(), check_error);
    g = make_geometry(0, 2, 2, 1, 1, 0);
    EXPECT_THROW(g.validate(), check_error);
}

TEST(Im2col, IdentityKernel) {
    // 1x1 kernel, stride 1: columns equal the input exactly.
    const auto g = make_geometry(2, 3, 3, 1, 1, 0);
    std::vector<float> input(18);
    std::iota(input.begin(), input.end(), 0.0f);
    std::vector<float> cols(
        static_cast<std::size_t>(g.col_rows() * g.col_cols()));
    im2col(g, input.data(), cols.data(), plane_for<float>(g).data());
    for (std::size_t i = 0; i < input.size(); ++i) {
        EXPECT_EQ(cols[i], input[i]);
    }
}

TEST(Im2col, KnownWindow) {
    // 1 channel 3x3 input, 2x2 kernel, stride 1, no padding → 2x2 output.
    const auto g = make_geometry(1, 3, 3, 2, 1, 0);
    const std::vector<float> input{1, 2, 3, 4, 5, 6, 7, 8, 9};
    std::vector<float> cols(static_cast<std::size_t>(4 * 4));
    im2col(g, input.data(), cols.data(), plane_for<float>(g).data());
    // Row 0 is kernel tap (0,0): top-left of each window.
    EXPECT_EQ(cols[0], 1);
    EXPECT_EQ(cols[1], 2);
    EXPECT_EQ(cols[2], 4);
    EXPECT_EQ(cols[3], 5);
    // Row 3 is tap (1,1): bottom-right of each window.
    EXPECT_EQ(cols[12], 5);
    EXPECT_EQ(cols[15], 9);
}

TEST(Im2col, PaddingProducesZeros) {
    const auto g = make_geometry(1, 2, 2, 3, 1, 1);
    const std::vector<float> input{1, 2, 3, 4};
    std::vector<float> cols(static_cast<std::size_t>(9 * 4));
    im2col(g, input.data(), cols.data(), plane_for<float>(g).data());
    // Tap (0,0) for output (0,0) reads input (-1,-1) → zero.
    EXPECT_EQ(cols[0], 0.0f);
    // Tap (1,1) for output (0,0) reads input (0,0) = 1.
    EXPECT_EQ(cols[4 * 4 + 0], 1.0f);
}

TEST(Col2im, AdjointOfIm2col) {
    // <im2col(x), y> == <x, col2im(y)> for random x, y — the defining
    // adjoint property used by the convolution backward pass.
    const auto g = make_geometry(3, 7, 6, 3, 2, 1);
    Rng rng(21);
    const std::int64_t in_size = 3 * 7 * 6;
    const std::int64_t col_size = g.col_rows() * g.col_cols();

    std::vector<float> x(static_cast<std::size_t>(in_size));
    std::vector<float> y(static_cast<std::size_t>(col_size));
    for (auto& v : x) {
        v = static_cast<float>(rng.normal());
    }
    for (auto& v : y) {
        v = static_cast<float>(rng.normal());
    }

    std::vector<float> cols(static_cast<std::size_t>(col_size));
    im2col(g, x.data(), cols.data(), plane_for<float>(g).data());
    double lhs = 0.0;
    for (std::int64_t i = 0; i < col_size; ++i) {
        lhs += static_cast<double>(cols[static_cast<std::size_t>(i)]) *
               y[static_cast<std::size_t>(i)];
    }

    std::vector<float> back(static_cast<std::size_t>(in_size), 0.0f);
    col2im(g, y.data(), back.data());
    double rhs = 0.0;
    for (std::int64_t i = 0; i < in_size; ++i) {
        rhs += static_cast<double>(x[static_cast<std::size_t>(i)]) *
               back[static_cast<std::size_t>(i)];
    }
    EXPECT_NEAR(lhs, rhs, 1e-3);
}

TEST(Col2im, AccumulatesOverlaps) {
    // 3x3 kernel stride 1: center input pixel of a 3x3 map is covered by
    // all windows that include it; ones in columns accumulate the
    // coverage count.
    const auto g = make_geometry(1, 3, 3, 3, 1, 1);
    std::vector<float> cols(static_cast<std::size_t>(9 * 9), 1.0f);
    std::vector<float> grad(9, 0.0f);
    col2im(g, cols.data(), grad.data());
    // Center pixel (1,1) is read by all 9 windows.
    EXPECT_FLOAT_EQ(grad[4], 9.0f);
    // Corner pixel (0,0) is read by the 4 windows whose tap grid covers it.
    EXPECT_FLOAT_EQ(grad[0], 4.0f);
}

// Direct definition of the lowering: column (c*K*K + ky*K + kx, oy*Wo +
// ox) holds input (c, oy*stride + ky - pad, ox*stride + kx - pad), or 0
// outside the image.
template <typename T>
std::vector<T> im2col_oracle(const ConvGeometry& g, const std::vector<T>& x) {
    const std::int64_t ho = g.out_height();
    const std::int64_t wo = g.out_width();
    std::vector<T> cols(static_cast<std::size_t>(g.col_rows() * ho * wo));
    std::size_t i = 0;
    for (std::int64_t c = 0; c < g.in_channels; ++c) {
        for (std::int64_t ky = 0; ky < g.kernel; ++ky) {
            for (std::int64_t kx = 0; kx < g.kernel; ++kx) {
                for (std::int64_t oy = 0; oy < ho; ++oy) {
                    for (std::int64_t ox = 0; ox < wo; ++ox, ++i) {
                        const std::int64_t iy = oy * g.stride + ky - g.padding;
                        const std::int64_t ix = ox * g.stride + kx - g.padding;
                        const bool inside = iy >= 0 && iy < g.in_height &&
                                            ix >= 0 && ix < g.in_width;
                        cols[i] = inside
                                      ? x[static_cast<std::size_t>(
                                            (c * g.in_height + iy) *
                                                g.in_width +
                                            ix)]
                                      : T{};
                    }
                }
            }
        }
    }
    return cols;
}

template <typename T>
void expect_lowering_matches_oracle(const ConvGeometry& g) {
    Rng rng(static_cast<std::uint64_t>(g.in_height * 31 + g.in_width * 7 +
                                       g.kernel + g.padding * 5 +
                                       g.stride * 3));
    std::vector<T> x(static_cast<std::size_t>(g.in_channels * g.in_height *
                                              g.in_width));
    for (auto& v : x) {
        // Nonzero everywhere, so a padding zero can never pass for data.
        v = static_cast<T>(1 + static_cast<int>(rng.uniform_index(100)));
    }
    const std::vector<T> want = im2col_oracle(g, x);
    std::vector<T> dense(want.size(), T{7});
    std::vector<T> plane = plane_for<T>(g);
    im2col(g, x.data(), dense.data(), plane.data());
    EXPECT_EQ(dense, want);

    // Live channels only: their rows match, every other row is untouched.
    const std::vector<std::int64_t> live{0, 2};
    const std::int64_t rows_per_channel = g.kernel * g.kernel;
    const std::size_t block = static_cast<std::size_t>(
        rows_per_channel * g.out_height() * g.out_width());
    std::vector<T> sparse(want.size(), T{7});
    plane = plane_for<T>(g);
    im2col(g, x.data(), sparse.data(), plane.data(), live.data(),
           static_cast<std::int64_t>(live.size()));
    for (std::int64_t c = 0; c < g.in_channels; ++c) {
        const bool is_live = c == 0 || c == 2;
        for (std::size_t k = 0; k < block; ++k) {
            const std::size_t at = static_cast<std::size_t>(c) * block + k;
            ASSERT_EQ(sparse[at], is_live ? want[at] : T{7})
                << "channel " << c << " element " << k;
        }
    }
}

// (height, width, kernel, stride, padding): same-padded squares from the
// VGG's 2x2 block up, stride-1 rectangular, unpadded and over-padded
// geometries (runs shorter than, equal to and longer than each copy
// chunk), and strided ones, square, over-padded and unpadded
// rectangular, all read off the same zero-bordered plane.
using LoweringCase = std::tuple<int, int, int, int, int>;

class Im2colOracleTest : public ::testing::TestWithParam<LoweringCase> {};

TEST_P(Im2colOracleTest, FloatAndInt8MatchDirectDefinition) {
    const auto [h, w, k, stride, pad] = GetParam();
    const ConvGeometry g = make_geometry(3, h, w, k, stride, pad);
    expect_lowering_matches_oracle<float>(g);
    expect_lowering_matches_oracle<std::int8_t>(g);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, Im2colOracleTest,
    ::testing::Values(LoweringCase{1, 1, 3, 1, 1}, LoweringCase{2, 2, 3, 1, 1},
                      LoweringCase{3, 3, 3, 1, 1}, LoweringCase{4, 4, 3, 1, 1},
                      LoweringCase{5, 5, 3, 1, 1}, LoweringCase{6, 6, 3, 1, 1},
                      LoweringCase{8, 8, 3, 1, 1},
                      LoweringCase{32, 32, 3, 1, 1},
                      LoweringCase{7, 7, 5, 1, 2}, LoweringCase{9, 9, 5, 1, 2},
                      LoweringCase{16, 16, 1, 1, 0},
                      LoweringCase{5, 9, 3, 1, 1}, LoweringCase{9, 5, 3, 1, 1},
                      LoweringCase{8, 8, 3, 2, 1}, LoweringCase{9, 9, 3, 1, 0},
                      LoweringCase{4, 4, 3, 1, 2},
                      LoweringCase{12, 12, 3, 1, 2},
                      LoweringCase{7, 7, 3, 2, 1}, LoweringCase{9, 9, 5, 2, 2},
                      LoweringCase{6, 9, 3, 2, 0}));

class Im2colRoundTrip
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(Im2colRoundTrip, AdjointHoldsAcrossGeometries) {
    const auto [channels, size, kernel, stride] = GetParam();
    const auto g =
        make_geometry(channels, size, size, kernel, stride, kernel / 2);
    Rng rng(5);
    const std::int64_t in_size = channels * size * size;
    const std::int64_t col_size = g.col_rows() * g.col_cols();

    std::vector<float> x(static_cast<std::size_t>(in_size));
    std::vector<float> y(static_cast<std::size_t>(col_size));
    for (auto& v : x) {
        v = static_cast<float>(rng.normal());
    }
    for (auto& v : y) {
        v = static_cast<float>(rng.normal());
    }
    std::vector<float> cols(static_cast<std::size_t>(col_size));
    im2col(g, x.data(), cols.data(), plane_for<float>(g).data());
    std::vector<float> back(static_cast<std::size_t>(in_size), 0.0f);
    col2im(g, y.data(), back.data());

    double lhs = 0.0;
    double rhs = 0.0;
    for (std::int64_t i = 0; i < col_size; ++i) {
        lhs += static_cast<double>(cols[static_cast<std::size_t>(i)]) *
               y[static_cast<std::size_t>(i)];
    }
    for (std::int64_t i = 0; i < in_size; ++i) {
        rhs += static_cast<double>(x[static_cast<std::size_t>(i)]) *
               back[static_cast<std::size_t>(i)];
    }
    EXPECT_NEAR(lhs, rhs, 2e-3);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, Im2colRoundTrip,
    ::testing::Values(std::tuple{1, 5, 3, 1}, std::tuple{2, 8, 3, 2},
                      std::tuple{4, 6, 1, 1}, std::tuple{3, 9, 5, 2},
                      std::tuple{2, 4, 2, 2}));

}  // namespace
}  // namespace mime
