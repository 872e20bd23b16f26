// Tests for the MIME threshold mask (paper eq. 1, 2, 4) and its
// straight-through gradient estimator.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/check.h"
#include "core/threshold_mask.h"

namespace mime::core {
namespace {

TEST(SteConfig, DstEstimatorShape) {
    const SteConfig ste;  // defaults = DST estimator
    EXPECT_FLOAT_EQ(ste(0.0f), 2.0f);
    EXPECT_FLOAT_EQ(ste(0.4f), 0.4f);
    EXPECT_FLOAT_EQ(ste(-0.4f), 0.4f);
    EXPECT_FLOAT_EQ(ste(0.7f), 0.4f);
    EXPECT_FLOAT_EQ(ste(1.0f), 0.4f);
    EXPECT_FLOAT_EQ(ste(1.01f), 0.0f);
    EXPECT_FLOAT_EQ(ste(-5.0f), 0.0f);
    // Linear in the inner region: g(0.2) = 2 - 4*0.2.
    EXPECT_NEAR(ste(0.2f), 1.2f, 1e-6f);
}

TEST(SteConfig, ValidatesPieces) {
    SteConfig bad;
    bad.inner_width = -1.0f;
    EXPECT_THROW(bad.validate(), mime::check_error);
    bad = SteConfig{};
    bad.outer_width = 0.1f;  // < inner_width
    EXPECT_THROW(bad.validate(), mime::check_error);
    bad = SteConfig{};
    bad.outer_value = 5.0f;  // > peak
    EXPECT_THROW(bad.validate(), mime::check_error);
}

TEST(ThresholdMask, ForwardImplementsEquations1And2) {
    ThresholdMask mask({4}, /*initial_threshold=*/1.0f);
    const Tensor y({1, 4}, std::vector<float>{0.5f, 1.0f, 2.0f, -3.0f});
    const Tensor a = mask.forward(y);
    // y >= t passes the raw MAC value; otherwise 0.
    EXPECT_EQ(a[0], 0.0f);   // 0.5 < 1
    EXPECT_EQ(a[1], 1.0f);   // 1.0 >= 1 (boundary: mask = 1)
    EXPECT_EQ(a[2], 2.0f);
    EXPECT_EQ(a[3], 0.0f);
    EXPECT_DOUBLE_EQ(mask.last_sparsity(), 0.5);
    // The binary mask is exposed.
    EXPECT_EQ(mask.last_mask()[1], 1.0f);
    EXPECT_EQ(mask.last_mask()[3], 0.0f);
}

TEST(ThresholdMask, PerNeuronThresholds) {
    ThresholdMask mask({2}, 0.0f);
    mask.thresholds().value = Tensor({2}, std::vector<float>{0.1f, 5.0f});
    const Tensor y({1, 2}, std::vector<float>{1.0f, 1.0f});
    const Tensor a = mask.forward(y);
    EXPECT_EQ(a[0], 1.0f);  // above its threshold
    EXPECT_EQ(a[1], 0.0f);  // below its threshold
}

TEST(ThresholdMask, HigherThresholdsGiveMoreSparsity) {
    Rng rng(5);
    const Tensor y = Tensor::randn({8, 16}, rng);
    ThresholdMask low({16}, 0.0f);
    ThresholdMask high({16}, 1.0f);
    low.forward(y);
    high.forward(y);
    EXPECT_GT(high.last_sparsity(), low.last_sparsity());
}

TEST(ThresholdMask, BatchBroadcastsThresholds) {
    ThresholdMask mask({2}, 0.5f);
    const Tensor y({3, 2}, std::vector<float>{1, 0, 1, 0, 1, 0});
    const Tensor a = mask.forward(y);
    for (std::int64_t n = 0; n < 3; ++n) {
        EXPECT_EQ(a.at({n, 0}), 1.0f);
        EXPECT_EQ(a.at({n, 1}), 0.0f);
    }
}

TEST(ThresholdMask, BackwardGradientFormula) {
    // a = y * H(y - t): da/dy = m + y*g(y-t), da/dt = -y*g(y-t).
    ThresholdMask mask({1}, 0.0f);
    mask.thresholds().value[0] = 1.0f;
    const SteConfig ste;

    const float y_val = 1.2f;  // y - t = 0.2 → inner STE region, mask = 1
    const Tensor y({1, 1}, std::vector<float>{y_val});
    mask.forward(y);
    mask.thresholds().zero_grad();
    const Tensor gi = mask.backward(Tensor::ones({1, 1}));

    const float g_est = ste(y_val - 1.0f);
    EXPECT_NEAR(gi[0], 1.0f + y_val * g_est, 1e-5f);
    EXPECT_NEAR(mask.thresholds().grad[0], -y_val * g_est, 1e-5f);
}

TEST(ThresholdMask, GradMatchesNumericAwayFromStep) {
    // Where |y - t| > outer_width the estimator is 0 and the mask is
    // locally constant, so the analytic gradient equals the true one.
    ThresholdMask mask({3}, 0.0f);
    const Tensor y({1, 3}, std::vector<float>{3.0f, -2.5f, 4.0f});
    mask.forward(y);
    const Tensor head({1, 3}, std::vector<float>{1.0f, 1.0f, 1.0f});
    const Tensor gi = mask.backward(head);

    const double eps = 1e-3;
    Tensor probe = y;
    for (std::int64_t i = 0; i < 3; ++i) {
        const float saved = probe[i];
        probe[i] = saved + static_cast<float>(eps);
        const float plus = sum(mask.forward(probe));
        probe[i] = saved - static_cast<float>(eps);
        const float minus = sum(mask.forward(probe));
        probe[i] = saved;
        EXPECT_NEAR(gi[i], (plus - minus) / (2 * eps), 1e-2);
    }
}

TEST(ThresholdMask, RegularizationLossIsSumExp) {
    ThresholdMask mask({3}, 0.0f);
    mask.thresholds().value =
        Tensor({3}, std::vector<float>{0.0f, 1.0f, -1.0f});
    const double expected = 1.0 + std::exp(1.0) + std::exp(-1.0);
    EXPECT_NEAR(mask.regularization_loss(), expected, 1e-6);
}

TEST(ThresholdMask, RegularizationGradientIsBetaExp) {
    ThresholdMask mask({2}, 0.0f);
    mask.thresholds().value = Tensor({2}, std::vector<float>{0.0f, 2.0f});
    mask.thresholds().zero_grad();
    mask.add_regularization_gradient(0.5f);
    EXPECT_NEAR(mask.thresholds().grad[0], 0.5f, 1e-6f);
    EXPECT_NEAR(mask.thresholds().grad[1], 0.5f * std::exp(2.0f), 1e-4f);
}

TEST(ThresholdMask, RegularizationClampsOverflow) {
    ThresholdMask mask({1}, 0.0f);
    mask.thresholds().value[0] = 1000.0f;  // exp would overflow
    EXPECT_TRUE(std::isfinite(mask.regularization_loss()));
    mask.thresholds().zero_grad();
    mask.add_regularization_gradient(1.0f);
    EXPECT_TRUE(std::isfinite(mask.thresholds().grad[0]));
}

TEST(ThresholdMask, ClampEnforcesFloor) {
    ThresholdMask mask({3}, 0.0f);
    mask.thresholds().value =
        Tensor({3}, std::vector<float>{-1.0f, 0.5f, -0.2f});
    mask.clamp_thresholds(0.0f);
    EXPECT_EQ(mask.thresholds().value[0], 0.0f);
    EXPECT_EQ(mask.thresholds().value[1], 0.5f);
    EXPECT_EQ(mask.thresholds().value[2], 0.0f);
}

TEST(ThresholdMask, RejectsShapeMismatch) {
    ThresholdMask mask({4});
    const Tensor wrong({1, 5});
    EXPECT_THROW(mask.forward(wrong), mime::check_error);
    const Tensor unbatched({4});
    EXPECT_THROW(mask.forward(unbatched), mime::check_error);
}

TEST(ThresholdMask, ParameterExposedAsTrainable) {
    ThresholdMask mask({4});
    const auto params = mask.parameters();
    ASSERT_EQ(params.size(), 1u);
    EXPECT_TRUE(params[0]->trainable);
    EXPECT_EQ(params[0]->value.shape(), Shape({4}));
}

TEST(ActiveSet, TracksStructurallyPrunedChannels) {
    ThresholdMask mask({8, 2, 2}, 0.1f);
    float* t = mask.thresholds().value.data();
    for (std::int64_t c = 0; c < 8; ++c) {
        if (c != 0 && c != 3) {
            for (std::int64_t i = 0; i < 4; ++i) {
                t[c * 4 + i] = kPrunedThreshold;
            }
        }
    }
    mask.mark_thresholds_dirty();

    const ActiveSet& as = mask.active_set();
    EXPECT_EQ(as.neurons, 32);
    EXPECT_EQ(as.channels, 8);
    EXPECT_EQ(as.live_channels, (std::vector<std::int64_t>{0, 3}));
    std::vector<std::int64_t> expected_live;
    for (std::int64_t i = 0; i < 4; ++i) expected_live.push_back(i);
    for (std::int64_t i = 12; i < 16; ++i) expected_live.push_back(i);
    EXPECT_EQ(as.live, expected_live);
    EXPECT_FALSE(as.all_live());
    EXPECT_DOUBLE_EQ(as.density(), 0.25);
    EXPECT_DOUBLE_EQ(as.channel_density(), 0.25);
}

TEST(ActiveSet, RebuildsOnlyWhenDirty) {
    ThresholdMask mask({16}, 0.0f);
    const std::uint64_t v0 = mask.active_set().version;
    // Repeated queries without mutation must not rebuild.
    EXPECT_EQ(mask.active_set().version, v0);
    EXPECT_EQ(mask.active_set().version, v0);

    mask.thresholds().value.data()[5] = kPrunedThreshold;
    mask.mark_thresholds_dirty();
    const ActiveSet& as = mask.active_set();
    EXPECT_GT(as.version, v0);
    EXPECT_EQ(as.live.size(), 15u);
}

TEST(ActiveSet, NanAndInfThresholdsAreDead) {
    ThresholdMask mask({4}, 0.0f);
    float* t = mask.thresholds().value.data();
    t[1] = kPrunedThreshold;
    t[2] = std::numeric_limits<float>::quiet_NaN();
    mask.mark_thresholds_dirty();
    EXPECT_EQ(mask.active_set().live, (std::vector<std::int64_t>{0, 3}));

    // A pruned threshold masks every input — even +inf, because
    // inf - inf is NaN and NaN >= 0 is false.
    const Tensor y = Tensor::full({1, 4},
                                  std::numeric_limits<float>::infinity());
    const Tensor out = mask.forward(y);
    EXPECT_EQ(out.data()[1], 0.0f);
    EXPECT_EQ(out.data()[2], 0.0f);
}

TEST(ActiveSet, AllFiniteThresholdsAllLive) {
    ThresholdMask mask({4, 3}, 100.0f);  // high but finite: data-masked,
                                         // not structurally pruned
    const ActiveSet& as = mask.active_set();
    EXPECT_TRUE(as.all_live());
    EXPECT_EQ(as.live.size(), 12u);
    EXPECT_EQ(as.live_channels.size(), 4u);
}

// The vectorized mask-apply (8-wide + scalar tail) must produce the
// same bytes and the same fused zero count as the scalar definition
// a_i = y_i * 1[y_i - t_i >= 0].
TEST(ThresholdMask, VectorizedApplyMatchesScalarDefinition) {
    Rng rng(99);
    const std::int64_t features = 19;  // exercises the non-multiple-of-8 tail
    const Tensor y = Tensor::randn({3, features}, rng);
    ThresholdMask mask({features}, 0.3f);
    const Tensor out = mask.forward(y);

    const float* t = mask.thresholds().value.data();
    std::int64_t zeros = 0;
    for (std::int64_t n = 0; n < 3; ++n) {
        for (std::int64_t i = 0; i < features; ++i) {
            const float yi = y.data()[n * features + i];
            const float expected = (yi - t[i] >= 0.0f) ? yi : 0.0f;
            EXPECT_EQ(out.data()[n * features + i], expected);
            if (expected == 0.0f) ++zeros;
        }
    }
    // last_sparsity comes from the count fused into the apply loop.
    EXPECT_DOUBLE_EQ(mask.last_sparsity(),
                     static_cast<double>(zeros) / (3.0 * features));
}

// The planned executor skips the output channels a mask prunes, so the
// mask's in-place pass sees whatever another plan left in the activation
// arena there. A pruned (+inf or NaN) threshold must zero every such
// value, NaN and +-inf included, in the 8-wide body and the scalar tail.
TEST(ThresholdMask, PrunedNeuronsZeroNonFiniteActivationsInPlace) {
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float garbage[] = {nan, inf, -inf, 1e30f, -1e30f, 0.5f};
    const std::int64_t features = 19;  // exercises the non-multiple-of-8 tail
    ThresholdMask mask({features}, 0.0f);
    float* t = mask.thresholds().value.data();
    for (std::int64_t i = 0; i < features; ++i) {
        t[i] = i % 3 == 0 ? 0.1f : (i % 3 == 1 ? kPrunedThreshold : nan);
    }
    mask.mark_thresholds_dirty();
    Tensor y({2, features});
    for (std::int64_t i = 0; i < y.numel(); ++i) {
        y[i] = garbage[i % 6];
    }
    const Tensor before = y;
    mask.forward_eval_inplace(y);
    for (std::int64_t n = 0; n < 2; ++n) {
        for (std::int64_t i = 0; i < features; ++i) {
            const float out = y[n * features + i];
            const float in = before[n * features + i];
            if (i % 3 != 0) {
                EXPECT_EQ(out, 0.0f) << "pruned neuron " << i << " kept "
                                     << in;
            } else if (in - t[i] >= 0.0f) {
                EXPECT_EQ(out, in);
            } else {
                EXPECT_EQ(out, 0.0f);
            }
        }
    }
}

// Sweep: sparsity is monotone in the threshold level.
class ThresholdSweep : public ::testing::TestWithParam<float> {};

TEST_P(ThresholdSweep, SparsityIncreasesWithThreshold) {
    Rng rng(17);
    const Tensor y = Tensor::randn({16, 32}, rng);
    ThresholdMask mask({32}, GetParam());
    mask.forward(y);
    // Normal inputs, threshold at q → sparsity ≈ Phi(q).
    const double expected = 0.5 * (1.0 + std::erf(GetParam() / std::sqrt(2.0)));
    EXPECT_NEAR(mask.last_sparsity(), expected, 0.06);
}

INSTANTIATE_TEST_SUITE_P(Levels, ThresholdSweep,
                         ::testing::Values(0.0f, 0.25f, 0.5f, 1.0f, 1.5f));

}  // namespace
}  // namespace mime::core
