// Tests for the int8 GEMM kernel against the reference triple loop.
// Integer arithmetic is exact, so every comparison here is bit-for-bit
// (memcmp), including across thread counts and row compaction — the
// contract the quantized planned executor's determinism rests on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <tuple>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "tensor/qgemm.h"

namespace mime {
namespace {

std::vector<std::int8_t> random_int8(std::int64_t rows, std::int64_t cols,
                                     Rng& rng) {
    std::vector<std::int8_t> m(static_cast<std::size_t>(rows * cols));
    for (auto& v : m) {
        // Full quantized range [-127, 127].
        v = static_cast<std::int8_t>(
            static_cast<std::int64_t>(rng.uniform_index(255)) - 127);
    }
    return m;
}

void expect_bit_equal(const std::vector<std::int32_t>& a,
                      const std::vector<std::int32_t>& b) {
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(0, std::memcmp(a.data(), b.data(),
                             a.size() * sizeof(std::int32_t)));
}

// (m, n, k) — covers single element, tile edges (16-column boundary,
// 4-row register tile), odd-k pairing tail, scalar column tail, and
// the tiny-VGG conv shapes the quantized executor actually runs.
using QgemmCase = std::tuple<int, int, int>;

class QgemmParamTest : public ::testing::TestWithParam<QgemmCase> {};

TEST_P(QgemmParamTest, MatchesReferenceBitExact) {
    const auto [m, n, k] = GetParam();
    Rng rng(static_cast<std::uint64_t>(m * 73 + n * 31 + k));
    const auto a = random_int8(m, k, rng);
    const auto b = random_int8(k, n, rng);

    std::vector<std::int32_t> c_ref(static_cast<std::size_t>(m * n), -1);
    std::vector<std::int32_t> c_fast(static_cast<std::size_t>(m * n), 7);

    qgemm_reference(m, n, k, a.data(), k, b.data(), n, c_ref.data(), n);
    qgemm(m, n, k, a.data(), k, b.data(), n, c_fast.data(), n);
    expect_bit_equal(c_ref, c_fast);

    // Row-compacted over every third row, against the reference on the
    // gathered operands.
    std::vector<std::int64_t> rows;
    for (std::int64_t r = 0; r < k; r += 3) {
        rows.push_back(r);
    }
    const auto rc = static_cast<std::int64_t>(rows.size());
    std::vector<std::int8_t> a_c(static_cast<std::size_t>(m * rc));
    std::vector<std::int8_t> b_c(static_cast<std::size_t>(rc * n));
    for (std::int64_t p = 0; p < rc; ++p) {
        for (std::int64_t i = 0; i < m; ++i) {
            a_c[i * rc + p] = a[i * k + rows[p]];
        }
        for (std::int64_t j = 0; j < n; ++j) {
            b_c[p * n + j] = b[rows[p] * n + j];
        }
    }
    qgemm_reference(m, n, rc, a_c.data(), rc, b_c.data(), n, c_ref.data(), n);
    qgemm_rows(m, n, k, rows.data(), rc, a.data(), k, b.data(), n,
               c_fast.data(), n);
    expect_bit_equal(c_ref, c_fast);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, QgemmParamTest,
    ::testing::Values(QgemmCase{1, 1, 1},
                      QgemmCase{1, 16, 2},
                      QgemmCase{3, 5, 7},     // scalar column tail only
                      QgemmCase{4, 16, 8},    // exactly one 4x16 tile
                      QgemmCase{5, 17, 9},    // every tail at once, odd k
                      QgemmCase{64, 64, 64},
                      QgemmCase{65, 33, 17},
                      QgemmCase{128, 1, 256},
                      QgemmCase{1, 128, 255},
                      QgemmCase{4, 1024, 27},  // tiny-VGG conv1
                      QgemmCase{32, 16, 288},  // tiny-VGG conv9-10
                      QgemmCase{200, 150, 300}));

// Narrow outputs: every n below the 16-wide tile, including the 2x2
// conv outputs (n = 4), over contractions up to a 3x3 conv across 128
// channels.
INSTANTIATE_TEST_SUITE_P(
    NarrowN, QgemmParamTest,
    ::testing::Combine(::testing::Values(1, 5, 8, 13, 32, 128),
                       ::testing::Range(1, 16),
                       ::testing::Values(9, 288, 1152)));

TEST(Qgemm, ThreadedBitMatchesSingle) {
    Rng rng(9);
    const std::int64_t m = 300;
    const std::int64_t n = 120;
    const std::int64_t k = 80;
    const auto a = random_int8(m, k, rng);
    const auto b = random_int8(k, n, rng);
    std::vector<std::int32_t> c1(static_cast<std::size_t>(m * n), 0);
    std::vector<std::int32_t> c2 = c1;

    qgemm(m, n, k, a.data(), k, b.data(), n, c1.data(), n);
    ThreadPool pool(4);
    qgemm(m, n, k, a.data(), k, b.data(), n, c2.data(), n, &pool);
    expect_bit_equal(c1, c2);
}

TEST(Qgemm, SaturatedOperandsDoNotOverflow) {
    // Worst cases at the documented accumulator bound: the largest
    // positive product is (-128)*(-128) = 16384, the most negative is
    // 127*(-128) = -16256. k * 16384 must still fit in int32 (UBSan in
    // CI turns any slip here into a hard failure, not a silent wrap).
    const std::int64_t k = kQgemmMaxK;
    std::vector<std::int8_t> a(static_cast<std::size_t>(k), -128);
    std::vector<std::int8_t> b(static_cast<std::size_t>(k), -128);
    std::vector<std::int32_t> c(1, 0);
    qgemm(1, 1, k, a.data(), k, b.data(), 1, c.data(), 1);
    EXPECT_EQ(c[0], static_cast<std::int32_t>(16384LL * k));

    std::vector<std::int32_t> c_ref(1, 0);
    qgemm_reference(1, 1, k, a.data(), k, b.data(), 1, c_ref.data(), 1);
    EXPECT_EQ(c[0], c_ref[0]);

    std::fill(a.begin(), a.end(), static_cast<std::int8_t>(127));
    qgemm(1, 1, k, a.data(), k, b.data(), 1, c.data(), 1);
    EXPECT_EQ(c[0], static_cast<std::int32_t>(-16256LL * k));
    qgemm_reference(1, 1, k, a.data(), k, b.data(), 1, c_ref.data(), 1);
    EXPECT_EQ(c[0], c_ref[0]);
}

TEST(Qgemm, RejectsContractionBeyondAccumulatorBound) {
    std::vector<std::int8_t> a(static_cast<std::size_t>(kQgemmMaxK) + 1, 1);
    std::vector<std::int8_t> b(static_cast<std::size_t>(kQgemmMaxK) + 1, 1);
    std::vector<std::int32_t> c(1, 0);
    EXPECT_THROW(qgemm(1, 1, kQgemmMaxK + 1, a.data(), kQgemmMaxK + 1,
                       b.data(), 1, c.data(), 1),
                 check_error);
}

TEST(Qgemm, ZeroSizeIsNoop) {
    std::vector<std::int32_t> c{42};
    const std::vector<std::int8_t> a{1};
    const std::vector<std::int8_t> b{1};
    qgemm(0, 1, 1, a.data(), 1, b.data(), 1, c.data(), 1);
    EXPECT_EQ(c[0], 42);
}

TEST(Qgemm, ZeroKOverwritesWithZero) {
    // C is overwrite-only (no beta): a zero-depth contraction must
    // still clear the output.
    std::vector<std::int32_t> c{42, -7};
    const std::vector<std::int8_t> a{1};
    const std::vector<std::int8_t> b{1};
    qgemm(1, 2, 0, a.data(), 1, b.data(), 2, c.data(), 2);
    EXPECT_EQ(c[0], 0);
    EXPECT_EQ(c[1], 0);
}

TEST(Qgemm, RejectsNullOperands) {
    std::vector<std::int32_t> c{0};
    EXPECT_THROW(
        qgemm(1, 1, 1, nullptr, 1, nullptr, 1, c.data(), 1), check_error);
}

TEST(QgemmRows, MatchesCompactedReference) {
    Rng rng(41);
    const std::int64_t m = 37;
    const std::int64_t n = 53;
    const std::int64_t k = 300;
    const auto a = random_int8(m, k, rng);
    const auto b = random_int8(k, n, rng);
    std::vector<std::int64_t> rows;
    for (std::int64_t r = 0; r < k; r += 3) {
        rows.push_back(r);
    }
    const auto rc = static_cast<std::int64_t>(rows.size());

    // Reference: gather the live columns of A / rows of B into dense
    // compacted operands and run the oracle triple loop.
    std::vector<std::int8_t> a_c(static_cast<std::size_t>(m * rc));
    std::vector<std::int8_t> b_c(static_cast<std::size_t>(rc * n));
    for (std::int64_t i = 0; i < m; ++i) {
        for (std::int64_t p = 0; p < rc; ++p) {
            a_c[i * rc + p] = a[i * k + rows[p]];
        }
    }
    for (std::int64_t p = 0; p < rc; ++p) {
        for (std::int64_t j = 0; j < n; ++j) {
            b_c[p * n + j] = b[rows[p] * n + j];
        }
    }
    std::vector<std::int32_t> c_ref(static_cast<std::size_t>(m * n), 1);
    std::vector<std::int32_t> c_rows(static_cast<std::size_t>(m * n), 2);
    qgemm_reference(m, n, rc, a_c.data(), rc, b_c.data(), n, c_ref.data(), n);
    qgemm_rows(m, n, k, rows.data(), rc, a.data(), k, b.data(), n,
               c_rows.data(), n);
    expect_bit_equal(c_ref, c_rows);
}

TEST(QgemmRows, BitMatchesDenseWhenSkippedRowsAreZero) {
    Rng rng(42);
    const std::int64_t m = 19;
    const std::int64_t n = 47;
    const std::int64_t k = 160;
    const auto a = random_int8(m, k, rng);
    auto b = random_int8(k, n, rng);
    std::vector<std::int64_t> rows;
    for (std::int64_t r = 0; r < k; ++r) {
        if (r % 5 == 2) {
            rows.push_back(r);
        } else {
            std::fill(b.begin() + r * n, b.begin() + (r + 1) * n,
                      std::int8_t{0});
        }
    }
    std::vector<std::int32_t> c_dense(static_cast<std::size_t>(m * n), -7);
    std::vector<std::int32_t> c_sparse = c_dense;
    qgemm(m, n, k, a.data(), k, b.data(), n, c_dense.data(), n);
    qgemm_rows(m, n, k, rows.data(), static_cast<std::int64_t>(rows.size()),
               a.data(), k, b.data(), n, c_sparse.data(), n);
    expect_bit_equal(c_dense, c_sparse);
}

TEST(QgemmRows, SkippedRowsOfBAreNeverRead) {
    // Garbage (even saturating) values in the dead rows must not leak
    // into the result — the executor's im2col leaves them stale.
    Rng rng(43);
    const std::int64_t m = 6;
    const std::int64_t n = 33;
    const std::int64_t k = 24;
    const auto a = random_int8(m, k, rng);
    auto b = random_int8(k, n, rng);
    std::vector<std::int64_t> rows{0, 5, 11, 12, 23};
    std::vector<std::int32_t> c_before(static_cast<std::size_t>(m * n), 0);
    qgemm_rows(m, n, k, rows.data(), static_cast<std::int64_t>(rows.size()),
               a.data(), k, b.data(), n, c_before.data(), n);
    for (std::int64_t r = 0; r < k; ++r) {
        if (std::find(rows.begin(), rows.end(), r) == rows.end()) {
            std::fill(b.begin() + r * n, b.begin() + (r + 1) * n,
                      std::int8_t{-128});
        }
    }
    std::vector<std::int32_t> c_after(static_cast<std::size_t>(m * n), 0);
    qgemm_rows(m, n, k, rows.data(), static_cast<std::int64_t>(rows.size()),
               a.data(), k, b.data(), n, c_after.data(), n);
    expect_bit_equal(c_before, c_after);
}

TEST(QgemmRows, ThreadedBitMatchesSingle) {
    Rng rng(44);
    const std::int64_t m = 260;
    const std::int64_t n = 40;
    const std::int64_t k = 90;
    const auto a = random_int8(m, k, rng);
    const auto b = random_int8(k, n, rng);
    std::vector<std::int64_t> rows;
    for (std::int64_t r = 0; r < k; r += 2) {
        rows.push_back(r);
    }
    std::vector<std::int32_t> c1(static_cast<std::size_t>(m * n), 0);
    std::vector<std::int32_t> c2 = c1;
    qgemm_rows(m, n, k, rows.data(), static_cast<std::int64_t>(rows.size()),
               a.data(), k, b.data(), n, c1.data(), n);
    ThreadPool pool(4);
    qgemm_rows(m, n, k, rows.data(), static_cast<std::int64_t>(rows.size()),
               a.data(), k, b.data(), n, c2.data(), n, &pool);
    expect_bit_equal(c1, c2);
}

TEST(QgemmRows, EmptyRowListWritesZero) {
    const std::vector<std::int8_t> a{1, 2};
    const std::vector<std::int8_t> b{3, 4};
    std::vector<std::int32_t> c{5, 6};
    qgemm_rows(1, 2, 2, nullptr, 0, a.data(), 2, b.data(), 2, c.data(), 2);
    EXPECT_EQ(c[0], 0);
    EXPECT_EQ(c[1], 0);
}

TEST(QgemmRows, RejectsUnsortedOrOutOfRangeRows) {
    const std::vector<std::int8_t> a{1, 2};
    const std::vector<std::int8_t> b{3, 4};
    std::vector<std::int32_t> c{0, 0};
    const std::vector<std::int64_t> bad{1, 0};
    EXPECT_THROW(qgemm_rows(1, 2, 2, bad.data(), 2, a.data(), 2, b.data(), 2,
                            c.data(), 2),
                 check_error);
    const std::vector<std::int64_t> oob{0, 2};
    EXPECT_THROW(qgemm_rows(1, 2, 2, oob.data(), 2, a.data(), 2, b.data(), 2,
                            c.data(), 2),
                 check_error);
}

TEST(QgemmRows, OutputRowListComputesListedRowsOnly) {
    // Listed rows of C equal the full product's rows exactly; the rest
    // keep their sentinel. n = 40 covers the 16-wide tiles and the scalar
    // column tail; m = 300 lets a pool split the list into bands.
    Rng rng(31);
    const std::int64_t m = 300;
    const std::int64_t n = 40;
    const std::int64_t k = 77;
    const auto a = random_int8(m, k, rng);
    const auto b = random_int8(k, n, rng);
    std::vector<std::int64_t> rows;
    for (std::int64_t r = 0; r < k; r += 2) {
        rows.push_back(r);
    }
    std::vector<std::int64_t> out_rows;
    for (std::int64_t i = 1; i < m; i += 3) {
        out_rows.push_back(i);
    }
    const auto rc = static_cast<std::int64_t>(rows.size());
    const auto oc = static_cast<std::int64_t>(out_rows.size());
    std::vector<std::int32_t> full(static_cast<std::size_t>(m * n));
    qgemm_rows(m, n, k, rows.data(), rc, a.data(), k, b.data(), n,
               full.data(), n);
    std::vector<std::int32_t> want(full.size(), -5);
    for (const std::int64_t i : out_rows) {
        std::copy(full.begin() + i * n, full.begin() + (i + 1) * n,
                  want.begin() + i * n);
    }
    ThreadPool pool(4);
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
        std::vector<std::int32_t> got(full.size(), -5);
        qgemm_rows(m, n, k, rows.data(), rc, a.data(), k, b.data(), n,
                   got.data(), n, p, out_rows.data(), oc);
        expect_bit_equal(want, got);
    }
    const std::vector<std::int64_t> unsorted{2, 1};
    std::vector<std::int32_t> got(full.size(), -5);
    EXPECT_THROW(qgemm_rows(m, n, k, rows.data(), rc, a.data(), k, b.data(),
                            n, got.data(), n, nullptr, unsorted.data(), 2),
                 check_error);
}

TEST(Qgemm, KernelNameIsStable) {
    const std::string name = qgemm_kernel_name();
    EXPECT_TRUE(name == "avx2-int8" || name == "scalar") << name;
}

}  // namespace
}  // namespace mime
