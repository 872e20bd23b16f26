// Tests for the blocked GEMM kernel against the reference triple loop
// and, bit for bit, against a sequential FMA oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "tensor/gemm.h"

namespace mime {
namespace {

std::vector<float> random_matrix(std::int64_t rows, std::int64_t cols,
                                 Rng& rng) {
    std::vector<float> m(static_cast<std::size_t>(rows * cols));
    for (auto& v : m) {
        v = static_cast<float>(rng.normal());
    }
    return m;
}

// A conv's live-row list over [0, k): the 9 rows (K*K of a 3x3 kernel)
// of each live input channel, channels 0-2, 4-5 and 7 of every 9 live,
// so runs of 27, 18 and 9 consecutive indices with gaps between them.
// Over k = 1152 the runs cross the K-block edges at list positions 256
// and 512, and over k = 255-257 the list ends inside a run, so the
// 8-wide transposing pack meets whole blocks and remainders on both
// sides of each edge.
std::vector<std::int64_t> conv_live_rows(std::int64_t k) {
    std::vector<std::int64_t> rows;
    for (std::int64_t r = 0; r < k; ++r) {
        const std::int64_t channel = r / 9 % 9;
        if (channel != 3 && channel != 6 && channel != 8) {
            rows.push_back(r);
        }
    }
    return rows;
}

// The (k, contraction list) cases a test sweeps over `ks`: per k the
// identity list or, when compacted, every index except r % 3 == 1 (runs
// of at most 2) and conv_live_rows(k).
std::vector<std::pair<std::int64_t, std::vector<std::int64_t>>>
contraction_cases(std::initializer_list<std::int64_t> ks, bool compacted) {
    std::vector<std::pair<std::int64_t, std::vector<std::int64_t>>> cases;
    for (const std::int64_t k : ks) {
        std::vector<std::int64_t> rows;
        for (std::int64_t r = 0; r < k; ++r) {
            if (!compacted || r % 3 != 1) {
                rows.push_back(r);
            }
        }
        cases.emplace_back(k, std::move(rows));
        if (compacted) {
            cases.emplace_back(k, conv_live_rows(k));
        }
    }
    return cases;
}

void expect_close(const std::vector<float>& a, const std::vector<float>& b,
                  float tol = 2e-3f) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_NEAR(a[i], b[i], tol) << "at index " << i;
    }
}

// (m, n, k, trans_a, trans_b)
using GemmCase = std::tuple<int, int, int, bool, bool>;

class GemmParamTest : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmParamTest, MatchesReference) {
    const auto [m, n, k, ta, tb] = GetParam();
    Rng rng(static_cast<std::uint64_t>(m * 73 + n * 31 + k + (ta ? 7 : 0) +
                                       (tb ? 13 : 0)));
    // Stored dimensions depend on the transpose flags.
    const std::int64_t lda = ta ? m : k;
    const std::int64_t ldb = tb ? k : n;
    const auto a = random_matrix(ta ? k : m, lda, rng);
    const auto b = random_matrix(tb ? n : k, ldb, rng);

    std::vector<float> c_ref(static_cast<std::size_t>(m * n), 0.5f);
    std::vector<float> c_fast = c_ref;

    gemm_reference(ta, tb, m, n, k, 1.3f, a.data(), lda, b.data(), ldb, 0.7f,
                   c_ref.data(), n);
    gemm(ta, tb, m, n, k, 1.3f, a.data(), lda, b.data(), ldb, 0.7f,
         c_fast.data(), n);
    expect_close(c_ref, c_fast);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmParamTest,
    ::testing::Values(GemmCase{1, 1, 1, false, false},
                      GemmCase{3, 5, 7, false, false},
                      GemmCase{3, 5, 7, true, false},
                      GemmCase{3, 5, 7, false, true},
                      GemmCase{3, 5, 7, true, true},
                      GemmCase{64, 64, 64, false, false},
                      GemmCase{65, 33, 17, false, false},
                      GemmCase{65, 33, 17, true, true},
                      GemmCase{128, 1, 256, false, false},
                      GemmCase{1, 128, 256, false, true},
                      GemmCase{200, 150, 300, false, false},
                      GemmCase{200, 150, 300, true, false}));

// Sequential FMA oracle: every C[i,j] is one std::fma chain over the
// (compacted) contraction indices in ascending order, started from the
// beta-scaled C, with alpha folded into the A term. This is the order
// both kernel paths promise, and what the sparse executor's bit-match
// with dense rests on.
void gemm_fma_oracle(bool ta, bool tb, std::int64_t m, std::int64_t n,
                     const std::vector<std::int64_t>& rows, float alpha,
                     const float* a, std::int64_t lda, const float* b,
                     std::int64_t ldb, float beta, float* c,
                     std::int64_t ldc) {
    for (std::int64_t i = 0; i < m; ++i) {
        for (std::int64_t j = 0; j < n; ++j) {
            float acc = c[i * ldc + j];
            if (beta == 0.0f) {
                acc = 0.0f;
            } else if (beta != 1.0f) {
                acc *= beta;
            }
            for (const std::int64_t p : rows) {
                const float av = ta ? a[p * lda + i] : a[i * lda + p];
                const float bv = tb ? b[j * ldb + p] : b[p * ldb + j];
                acc = std::fma(alpha * av, bv, acc);
            }
            c[i * ldc + j] = acc;
        }
    }
}

bool bits_equal(const std::vector<float>& a, const std::vector<float>& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// Bitwise equal, or both NaN (which NaN payload an FMA propagates is
// the hardware's choice, not part of the contract).
bool same_value(float a, float b) {
    return (std::isnan(a) && std::isnan(b)) ||
           std::memcmp(&a, &b, sizeof(float)) == 0;
}

// (m, trans_a, trans_b, compacted). Each case sweeps n = 1..17 — every
// narrow width below kGemmNarrowN plus the first two wide ones — over
// short contractions, and the 2x2-output conv width (n = 4) and the
// widest narrow one over a 3x3 conv across 128 channels (k = 1152); a
// compacted case runs both contraction_cases lists.
using NarrowCase = std::tuple<int, bool, bool, bool>;

class GemmNarrowTest : public ::testing::TestWithParam<NarrowCase> {};

TEST_P(GemmNarrowTest, BitMatchesSequentialFmaOracle) {
    const auto [m, ta, tb, compacted] = GetParam();
    for (const auto& [k, rows] :
         contraction_cases({1, 9, 300, 1152}, compacted)) {
        const auto row_count = static_cast<std::int64_t>(rows.size());
        Rng rng(static_cast<std::uint64_t>(m * 131 + k));
        const std::int64_t lda = ta ? m : k;
        const auto a = random_matrix(ta ? k : m, lda, rng);
        for (std::int64_t n = 1; n <= kGemmNarrowN + 1; ++n) {
            if (k > 300 && n != 4 && n != kGemmNarrowN - 1) {
                continue;
            }
            SCOPED_TRACE("m=" + std::to_string(m) + " n=" +
                         std::to_string(n) + " k=" + std::to_string(k));
            const std::int64_t ldb = tb ? k : n;
            const auto b = random_matrix(tb ? n : k, ldb, rng);
            // ldc > n so a kernel that writes past the row shows up.
            const std::int64_t ldc = n + 3;
            const auto c0 = random_matrix(m, ldc, rng);
            for (const float beta : {0.0f, 1.0f, 0.7f}) {
                if (beta != 0.0f && (n + k) % 2 == 0) {
                    continue;  // half the shapes also accumulate into C
                }
                std::vector<float> want = c0;
                std::vector<float> got = c0;
                gemm_fma_oracle(ta, tb, m, n, rows, 1.3f, a.data(), lda,
                                b.data(), ldb, beta, want.data(), ldc);
                if (compacted) {
                    gemm_rows(ta, tb, m, n, k, rows.data(), row_count, 1.3f,
                              a.data(), lda, b.data(), ldb, beta, got.data(),
                              ldc);
                } else {
                    gemm(ta, tb, m, n, k, 1.3f, a.data(), lda, b.data(), ldb,
                         beta, got.data(), ldc);
                }
                EXPECT_TRUE(bits_equal(want, got))
                    << "beta=" << beta << " rows=" << row_count;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmNarrowTest,
    ::testing::Combine(::testing::Values(1, 5, 8, 13, 32, 128),
                       ::testing::Bool(), ::testing::Bool(),
                       ::testing::Bool()));

// (trans_a, trans_b, compacted). The wide path's register tile covers 4
// rows by 16 columns of C; each case sweeps m = 1..9 (every row
// remainder of the tile, and a second panel), n over the 16-wide, 8-wide
// and scalar column tails (16, 17, 24, 25, 31, and 257 past sixteen
// whole strips), and k across the K-block edges (255, 256, 257) and a
// 3x3 conv over 128 channels (1152), a compacted case over both
// contraction_cases lists, each without and with two output-row lists.
// Every m reads the leading rows of one op(A) and one C, so one oracle
// run over kMaxM rows serves them all.
using WideCase = std::tuple<bool, bool, bool>;

class GemmWideTest : public ::testing::TestWithParam<WideCase> {};

TEST_P(GemmWideTest, BitMatchesSequentialFmaOracle) {
    const auto [ta, tb, compacted] = GetParam();
    constexpr std::int64_t kMaxM = 9;
    for (const auto& [k, rows] :
         contraction_cases({1, 9, 255, 256, 257, 1152}, compacted)) {
        const auto row_count = static_cast<std::int64_t>(rows.size());
        Rng rng(static_cast<std::uint64_t>(k * 7 + (ta ? 1 : 0) +
                                           (tb ? 2 : 0)));
        const std::int64_t lda = ta ? kMaxM : k;
        const auto a = random_matrix(ta ? k : kMaxM, lda, rng);
        for (const std::int64_t n : {16, 17, 24, 25, 31, 257}) {
            const std::int64_t ldb = tb ? k : n;
            const auto b = random_matrix(tb ? n : k, ldb, rng);
            // ldc > n so a kernel that writes past the row shows up.
            const std::int64_t ldc = n + 3;
            const auto c0 = random_matrix(kMaxM, ldc, rng);
            for (const float beta : {0.0f, 1.0f, 0.7f}) {
                std::vector<float> want_all = c0;
                gemm_fma_oracle(ta, tb, kMaxM, n, rows, 1.3f, a.data(), lda,
                                b.data(), ldb, beta, want_all.data(), ldc);
                for (std::int64_t m = 1; m <= kMaxM; ++m) {
                    SCOPED_TRACE("m=" + std::to_string(m) + " n=" +
                                 std::to_string(n) + " k=" +
                                 std::to_string(k) +
                                 " beta=" + std::to_string(beta));
                    const auto size = static_cast<std::size_t>(m * ldc);
                    const std::vector<float> want(want_all.begin(),
                                                  want_all.begin() + size);
                    std::vector<float> got(c0.begin(), c0.begin() + size);
                    if (compacted) {
                        gemm_rows(ta, tb, m, n, k, rows.data(), row_count,
                                  1.3f, a.data(), lda, b.data(), ldb, beta,
                                  got.data(), ldc);
                    } else {
                        gemm(ta, tb, m, n, k, 1.3f, a.data(), lda, b.data(),
                             ldb, beta, got.data(), ldc);
                    }
                    EXPECT_TRUE(bits_equal(want, got));
                    // With an output-row list the listed rows bit-match
                    // the full product and the others keep c0: every row
                    // but i % 3 == 1, and every row listed (m of them,
                    // so at m = 9 a whole panel and a partial one).
                    for (const bool gaps : {true, false}) {
                        std::vector<std::int64_t> out_rows;
                        std::vector<float> want_listed(c0.begin(),
                                                       c0.begin() + size);
                        for (std::int64_t i = 0; i < m; ++i) {
                            if (!gaps || i % 3 != 1) {
                                out_rows.push_back(i);
                                std::copy_n(want.begin() + i * ldc, ldc,
                                            want_listed.begin() + i * ldc);
                            }
                        }
                        std::vector<float> listed(c0.begin(),
                                                  c0.begin() + size);
                        gemm_rows(ta, tb, m, n, k,
                                  compacted ? rows.data() : nullptr,
                                  row_count, 1.3f, a.data(), lda, b.data(),
                                  ldb, beta, listed.data(), ldc, nullptr,
                                  out_rows.data(),
                                  static_cast<std::int64_t>(out_rows.size()));
                        EXPECT_TRUE(bits_equal(want_listed, listed))
                            << "output-row list of " << out_rows.size();
                    }
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Transposes, GemmWideTest,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Bool(),
                                            ::testing::Bool()));

TEST(Gemm, ZeroATermsMeetInfAndNanInB) {
    // No term is skipped: an exact-zero op(A) entry against +-inf or NaN
    // in op(B) contributes NaN, as the sequential oracle does, on the
    // wide tile (n = 20: one 16-wide tile and a scalar tail) and the
    // narrow one (n = 4), packed or not.
    constexpr float kInf = std::numeric_limits<float>::infinity();
    constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
    Rng rng(49);
    const std::int64_t m = 6;
    const std::int64_t k = 12;
    // Column 3 of op(A) is all zeros; columns 7 and 8 are zero in
    // alternate rows.
    auto a = random_matrix(m, k, rng);
    for (std::int64_t i = 0; i < m; ++i) {
        a[i * k + 3] = 0.0f;
        a[i * k + (i % 2 == 0 ? 7 : 8)] = 0.0f;
    }
    std::vector<std::int64_t> all;
    for (std::int64_t p = 0; p < k; ++p) {
        all.push_back(p);
    }
    for (const std::int64_t n : {4, 20}) {
        SCOPED_TRACE("n=" + std::to_string(n));
        auto b = random_matrix(k, n, rng);
        b[3 * n + 0] = kInf;
        b[3 * n + n - 1] = -kInf;
        b[7 * n + 1] = kNan;
        b[8 * n + 2] = kInf;
        std::vector<float> want(static_cast<std::size_t>(m * n), 0.0f);
        gemm_fma_oracle(false, false, m, n, all, 1.0f, a.data(), k, b.data(),
                        n, 0.0f, want.data(), n);
        std::vector<float> got(want.size(), 5.0f);
        gemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
             got.data(), n);
        std::vector<float> packed(
            static_cast<std::size_t>(gemm_pack_floats(m, k)));
        gemm_pack(false, m, k, nullptr, k, 1.0f, a.data(), k, packed.data());
        std::vector<float> got_packed(want.size(), 5.0f);
        gemm_packed(m, n, k, nullptr, k, packed.data(), b.data(), n, 0.0f,
                    got_packed.data(), n);
        for (std::size_t i = 0; i < want.size(); ++i) {
            EXPECT_TRUE(same_value(want[i], got[i]))
                << "gemm at " << i << ": want " << want[i] << ", got "
                << got[i];
            EXPECT_TRUE(same_value(want[i], got_packed[i]))
                << "gemm_packed at " << i << ": want " << want[i]
                << ", got " << got_packed[i];
        }
        EXPECT_TRUE(std::isnan(want[0]));  // 0 * inf reached row 0, col 0
    }
}

TEST(GemmPacked, PackedOnceBitMatchesGemmRows) {
    // The conv path packs its weights once and reuses them per sample;
    // that must be the same arithmetic as a plain gemm_rows call, with
    // and without a pool splitting the rows into bands, for narrow and
    // wide n (16-wide, 8-wide and scalar column tails). Contraction over
    // every second index and over a conv's runs of 9, 18 and 27; all 300
    // output rows, and a list of 225 (a partial last panel).
    Rng rng(45);
    const std::int64_t m = 300;
    const std::int64_t k = 288;
    const auto a = random_matrix(m, k, rng);
    std::vector<std::int64_t> every_second;
    for (std::int64_t r = 0; r < k; r += 2) {
        every_second.push_back(r);
    }
    std::vector<std::int64_t> out_list;
    for (std::int64_t i = 0; i < m; ++i) {
        if (i % 4 != 3) {
            out_list.push_back(i);
        }
    }
    ThreadPool pool(4);
    for (const std::vector<std::int64_t>& rows :
         {every_second, conv_live_rows(k)}) {
        const auto row_count = static_cast<std::int64_t>(rows.size());
        for (const bool listed : {false, true}) {
            const std::int64_t* out_rows = listed ? out_list.data() : nullptr;
            const std::int64_t out_count =
                listed ? static_cast<std::int64_t>(out_list.size()) : m;
            std::vector<float> packed(static_cast<std::size_t>(
                gemm_pack_floats(out_count, row_count)));
            gemm_pack(false, m, k, rows.data(), row_count, 1.0f, a.data(), k,
                      packed.data(), out_rows, out_count);
            for (const std::int64_t n : {1, 4, 15, 16, 25, 40, 257}) {
                const auto b = random_matrix(k, n, rng);
                std::vector<float> want(static_cast<std::size_t>(m * n),
                                        -1.0f);
                gemm_rows(false, false, m, n, k, rows.data(), row_count, 1.0f,
                          a.data(), k, b.data(), n, 0.0f, want.data(), n,
                          nullptr, out_rows, out_count);
                for (ThreadPool* p :
                     {static_cast<ThreadPool*>(nullptr), &pool}) {
                    std::vector<float> got(want.size(), -1.0f);
                    gemm_packed(m, n, k, rows.data(), row_count,
                                packed.data(), b.data(), n, 0.0f, got.data(),
                                n, p, out_rows, out_count);
                    EXPECT_TRUE(bits_equal(want, got))
                        << "n=" << n << " rows=" << row_count
                        << (listed ? " listed" : "")
                        << (p != nullptr ? " pooled" : "");
                }
            }
        }
    }
}

TEST(GemmPacked, EmptyLiveSetOnlyScalesC) {
    // A conv whose input channels are all dead contracts over nothing:
    // its live-row list is empty and may be a null pointer. The packed
    // entry points then leave beta * C, as gemm_rows does, on the narrow
    // and the wide tile.
    Rng rng(47);
    const std::int64_t m = 21;
    const std::int64_t k = 36;
    const auto a = random_matrix(m, k, rng);
    std::vector<float> packed(
        static_cast<std::size_t>(gemm_pack_floats(m, 0)) + 1);
    gemm_pack(false, m, k, nullptr, 0, 1.0f, a.data(), k, packed.data());
    for (const std::int64_t n : {4, 20}) {
        SCOPED_TRACE("n=" + std::to_string(n));
        const auto b = random_matrix(k, n, rng);
        const auto c0 = random_matrix(m, n, rng);
        std::vector<float> want = c0;
        for (float& v : want) {
            v *= 0.5f;
        }
        std::vector<float> got = c0;
        gemm_packed(m, n, k, nullptr, 0, packed.data(), b.data(), n, 0.5f,
                    got.data(), n);
        EXPECT_TRUE(bits_equal(want, got));
        got = c0;
        gemm_rows(false, false, m, n, k, nullptr, 0, 1.0f, a.data(), k,
                  b.data(), n, 0.5f, got.data(), n);
        EXPECT_TRUE(bits_equal(want, got));
    }
}

TEST(GemmRows, OutputRowListComputesListedRowsOnly) {
    // An output-row list reads only the listed rows of op(A) and writes
    // only the listed rows of C: each bit-matches the same row of the
    // full product, and every other row keeps its sentinel. Wide and
    // narrow n, both orientations of A, contraction over every odd
    // index and over a conv's runs, the pre-packed entry points, and a
    // pool splitting the list (101 rows, a partial last panel) into
    // bands.
    Rng rng(48);
    const std::int64_t m = 300;
    const std::int64_t k = 96;
    std::vector<std::int64_t> odd;
    for (std::int64_t r = 1; r < k; r += 2) {
        odd.push_back(r);
    }
    std::vector<std::int64_t> out_rows;
    for (std::int64_t i = 0; i < m; i += 3) {
        out_rows.push_back(i);
    }
    out_rows.push_back(m - 1);
    const auto oc = static_cast<std::int64_t>(out_rows.size());
    const auto expect_listed = [&](const std::vector<float>& full,
                                   const std::vector<float>& got,
                                   std::int64_t n, const std::string& what) {
        std::size_t q = 0;
        for (std::int64_t i = 0; i < m; ++i) {
            const bool listed = q < out_rows.size() && out_rows[q] == i;
            q += listed ? 1 : 0;
            for (std::int64_t j = 0; j < n; ++j) {
                const float want = listed ? full[i * n + j] : 7.0f;
                ASSERT_EQ(0, std::memcmp(&want, &got[i * n + j], sizeof(float)))
                    << what << " row " << i << " col " << j;
            }
        }
    };
    ThreadPool pool(4);
    for (const std::vector<std::int64_t>& rows : {odd, conv_live_rows(k)}) {
        const auto rc = static_cast<std::int64_t>(rows.size());
        for (const std::int64_t n : {4, 40}) {
            const auto b = random_matrix(k, n, rng);
            for (const bool ta : {false, true}) {
                const std::int64_t lda = ta ? m : k;
                const auto a = random_matrix(ta ? k : m, lda, rng);
                std::vector<float> full(static_cast<std::size_t>(m * n),
                                        0.0f);
                gemm_rows(ta, false, m, n, k, rows.data(), rc, 1.0f,
                          a.data(), lda, b.data(), n, 0.0f, full.data(), n);
                for (ThreadPool* p :
                     {static_cast<ThreadPool*>(nullptr), &pool}) {
                    const std::string what =
                        "n=" + std::to_string(n) + " rows=" +
                        std::to_string(rc) + (ta ? " trans_a" : "") +
                        (p != nullptr ? " pooled" : "");
                    std::vector<float> got(full.size(), 7.0f);
                    gemm_rows(ta, false, m, n, k, rows.data(), rc, 1.0f,
                              a.data(), lda, b.data(), n, 0.0f, got.data(), n,
                              p, out_rows.data(), oc);
                    expect_listed(full, got, n, what);
                    std::vector<float> packed(
                        static_cast<std::size_t>(gemm_pack_floats(oc, rc)));
                    gemm_pack(ta, m, k, rows.data(), rc, 1.0f, a.data(), lda,
                              packed.data(), out_rows.data(), oc);
                    std::fill(got.begin(), got.end(), 7.0f);
                    gemm_packed(m, n, k, rows.data(), rc, packed.data(),
                                b.data(), n, 0.0f, got.data(), n, p,
                                out_rows.data(), oc);
                    expect_listed(full, got, n, what + " packed");
                }
            }
        }
    }
}

TEST(GemmRows, RejectsUnsortedOutputRows) {
    const std::vector<float> a{1.0f, 2.0f, 3.0f, 4.0f};
    const std::vector<float> b{3.0f, 4.0f};
    std::vector<float> c{0.0f, 0.0f};
    for (const std::vector<std::int64_t>& bad :
         {std::vector<std::int64_t>{1, 0}, std::vector<std::int64_t>{0, 2}}) {
        EXPECT_THROW(gemm_rows(false, false, 2, 1, 2, nullptr, 2, 1.0f,
                               a.data(), 2, b.data(), 1, 0.0f, c.data(), 1,
                               nullptr, bad.data(), 2),
                     check_error);
    }
}

TEST(GemmNarrow, ThreadedBitMatchesSingle) {
    Rng rng(46);
    const std::int64_t m = 300;
    const std::int64_t n = 4;
    const std::int64_t k = 576;
    const auto a = random_matrix(m, k, rng);
    const auto b = random_matrix(k, n, rng);
    std::vector<float> c1(static_cast<std::size_t>(m * n), 0.0f);
    std::vector<float> c2 = c1;
    gemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
         c1.data(), n);
    ThreadPool pool(4);
    gemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
         c2.data(), n, &pool);
    EXPECT_TRUE(bits_equal(c1, c2));
}

TEST(GemmPacked, RejectsBadRows) {
    const std::vector<float> packed(16, 1.0f);
    const std::vector<float> b(32, 1.0f);
    std::vector<float> c(32, 0.0f);
    // A null row list means every row or none, so row_count must be k
    // or 0.
    EXPECT_THROW(gemm_packed(1, 2, 2, nullptr, 1, packed.data(), b.data(),
                             2, 0.0f, c.data(), 2),
                 check_error);
    const std::vector<std::int64_t> unsorted{1, 0};
    EXPECT_THROW(gemm_pack(false, 1, 2, unsorted.data(), 2, 1.0f, b.data(),
                           2, c.data()),
                 check_error);
}

TEST(Gemm, ThreadedMatchesSingle) {
    Rng rng(9);
    const int m = 300;
    const int n = 120;
    const int k = 80;
    const auto a = random_matrix(m, k, rng);
    const auto b = random_matrix(k, n, rng);
    std::vector<float> c1(static_cast<std::size_t>(m) * n, 0.0f);
    std::vector<float> c2 = c1;

    gemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
         c1.data(), n);
    ThreadPool pool(4);
    gemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
         c2.data(), n, &pool);
    expect_close(c1, c2, 1e-4f);
}

TEST(Gemm, BetaAccumulates) {
    const std::vector<float> a{1, 2, 3, 4};  // 2x2
    const std::vector<float> b{1, 0, 0, 1};  // identity
    std::vector<float> c{10, 10, 10, 10};
    gemm(false, false, 2, 2, 2, 1.0f, a.data(), 2, b.data(), 2, 1.0f, c.data(),
         2);
    EXPECT_FLOAT_EQ(c[0], 11.0f);
    EXPECT_FLOAT_EQ(c[3], 14.0f);
}

TEST(Gemm, ZeroSizeIsNoop) {
    std::vector<float> c{1.0f};
    const std::vector<float> a{1.0f};
    const std::vector<float> b{1.0f};
    gemm(false, false, 0, 1, 1, 1.0f, a.data(), 1, b.data(), 1, 0.0f, c.data(),
         1);
    EXPECT_FLOAT_EQ(c[0], 1.0f);
}

TEST(Gemm, RejectsNullOperands) {
    std::vector<float> c{0.0f};
    EXPECT_THROW(gemm(false, false, 1, 1, 1, 1.0f, nullptr, 1, nullptr, 1,
                      0.0f, c.data(), 1),
                 check_error);
}

TEST(GemmRows, MatchesCompactedReference) {
    Rng rng(41);
    const std::int64_t m = 37;
    const std::int64_t n = 53;
    const std::int64_t k = 300;
    const auto a = random_matrix(m, k, rng);
    const auto b = random_matrix(k, n, rng);
    // Every 3rd row live: strictly ascending, spans several K blocks.
    std::vector<std::int64_t> rows;
    for (std::int64_t r = 0; r < k; r += 3) {
        rows.push_back(r);
    }
    const auto rc = static_cast<std::int64_t>(rows.size());

    // Reference: gather the live columns of A / rows of B into dense
    // compacted operands and run the oracle triple loop.
    std::vector<float> a_c(static_cast<std::size_t>(m * rc));
    std::vector<float> b_c(static_cast<std::size_t>(rc * n));
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
    std::vector<float> c_ref(static_cast<std::size_t>(m * n), 0.25f);
    std::vector<float> c_rows = c_ref;
    gemm_reference(false, false, m, n, rc, 1.1f, a_c.data(), rc, b_c.data(),
                   n, 0.5f, c_ref.data(), n);
    gemm_rows(false, false, m, n, k, rows.data(), rc, 1.1f, a.data(), k,
              b.data(), n, 0.5f, c_rows.data(), n);
    expect_close(c_ref, c_rows);
}

TEST(GemmRows, BitMatchesDenseWhenSkippedRowsAreZero) {
    Rng rng(42);
    const std::int64_t m = 19;
    const std::int64_t n = 47;
    const std::int64_t k = 160;
    const auto a = random_matrix(m, k, rng);
    auto b = random_matrix(k, n, rng);
    std::vector<std::int64_t> rows;
    for (std::int64_t r = 0; r < k; ++r) {
        if (r % 5 == 2) {
            rows.push_back(r);
        } else {
            // Dead row: zero it so the dense contraction provably adds
            // nothing for it.
            std::fill(b.begin() + r * n, b.begin() + (r + 1) * n, 0.0f);
        }
    }
    std::vector<float> c_dense(static_cast<std::size_t>(m * n), -7.0f);
    std::vector<float> c_sparse = c_dense;
    gemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
         c_dense.data(), n);
    gemm_rows(false, false, m, n, k, rows.data(),
              static_cast<std::int64_t>(rows.size()), 1.0f, a.data(), k,
              b.data(), n, 0.0f, c_sparse.data(), n);
    // Bit-exact, not just close: the contract the sparse planned
    // executor relies on.
    EXPECT_EQ(0, std::memcmp(c_dense.data(), c_sparse.data(),
                             c_dense.size() * sizeof(float)));
}

TEST(GemmRows, TransBBitMatchesDenseWhenSkippedRowsAreZero) {
    Rng rng(43);
    const std::int64_t m = 7;
    const std::int64_t n = 33;
    const std::int64_t k = 96;
    // op(B) = stored-B^T, so op(B)'s row r is stored column r. Zeroing
    // op(A)'s dead columns instead is the masked-linear case: the dense
    // run adds their zero terms, which leave the finite accumulators
    // unchanged.
    auto a = random_matrix(m, k, rng);
    const auto b = random_matrix(n, k, rng);
    std::vector<std::int64_t> rows;
    for (std::int64_t r = 0; r < k; ++r) {
        if (r % 4 != 1) {
            rows.push_back(r);
        } else {
            for (std::int64_t i = 0; i < m; ++i) {
                a[i * k + r] = 0.0f;
            }
        }
    }
    std::vector<float> c_dense(static_cast<std::size_t>(m * n), 3.0f);
    std::vector<float> c_sparse = c_dense;
    gemm(false, true, m, n, k, 1.0f, a.data(), k, b.data(), k, 0.0f,
         c_dense.data(), n);
    gemm_rows(false, true, m, n, k, rows.data(),
              static_cast<std::int64_t>(rows.size()), 1.0f, a.data(), k,
              b.data(), k, 0.0f, c_sparse.data(), n);
    EXPECT_EQ(0, std::memcmp(c_dense.data(), c_sparse.data(),
                             c_dense.size() * sizeof(float)));
}

TEST(GemmRows, FullRowListBitMatchesDense) {
    Rng rng(44);
    const std::int64_t m = 65;
    const std::int64_t n = 40;
    const std::int64_t k = 70;
    const auto a = random_matrix(m, k, rng);
    const auto b = random_matrix(k, n, rng);
    std::vector<std::int64_t> rows(static_cast<std::size_t>(k));
    for (std::int64_t r = 0; r < k; ++r) {
        rows[static_cast<std::size_t>(r)] = r;
    }
    std::vector<float> c_dense(static_cast<std::size_t>(m * n), 0.0f);
    std::vector<float> c_sparse = c_dense;
    gemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
         c_dense.data(), n);
    gemm_rows(false, false, m, n, k, rows.data(), k, 1.0f, a.data(), k,
              b.data(), n, 0.0f, c_sparse.data(), n);
    EXPECT_EQ(0, std::memcmp(c_dense.data(), c_sparse.data(),
                             c_dense.size() * sizeof(float)));
}

TEST(GemmRows, EmptyRowListAppliesBeta) {
    const std::vector<float> a{1.0f, 2.0f};
    const std::vector<float> b{3.0f, 4.0f};
    std::vector<float> c{5.0f, 6.0f};
    gemm_rows(false, false, 1, 2, 2, nullptr, 0, 1.0f, a.data(), 2, b.data(),
              2, 0.5f, c.data(), 2);
    EXPECT_FLOAT_EQ(c[0], 2.5f);
    EXPECT_FLOAT_EQ(c[1], 3.0f);
}

TEST(GemmRows, RejectsUnsortedRows) {
    const std::vector<float> a{1.0f, 2.0f};
    const std::vector<float> b{3.0f, 4.0f};
    std::vector<float> c{0.0f, 0.0f};
    const std::vector<std::int64_t> bad{1, 0};
    EXPECT_THROW(gemm_rows(false, false, 1, 2, 2, bad.data(), 2, 1.0f,
                           a.data(), 2, b.data(), 2, 0.0f, c.data(), 2),
                 check_error);
    const std::vector<std::int64_t> oob{0, 2};
    EXPECT_THROW(gemm_rows(false, false, 1, 2, 2, oob.data(), 2, 1.0f,
                           a.data(), 2, b.data(), 2, 0.0f, c.data(), 2),
                 check_error);
}

TEST(Matmul, TensorInterface) {
    const Tensor a({2, 3}, std::vector<float>{1, 2, 3, 4, 5, 6});
    const Tensor b({3, 2}, std::vector<float>{7, 8, 9, 10, 11, 12});
    const Tensor c = matmul(a, b);
    EXPECT_EQ(c.shape(), Shape({2, 2}));
    EXPECT_FLOAT_EQ(c.at({0, 0}), 58.0f);
    EXPECT_FLOAT_EQ(c.at({1, 1}), 154.0f);
}

TEST(Matmul, RejectsBadShapes) {
    const Tensor a({2, 3});
    const Tensor b({2, 3});
    EXPECT_THROW(matmul(a, b), check_error);
    const Tensor v({3});
    EXPECT_THROW(matmul(a, v), check_error);
}

}  // namespace
}  // namespace mime
