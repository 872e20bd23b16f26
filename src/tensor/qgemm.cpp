#include "tensor/qgemm.h"

#include <algorithm>
#include <cstring>
#include <string>

#include "common/check.h"

#if defined(__AVX2__)
#include <immintrin.h>
#define MIME_QGEMM_AVX2 1
#endif

namespace mime {

namespace {

// Band granularity for the pool split (and the threshold below which a
// pool is not worth waking: quantized conv/linear GEMMs have tiny M).
constexpr std::int64_t kQBlockM = 64;

inline std::int64_t stored_row(const std::int64_t* rows, std::int64_t p) {
    return rows != nullptr ? rows[p] : p;
}

#if defined(MIME_QGEMM_AVX2)

// Packs two sign-extended int8 A values into one i32 lane pattern
// [a0 as low i16 | a1 as high i16] for vpmaddwd. Unsigned math keeps
// the shift well-defined under UBSan; the uint->int conversion is
// two's-complement by C++20.
inline std::int32_t a_pair_combo(std::int8_t a0, std::int8_t a1) {
    const auto lo = static_cast<std::uint32_t>(
                        static_cast<std::int32_t>(a0)) &
                    0xFFFFu;
    const auto hi = static_cast<std::uint32_t>(
                        static_cast<std::int32_t>(a1))
                    << 16;
    return static_cast<std::int32_t>(hi | lo);
}

// One register tile: R rows (R in 1..4) by 16 columns of C, contracting
// over the whole (possibly compacted) row list. The tile's row r is row
// stored_row(out_rows, i0 + r) of A and of C. B rows are widened to
// i16 and interleaved per k-pair in registers — vpmaddwd then computes
// a0*b[k0][j] + a1*b[k1][j] per i32 lane with no saturation (|operand|
// <= 127, so each pair sum is at most 2*127^2, exact in i32). The
// unpack puts columns in the order {0-3, 8-11} / {4-7, 12-15}; the
// permute at store time restores linear order.
template <int R>
inline void qtile16(const std::int8_t* a, std::int64_t lda,
                    const std::int8_t* b, std::int64_t ldb, std::int32_t* c,
                    std::int64_t ldc, std::int64_t i0, std::int64_t j0,
                    const std::int64_t* rows, std::int64_t row_count,
                    const std::int64_t* out_rows) {
    const std::int8_t* arows[R] = {};
    __m256i acc_lo[R];
    __m256i acc_hi[R];
    for (int r = 0; r < R; ++r) {
        arows[r] = a + stored_row(out_rows, i0 + r) * lda;
        acc_lo[r] = _mm256_setzero_si256();
        acc_hi[r] = _mm256_setzero_si256();
    }
    std::int64_t p = 0;
    for (; p + 2 <= row_count; p += 2) {
        const std::int64_t k0 = stored_row(rows, p);
        const std::int64_t k1 = stored_row(rows, p + 1);
        const __m256i w0 = _mm256_cvtepi8_epi16(_mm_loadu_si128(
            reinterpret_cast<const __m128i*>(b + k0 * ldb + j0)));
        const __m256i w1 = _mm256_cvtepi8_epi16(_mm_loadu_si128(
            reinterpret_cast<const __m128i*>(b + k1 * ldb + j0)));
        const __m256i blo = _mm256_unpacklo_epi16(w0, w1);
        const __m256i bhi = _mm256_unpackhi_epi16(w0, w1);
        for (int r = 0; r < R; ++r) {
            const __m256i av =
                _mm256_set1_epi32(a_pair_combo(arows[r][k0], arows[r][k1]));
            acc_lo[r] =
                _mm256_add_epi32(acc_lo[r], _mm256_madd_epi16(av, blo));
            acc_hi[r] =
                _mm256_add_epi32(acc_hi[r], _mm256_madd_epi16(av, bhi));
        }
    }
    if (p < row_count) {
        // Odd contraction tail: pair the last row with an implicit zero
        // row (a1 = 0 contributes nothing through vpmaddwd).
        const std::int64_t k0 = stored_row(rows, p);
        const __m256i w0 = _mm256_cvtepi8_epi16(_mm_loadu_si128(
            reinterpret_cast<const __m128i*>(b + k0 * ldb + j0)));
        const __m256i zero = _mm256_setzero_si256();
        const __m256i blo = _mm256_unpacklo_epi16(w0, zero);
        const __m256i bhi = _mm256_unpackhi_epi16(w0, zero);
        for (int r = 0; r < R; ++r) {
            const __m256i av =
                _mm256_set1_epi32(a_pair_combo(arows[r][k0], 0));
            acc_lo[r] =
                _mm256_add_epi32(acc_lo[r], _mm256_madd_epi16(av, blo));
            acc_hi[r] =
                _mm256_add_epi32(acc_hi[r], _mm256_madd_epi16(av, bhi));
        }
    }
    for (int r = 0; r < R; ++r) {
        std::int32_t* crow = c + stored_row(out_rows, i0 + r) * ldc + j0;
        _mm256_storeu_si256(
            reinterpret_cast<__m256i*>(crow),
            _mm256_permute2x128_si256(acc_lo[r], acc_hi[r], 0x20));
        _mm256_storeu_si256(
            reinterpret_cast<__m256i*>(crow + 8),
            _mm256_permute2x128_si256(acc_lo[r], acc_hi[r], 0x31));
    }
}

// Rows at positions [m0, m1) of the output-row list `out_rows`
// (identity when null), in both the AVX2 and the scalar kernel.
void qgemm_band(std::int64_t m0, std::int64_t m1, std::int64_t n,
                const std::int64_t* rows, std::int64_t row_count,
                const std::int8_t* a, std::int64_t lda, const std::int8_t* b,
                std::int64_t ldb, std::int32_t* c, std::int64_t ldc,
                const std::int64_t* out_rows) {
    const std::int64_t n16 = n - n % 16;
    for (std::int64_t i = m0; i < m1; i += 4) {
        const std::int64_t rows_n = std::min<std::int64_t>(4, m1 - i);
        for (std::int64_t j = 0; j < n16; j += 16) {
            switch (rows_n) {
                case 4:
                    qtile16<4>(a, lda, b, ldb, c, ldc, i, j, rows, row_count,
                               out_rows);
                    break;
                case 3:
                    qtile16<3>(a, lda, b, ldb, c, ldc, i, j, rows, row_count,
                               out_rows);
                    break;
                case 2:
                    qtile16<2>(a, lda, b, ldb, c, ldc, i, j, rows, row_count,
                               out_rows);
                    break;
                default:
                    qtile16<1>(a, lda, b, ldb, c, ldc, i, j, rows, row_count,
                               out_rows);
                    break;
            }
        }
        // Column tail: exact integer math makes any accumulation order
        // equivalent, so a plain scalar loop needs no order matching.
        for (std::int64_t r = 0; r < rows_n; ++r) {
            const std::int64_t row = stored_row(out_rows, i + r);
            const std::int8_t* arow = a + row * lda;
            std::int32_t* crow = c + row * ldc;
            for (std::int64_t j = n16; j < n; ++j) {
                std::int32_t acc = 0;
                for (std::int64_t p = 0; p < row_count; ++p) {
                    const std::int64_t k = stored_row(rows, p);
                    acc += static_cast<std::int32_t>(arow[k]) *
                           static_cast<std::int32_t>(b[k * ldb + j]);
                }
                crow[j] = acc;
            }
        }
    }
}

#else  // scalar fallback

void qgemm_band(std::int64_t m0, std::int64_t m1, std::int64_t n,
                const std::int64_t* rows, std::int64_t row_count,
                const std::int8_t* a, std::int64_t lda, const std::int8_t* b,
                std::int64_t ldb, std::int32_t* c, std::int64_t ldc,
                const std::int64_t* out_rows) {
    for (std::int64_t i = m0; i < m1; ++i) {
        const std::int64_t row = stored_row(out_rows, i);
        std::int32_t* crow = c + row * ldc;
        std::memset(crow, 0, static_cast<std::size_t>(n) * sizeof(*crow));
        const std::int8_t* arow = a + row * lda;
        for (std::int64_t p = 0; p < row_count; ++p) {
            const std::int64_t k = stored_row(rows, p);
            const auto av = static_cast<std::int32_t>(arow[k]);
            if (av == 0) {
                continue;
            }
            const std::int8_t* brow = b + k * ldb;
            for (std::int64_t j = 0; j < n; ++j) {
                crow[j] += av * static_cast<std::int32_t>(brow[j]);
            }
        }
    }
}

#endif

// `m` counts the computed rows: positions in `out_rows` when it is
// non-null, else rows of C.
void qgemm_dispatch(std::int64_t m, std::int64_t n, const std::int64_t* rows,
                    std::int64_t row_count, const std::int64_t* out_rows,
                    const std::int8_t* a, std::int64_t lda,
                    const std::int8_t* b, std::int64_t ldb, std::int32_t* c,
                    std::int64_t ldc, ThreadPool* pool) {
    if (pool == nullptr || pool->size() <= 1 || m < 2 * kQBlockM) {
        qgemm_band(0, m, n, rows, row_count, a, lda, b, ldb, c, ldc,
                   out_rows);
        return;
    }
    const std::int64_t bands =
        std::min<std::int64_t>(static_cast<std::int64_t>(pool->size()),
                               (m + kQBlockM - 1) / kQBlockM);
    const std::int64_t band_rows = (m + bands - 1) / bands;
    for (std::int64_t b0 = 0; b0 < m; b0 += band_rows) {
        const std::int64_t b1 = std::min(b0 + band_rows, m);
        pool->submit([=] {
            qgemm_band(b0, b1, n, rows, row_count, a, lda, b, ldb, c, ldc,
                       out_rows);
        });
    }
    pool->wait_idle();
}

void validate_common(std::int64_t m, std::int64_t n, std::int64_t k,
                     const std::int8_t* a, const std::int8_t* b,
                     const std::int32_t* c) {
    MIME_REQUIRE(m >= 0 && n >= 0 && k >= 0, "qgemm dimensions must be >= 0");
    MIME_REQUIRE(a != nullptr && b != nullptr && c != nullptr,
                 "qgemm operands must be non-null");
    MIME_REQUIRE(k <= kQgemmMaxK,
                 "qgemm contraction depth " + std::to_string(k) +
                     " could overflow int32 accumulators (max " +
                     std::to_string(kQgemmMaxK) + ")");
}

// Checks an index list: strictly ascending within [0, extent). A null
// list is the empty one when count is 0 and the identity when count is
// extent.
void validate_list(const char* fn, std::int64_t extent,
                   const std::int64_t* list, std::int64_t count) {
    MIME_REQUIRE(count >= 0 && count <= extent,
                 std::string(fn) + " count must be in [0, extent]");
    MIME_REQUIRE(list != nullptr || count == 0 || count == extent,
                 std::string(fn) + " without a list covers all or none");
    for (std::int64_t p = 0; list != nullptr && p < count; ++p) {
        MIME_REQUIRE(list[p] >= 0 && list[p] < extent &&
                         (p == 0 || list[p] > list[p - 1]),
                     std::string(fn) +
                         " indices must be strictly ascending within "
                         "[0, extent)");
    }
}

}  // namespace

void qgemm(std::int64_t m, std::int64_t n, std::int64_t k,
           const std::int8_t* a, std::int64_t lda, const std::int8_t* b,
           std::int64_t ldb, std::int32_t* c, std::int64_t ldc,
           ThreadPool* pool) {
    validate_common(m, n, k, a, b, c);
    if (m == 0 || n == 0) {
        return;
    }
    qgemm_dispatch(m, n, /*rows=*/nullptr, k, /*out_rows=*/nullptr, a, lda, b,
                   ldb, c, ldc, pool);
}

void qgemm_rows(std::int64_t m, std::int64_t n, std::int64_t k,
                const std::int64_t* rows, std::int64_t row_count,
                const std::int8_t* a, std::int64_t lda, const std::int8_t* b,
                std::int64_t ldb, std::int32_t* c, std::int64_t ldc,
                ThreadPool* pool, const std::int64_t* out_rows,
                std::int64_t out_count) {
    validate_common(m, n, k, a, b, c);
    validate_list("qgemm_rows", k, rows, row_count);
    std::int64_t computed = m;
    if (out_rows != nullptr) {
        validate_list("qgemm_rows out_rows", m, out_rows, out_count);
        computed = out_count;
    }
    if (computed == 0 || n == 0) {
        return;
    }
    // An empty live set writes C = 0 (the contraction over nothing),
    // matching the dense kernel against an all-zero operand.
    qgemm_dispatch(computed, n, rows, row_count, out_rows, a, lda, b, ldb, c,
                   ldc, pool);
}

const char* qgemm_kernel_name() {
#if defined(MIME_QGEMM_AVX2)
    return "avx2-int8";
#else
    return "scalar";
#endif
}

void qgemm_reference(std::int64_t m, std::int64_t n, std::int64_t k,
                     const std::int8_t* a, std::int64_t lda,
                     const std::int8_t* b, std::int64_t ldb, std::int32_t* c,
                     std::int64_t ldc) {
    for (std::int64_t i = 0; i < m; ++i) {
        for (std::int64_t j = 0; j < n; ++j) {
            std::int64_t acc = 0;
            for (std::int64_t p = 0; p < k; ++p) {
                acc += static_cast<std::int64_t>(a[i * lda + p]) *
                       static_cast<std::int64_t>(b[p * ldb + j]);
            }
            c[i * ldc + j] = static_cast<std::int32_t>(acc);
        }
    }
}

}  // namespace mime
