#include "tensor/gemm.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/check.h"

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#define MIME_GEMM_AVX2 1
#endif

namespace mime {

namespace {

// Cache-blocking parameters chosen for float32 on typical 32KiB L1 /
// 1MiB L2 caches; correctness does not depend on them.
constexpr std::int64_t kBlockM = 64;
constexpr std::int64_t kBlockK = 256;

inline std::int64_t stored_index(const std::int64_t* rows, std::int64_t p) {
    return rows != nullptr ? rows[p] : p;
}

// Packing scratch lives per thread so a pool-banded gemm never shares
// (or repeatedly reallocates) pack buffers; capacity is retained across
// calls, so a steady caller pays no heap allocation.
thread_local std::vector<float> tl_a_pack;
thread_local std::vector<float> tl_b_pack;

// C[m0:m1, 0:n) *= beta, with beta == 0 overwriting (so NaN garbage in
// an uninitialized C never survives). m0 and m1 are positions in the
// output-row list `out_rows` (identity when null), as in every band
// function below.
void scale_rows(float beta, float* c, std::int64_t ldc,
                const std::int64_t* out_rows, std::int64_t m0,
                std::int64_t m1, std::int64_t n) {
    for (std::int64_t i = m0; i < m1; ++i) {
        float* crow = c + stored_index(out_rows, i) * ldc;
        if (beta == 0.0f) {
            std::fill(crow, crow + n, 0.0f);
        } else if (beta != 1.0f) {
            for (std::int64_t j = 0; j < n; ++j) {
                crow[j] *= beta;
            }
        }
    }
}

// -- packed panels ---------------------------------------------------------
// Both tiles read op(A) packed alpha-scaled into panels of kPanelRows
// rows stored p-major: panel[p * kPanelRows + r] = alpha * op(A)[i0 + r,
// stored p]. One load then yields the same contraction term for eight
// output rows (the narrow tile), and consecutive broadcasts walk one
// 32-byte group per term (the wide tile). Each output element is one
// FMA chain over ascending p, started from the beta-scaled C, on either
// tile: a tile stores its accumulators to C between K-blocks and
// reloads them, which is exact and keeps the chain, so the result does
// not depend on the tile, the blocking or the band split.
constexpr std::int64_t kPanelRows = 8;

std::int64_t pack_floats(std::int64_t m, std::int64_t row_count) {
    return (m + kPanelRows - 1) / kPanelRows * kPanelRows * row_count;
}

#if defined(MIME_GEMM_AVX2)
// Writes dst[j * kPanelRows + r] = alpha * src[r][col + j] for r, j < 8:
// eight row loads, an 8x8 transpose (8 unpacks, 8 shuffles and 8 lane
// permutes), and one multiply and store per contraction term. The
// multiply is the scalar pack's, so the panel bytes are the same.
inline void pack_block(const float* const* src, std::int64_t col,
                       __m256 alpha, float* dst) {
    __m256 r[kPanelRows];
    for (int i = 0; i < kPanelRows; ++i) {
        r[i] = _mm256_loadu_ps(src[i] + col);
    }
    __m256 t[kPanelRows];
    for (int i = 0; i < kPanelRows; i += 2) {
        t[i] = _mm256_unpacklo_ps(r[i], r[i + 1]);
        t[i + 1] = _mm256_unpackhi_ps(r[i], r[i + 1]);
    }
    // q[i] holds rows 0-3 (i < 4) or 4-7 of contraction terms i % 4 and
    // i % 4 + 4, one per 128-bit lane.
    __m256 q[kPanelRows];
    for (int i = 0; i < kPanelRows; i += 4) {
        q[i] = _mm256_shuffle_ps(t[i], t[i + 2], _MM_SHUFFLE(1, 0, 1, 0));
        q[i + 1] = _mm256_shuffle_ps(t[i], t[i + 2], _MM_SHUFFLE(3, 2, 3, 2));
        q[i + 2] =
            _mm256_shuffle_ps(t[i + 1], t[i + 3], _MM_SHUFFLE(1, 0, 1, 0));
        q[i + 3] =
            _mm256_shuffle_ps(t[i + 1], t[i + 3], _MM_SHUFFLE(3, 2, 3, 2));
    }
    for (int j = 0; j < 4; ++j) {
        _mm256_storeu_ps(
            dst + j * kPanelRows,
            _mm256_mul_ps(alpha, _mm256_permute2f128_ps(q[j], q[j + 4], 0x20)));
        _mm256_storeu_ps(
            dst + (j + 4) * kPanelRows,
            _mm256_mul_ps(alpha, _mm256_permute2f128_ps(q[j], q[j + 4], 0x31)));
    }
}

// Packs one full panel of a non-transposed op(A), whose eight rows start
// at src[r]. Walks the contraction list in runs of consecutive stored
// indices (a conv's live list is runs of K*K, the identity list one
// run), transposing 8x8 blocks along each run; a run's last < 8 terms
// take the scalar loop.
void pack_full_panel(const float* const* src, const std::int64_t* rows,
                     std::int64_t row_count, float alpha, float* dst) {
    const __m256 alpha_v = _mm256_set1_ps(alpha);
    std::int64_t p = 0;
    while (p < row_count) {
        const std::int64_t first = stored_index(rows, p);
        std::int64_t run = rows != nullptr ? 1 : row_count - p;
        while (p + run < row_count && rows[p + run] == first + run) {
            ++run;
        }
        std::int64_t q = 0;
        for (; q + 8 <= run; q += 8) {
            pack_block(src, first + q, alpha_v, dst + (p + q) * kPanelRows);
        }
        for (; q < run; ++q) {
            for (std::int64_t r = 0; r < kPanelRows; ++r) {
                dst[(p + q) * kPanelRows + r] = alpha * src[r][first + q];
            }
        }
        p += run;
    }
}
#endif

// Packs the rows of alpha * op(A) at positions [i0, i0 + m) of the
// output-row list (identity when null), contracted over the (possibly
// compacted) index list, into ceil(m / kPanelRows) panels. Rows past m
// are zero so every narrow tile runs full-width.
void pack_panels(bool trans_a, std::int64_t i0, std::int64_t m,
                 const std::int64_t* rows, std::int64_t row_count,
                 const std::int64_t* out_rows, float alpha, const float* a,
                 std::int64_t lda, float* packed) {
    for (std::int64_t r0 = 0; r0 < m; r0 += kPanelRows) {
        float* dst = packed + r0 * row_count;
        const std::int64_t live = std::min(kPanelRows, m - r0);
        if (live < kPanelRows) {
            std::fill(dst, dst + kPanelRows * row_count, 0.0f);
        }
        if (trans_a) {
            // op(A)'s column p is a run of the stored row.
            for (std::int64_t p = 0; p < row_count; ++p) {
                const float* src = a + stored_index(rows, p) * lda;
                for (std::int64_t r = 0; r < live; ++r) {
                    dst[p * kPanelRows + r] =
                        alpha * src[stored_index(out_rows, i0 + r0 + r)];
                }
            }
            continue;
        }
#if defined(MIME_GEMM_AVX2)
        if (live == kPanelRows) {
            const float* src[kPanelRows];
            for (std::int64_t r = 0; r < kPanelRows; ++r) {
                src[r] = a + stored_index(out_rows, i0 + r0 + r) * lda;
            }
            pack_full_panel(src, rows, row_count, alpha, dst);
            continue;
        }
#endif
        for (std::int64_t r = 0; r < live; ++r) {
            const float* src = a + stored_index(out_rows, i0 + r0 + r) * lda;
            for (std::int64_t p = 0; p < row_count; ++p) {
                dst[p * kPanelRows + r] = alpha * src[stored_index(rows, p)];
            }
        }
    }
}

#if defined(MIME_GEMM_AVX2)
// -- narrow tile (n < kGemmNarrowN) ---------------------------------------
// A conv whose output has 2x2 spatial positions is an [M, 4] product, too
// narrow for vectors across the columns of C, so the lanes run across
// its rows (output channels): NP panels (NP * 8 rows of C, `live_rows`
// of them real) by NC <= 4 columns, all held in registers across the
// whole contraction. Two panels by four columns is 8 accumulators fed by
// 2 panel loads and 4 broadcasts per term. `c` points at the tile's
// first column in row 0 of C, and the tile's row i is C row
// stored(out_rows, i0 + i); op(B)'s compacted row p is
// b + stored(p) * ldb.
template <int NP, int NC>
inline void narrow_tile(const float* panels, std::int64_t row_count,
                        const float* b, std::int64_t ldb,
                        const std::int64_t* rows, float* c, std::int64_t ldc,
                        const std::int64_t* out_rows, std::int64_t i0,
                        std::int64_t live_rows) {
    const std::int64_t panel_stride = kPanelRows * row_count;
    alignas(32) float lane[kPanelRows];
    float* crows[NP * kPanelRows] = {};
    for (std::int64_t i = 0; i < live_rows; ++i) {
        crows[i] = c + stored_index(out_rows, i0 + i) * ldc;
    }
    __m256 acc[NP][NC];
    for (int q = 0; q < NP; ++q) {
        for (int j = 0; j < NC; ++j) {
            for (std::int64_t r = 0; r < kPanelRows; ++r) {
                const std::int64_t i = q * kPanelRows + r;
                lane[r] = i < live_rows ? crows[i][j] : 0.0f;
            }
            acc[q][j] = _mm256_load_ps(lane);
        }
    }
    for (std::int64_t p = 0; p < row_count; ++p) {
        const float* brow = b + stored_index(rows, p) * ldb;
        __m256 av[NP];
        for (int q = 0; q < NP; ++q) {
            av[q] = _mm256_loadu_ps(panels + q * panel_stride +
                                    p * kPanelRows);
        }
        for (int j = 0; j < NC; ++j) {
            const __m256 bv = _mm256_broadcast_ss(brow + j);
            for (int q = 0; q < NP; ++q) {
                acc[q][j] = _mm256_fmadd_ps(av[q], bv, acc[q][j]);
            }
        }
    }
    for (int q = 0; q < NP; ++q) {
        for (int j = 0; j < NC; ++j) {
            _mm256_store_ps(lane, acc[q][j]);
            for (std::int64_t r = 0; r < kPanelRows; ++r) {
                const std::int64_t i = q * kPanelRows + r;
                if (i < live_rows) {
                    crows[i][j] = lane[r];
                }
            }
        }
    }
}

template <int NP>
void narrow_tile_cols(std::int64_t cols, const float* panels,
                      std::int64_t row_count, const float* b,
                      std::int64_t ldb, const std::int64_t* rows, float* c,
                      std::int64_t ldc, const std::int64_t* out_rows,
                      std::int64_t i0, std::int64_t live_rows) {
    switch (cols) {
        case 4:
            narrow_tile<NP, 4>(panels, row_count, b, ldb, rows, c, ldc,
                               out_rows, i0, live_rows);
            break;
        case 3:
            narrow_tile<NP, 3>(panels, row_count, b, ldb, rows, c, ldc,
                               out_rows, i0, live_rows);
            break;
        case 2:
            narrow_tile<NP, 2>(panels, row_count, b, ldb, rows, c, ldc,
                               out_rows, i0, live_rows);
            break;
        default:
            narrow_tile<NP, 1>(panels, row_count, b, ldb, rows, c, ldc,
                               out_rows, i0, live_rows);
            break;
    }
}

void narrow_band(const float* packed, std::int64_t i0, std::int64_t m,
                 std::int64_t n, std::int64_t row_count, const float* b,
                 std::int64_t ldb, const std::int64_t* rows, float* c,
                 std::int64_t ldc, const std::int64_t* out_rows) {
    for (std::int64_t i = 0; i < m; i += 2 * kPanelRows) {
        const std::int64_t live = std::min(2 * kPanelRows, m - i);
        const float* panels = packed + i * row_count;
        for (std::int64_t j = 0; j < n; j += 4) {
            const std::int64_t cols = std::min<std::int64_t>(4, n - j);
            if (live > kPanelRows) {
                narrow_tile_cols<2>(cols, panels, row_count, b + j, ldb, rows,
                                    c + j, ldc, out_rows, i0 + i, live);
            } else {
                narrow_tile_cols<1>(cols, panels, row_count, b + j, ldb, rows,
                                    c + j, ldc, out_rows, i0 + i, live);
            }
        }
    }
}

// -- wide tile (n >= kGemmNarrowN) ----------------------------------------
// MR <= 4 rows by 8 * NV columns of C held in registers over `depth`
// contraction steps: the 4 x 16 tile is 8 accumulators fed by 2 op(B)
// loads and 4 panel broadcasts per term. `a` points at the tile's first
// row in its panel at the block's first term (the rows of a term are
// kPanelRows apart), brows[p] at op(B)'s row for the block's term p, and
// crows[r] at C's row r.
template <int MR, int NV>
inline void wide_tile(const float* a, const float* const* brows,
                      std::int64_t depth, float* const* crows,
                      std::int64_t j) {
    __m256 acc[MR][NV];
    for (int r = 0; r < MR; ++r) {
        for (int v = 0; v < NV; ++v) {
            acc[r][v] = _mm256_loadu_ps(crows[r] + j + 8 * v);
        }
    }
    for (std::int64_t p = 0; p < depth; ++p) {
        const float* brow = brows[p] + j;
        __m256 bv[NV];
        for (int v = 0; v < NV; ++v) {
            bv[v] = _mm256_loadu_ps(brow + 8 * v);
        }
        const float* ap = a + p * kPanelRows;
        for (int r = 0; r < MR; ++r) {
            const __m256 av = _mm256_broadcast_ss(ap + r);
            for (int v = 0; v < NV; ++v) {
                acc[r][v] = _mm256_fmadd_ps(av, bv[v], acc[r][v]);
            }
        }
    }
    for (int r = 0; r < MR; ++r) {
        for (int v = 0; v < NV; ++v) {
            _mm256_storeu_ps(crows[r] + j + 8 * v, acc[r][v]);
        }
    }
}

// Columns [j0, j1) of MR rows, at most 16 of them: one 16-wide tile, or
// an 8-wide tile and then scalar columns carrying MR chains each.
template <int MR>
void wide_rows(const float* a, const float* const* brows, std::int64_t depth,
               float* const* crows, std::int64_t j0, std::int64_t j1) {
    std::int64_t j = j0;
    if (j + 16 <= j1) {
        wide_tile<MR, 2>(a, brows, depth, crows, j);
        return;
    }
    if (j + 8 <= j1) {
        wide_tile<MR, 1>(a, brows, depth, crows, j);
        j += 8;
    }
    for (; j < j1; ++j) {
        float acc[MR];
        for (int r = 0; r < MR; ++r) {
            acc[r] = crows[r][j];
        }
        for (std::int64_t p = 0; p < depth; ++p) {
            const float bv = brows[p][j];
            for (int r = 0; r < MR; ++r) {
                acc[r] = std::fma(a[p * kPanelRows + r], bv, acc[r]);
            }
        }
        for (int r = 0; r < MR; ++r) {
            crows[r][j] = acc[r];
        }
    }
}

// Per kBlockK block of terms, each 16-column strip of op(B) meets every
// 4-row strip of the panels in turn, so the strip's block stays in L1
// while the panels stream past it.
void wide_band(const float* packed, std::int64_t i0, std::int64_t m,
               std::int64_t n, std::int64_t row_count, const float* b,
               std::int64_t ldb, const std::int64_t* rows, float* c,
               std::int64_t ldc, const std::int64_t* out_rows) {
    const float* brows[kBlockK];
    for (std::int64_t kk = 0; kk < row_count; kk += kBlockK) {
        const std::int64_t depth = std::min(kBlockK, row_count - kk);
        for (std::int64_t p = 0; p < depth; ++p) {
            brows[p] = b + stored_index(rows, kk + p) * ldb;
        }
        for (std::int64_t j = 0; j < n; j += 16) {
            const std::int64_t j1 = std::min<std::int64_t>(j + 16, n);
            for (std::int64_t i = 0; i < m; i += 4) {
                const std::int64_t mr = std::min<std::int64_t>(4, m - i);
                float* crows[4] = {};
                for (std::int64_t r = 0; r < mr; ++r) {
                    crows[r] = c + stored_index(out_rows, i0 + i + r) * ldc;
                }
                const float* a = packed +
                                 (i - i % kPanelRows) * row_count +
                                 i % kPanelRows + kk * kPanelRows;
                switch (mr) {
                    case 4:
                        wide_rows<4>(a, brows, depth, crows, j, j1);
                        break;
                    case 3:
                        wide_rows<3>(a, brows, depth, crows, j, j1);
                        break;
                    case 2:
                        wide_rows<2>(a, brows, depth, crows, j, j1);
                        break;
                    default:
                        wide_rows<1>(a, brows, depth, crows, j, j1);
                        break;
                }
            }
        }
    }
}

// Rows at positions [i0, i0 + m) of C += packed panels * op(B), C
// already beta-scaled; `packed` holds those positions' panels over
// `row_count` terms. The tile follows from n alone.
void panel_band(const float* packed, std::int64_t i0, std::int64_t m,
                std::int64_t n, std::int64_t row_count, const float* b,
                std::int64_t ldb, const std::int64_t* rows, float* c,
                std::int64_t ldc, const std::int64_t* out_rows) {
    if (n < kGemmNarrowN) {
        narrow_band(packed, i0, m, n, row_count, b, ldb, rows, c, ldc,
                    out_rows);
    } else {
        wide_band(packed, i0, m, n, row_count, b, ldb, rows, c, ldc,
                  out_rows);
    }
}
#else
void panel_band(const float* packed, std::int64_t i0, std::int64_t m,
                std::int64_t n, std::int64_t row_count, const float* b,
                std::int64_t ldb, const std::int64_t* rows, float* c,
                std::int64_t ldc, const std::int64_t* out_rows) {
    for (std::int64_t i = 0; i < m; ++i) {
        const float* arow =
            packed + (i - i % kPanelRows) * row_count + i % kPanelRows;
        float* crow = c + stored_index(out_rows, i0 + i) * ldc;
        for (std::int64_t j = 0; j < n; ++j) {
            float acc = crow[j];
            for (std::int64_t p = 0; p < row_count; ++p) {
                acc = std::fma(arow[p * kPanelRows],
                               b[stored_index(rows, p) * ldb + j], acc);
            }
            crow[j] = acc;
        }
    }
}
#endif

// Computes the row band [m0, m1) of C without any threading: the beta
// prologue, then per kBlockK block of positions in the (possibly
// compacted) row list, op(A) packed into panels per kBlockM rows and run
// through panel_band against op(B) in place (a transposed op(B) packs
// into `depth` dense rows first). `out_rows` maps band positions to the
// rows of op(A) and C (identity when null).
void gemm_band(bool trans_a, bool trans_b, std::int64_t m0, std::int64_t m1,
               std::int64_t n, const std::int64_t* rows,
               std::int64_t row_count, const std::int64_t* out_rows,
               float alpha, const float* a, std::int64_t lda, const float* b,
               std::int64_t ldb, float beta, float* c, std::int64_t ldc) {
    scale_rows(beta, c, ldc, out_rows, m0, m1, n);

    std::vector<float>& a_pack = tl_a_pack;
    std::vector<float>& b_pack = tl_b_pack;
    for (std::int64_t kk = 0; kk < row_count; kk += kBlockK) {
        const std::int64_t depth = std::min(kBlockK, row_count - kk);
        // This block's contraction list: the next `depth` listed rows, or
        // the identity run starting at stored index kk.
        const std::int64_t* block_rows = rows != nullptr ? rows + kk : nullptr;
        const float* block_a =
            rows != nullptr ? a : (trans_a ? a + kk * lda : a + kk);
        const float* block_b = rows != nullptr ? b : b + kk * ldb;
        std::int64_t block_ldb = ldb;
        if (trans_b) {
            b_pack.resize(static_cast<std::size_t>(depth * n));
            for (std::int64_t p = 0; p < depth; ++p) {
                const std::int64_t row = stored_index(rows, kk + p);
                for (std::int64_t j = 0; j < n; ++j) {
                    b_pack[static_cast<std::size_t>(p * n + j)] =
                        b[j * ldb + row];
                }
            }
            block_b = b_pack.data();
            block_ldb = n;
        }
        const std::int64_t* b_rows = trans_b ? nullptr : block_rows;

        for (std::int64_t ii = m0; ii < m1; ii += kBlockM) {
            const std::int64_t rows_here = std::min(kBlockM, m1 - ii);
            a_pack.resize(
                static_cast<std::size_t>(pack_floats(rows_here, depth)));
            pack_panels(trans_a, ii, rows_here, block_rows, depth, out_rows,
                        alpha, block_a, lda, a_pack.data());
            panel_band(a_pack.data(), ii, rows_here, n, depth, block_b,
                       block_ldb, b_rows, c, ldc, out_rows);
        }
    }
}

// Runs fn(m0, m1) over row bands of [0, m): inline without a pool or
// for small m, else one band per worker. Band starts stay multiples of
// kPanelRows so a pre-packed operand splits on panel boundaries.
template <typename Fn>
void for_each_band(std::int64_t m, ThreadPool* pool, const Fn& fn) {
    if (pool == nullptr || pool->size() <= 1 || m < 2 * kBlockM) {
        fn(0, m);
        return;
    }
    const std::int64_t bands =
        std::min<std::int64_t>(static_cast<std::int64_t>(pool->size()),
                               (m + kBlockM - 1) / kBlockM);
    const std::int64_t band_rows =
        ((m + bands - 1) / bands + kPanelRows - 1) / kPanelRows * kPanelRows;
    for (std::int64_t b0 = 0; b0 < m; b0 += band_rows) {
        const std::int64_t b1 = std::min(b0 + band_rows, m);
        pool->submit([&fn, b0, b1] { fn(b0, b1); });
    }
    pool->wait_idle();
}

// `m` counts the computed rows: positions in `out_rows` when it is
// non-null, else rows of C.
void gemm_dispatch(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
                   const std::int64_t* rows, std::int64_t row_count,
                   const std::int64_t* out_rows, float alpha, const float* a,
                   std::int64_t lda, const float* b, std::int64_t ldb,
                   float beta, float* c, std::int64_t ldc, ThreadPool* pool) {
    for_each_band(m, pool, [=](std::int64_t m0, std::int64_t m1) {
        gemm_band(trans_a, trans_b, m0, m1, n, rows, row_count, out_rows,
                  alpha, a, lda, b, ldb, beta, c, ldc);
    });
}

// Checks a compacted index list: `rows` strictly ascending within
// [0, k). A null list is the empty one when row_count is 0 and the
// identity when row_count is k.
void validate_rows(const char* fn, std::int64_t k, const std::int64_t* rows,
                   std::int64_t row_count) {
    // Messages are built only on failure: this runs once per conv sample.
    MIME_REQUIRE(row_count >= 0 && row_count <= k,
                 std::string(fn) + " row_count must be in [0, k]");
    if (rows == nullptr) {
        MIME_REQUIRE(row_count == 0 || row_count == k,
                     std::string(fn) +
                         " without a row list contracts all k rows or none");
        return;
    }
    for (std::int64_t p = 0; p < row_count; ++p) {
        MIME_REQUIRE(rows[p] >= 0 && rows[p] < k &&
                         (p == 0 || rows[p] > rows[p - 1]),
                     std::string(fn) +
                         " row indices must be strictly ascending within "
                         "[0, k)");
    }
}

// Validates an output-row list against the m rows of C and returns how
// many rows the call computes.
std::int64_t computed_rows(const char* fn, std::int64_t m,
                           const std::int64_t* out_rows,
                           std::int64_t out_count) {
    if (out_rows == nullptr) {
        return m;
    }
    validate_rows(fn, m, out_rows, out_count);
    return out_count;
}

}  // namespace

void gemm(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
          std::int64_t k, float alpha, const float* a, std::int64_t lda,
          const float* b, std::int64_t ldb, float beta, float* c,
          std::int64_t ldc, ThreadPool* pool) {
    MIME_REQUIRE(m >= 0 && n >= 0 && k >= 0, "gemm dimensions must be >= 0");
    MIME_REQUIRE(a != nullptr && b != nullptr && c != nullptr,
                 "gemm operands must be non-null");
    if (m == 0 || n == 0) {
        return;
    }
    gemm_dispatch(trans_a, trans_b, m, n, /*rows=*/nullptr, k,
                  /*out_rows=*/nullptr, alpha, a, lda, b, ldb, beta, c, ldc,
                  pool);
}

void gemm_rows(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
               std::int64_t k, const std::int64_t* rows,
               std::int64_t row_count, float alpha, const float* a,
               std::int64_t lda, const float* b, std::int64_t ldb,
               float beta, float* c, std::int64_t ldc, ThreadPool* pool,
               const std::int64_t* out_rows, std::int64_t out_count) {
    MIME_REQUIRE(m >= 0 && n >= 0 && k >= 0,
                 "gemm_rows dimensions must be >= 0");
    MIME_REQUIRE(a != nullptr && b != nullptr && c != nullptr,
                 "gemm_rows operands must be non-null");
    validate_rows("gemm_rows", k, rows, row_count);
    const std::int64_t computed =
        computed_rows("gemm_rows", m, out_rows, out_count);
    if (computed == 0 || n == 0) {
        return;
    }
    // An empty live set still applies beta (C = beta * C), matching the
    // dense kernel contracted over an all-zero operand.
    gemm_dispatch(trans_a, trans_b, computed, n, rows, row_count, out_rows,
                  alpha, a, lda, b, ldb, beta, c, ldc, pool);
}

std::int64_t gemm_pack_floats(std::int64_t m, std::int64_t row_count) {
    MIME_REQUIRE(m >= 0 && row_count >= 0,
                 "gemm_pack_floats extents must be >= 0");
    return pack_floats(m, row_count);
}

void gemm_pack(bool trans_a, std::int64_t m, std::int64_t k,
               const std::int64_t* rows, std::int64_t row_count, float alpha,
               const float* a, std::int64_t lda, float* packed,
               const std::int64_t* out_rows, std::int64_t out_count) {
    MIME_REQUIRE(m >= 0 && k >= 0, "gemm_pack dimensions must be >= 0");
    MIME_REQUIRE(a != nullptr && packed != nullptr,
                 "gemm_pack operands must be non-null");
    validate_rows("gemm_pack", k, rows, row_count);
    pack_panels(trans_a, 0, computed_rows("gemm_pack", m, out_rows, out_count),
                rows, row_count, out_rows, alpha, a, lda, packed);
}

void gemm_packed(std::int64_t m, std::int64_t n, std::int64_t k,
                 const std::int64_t* rows, std::int64_t row_count,
                 const float* packed, const float* b, std::int64_t ldb,
                 float beta, float* c, std::int64_t ldc, ThreadPool* pool,
                 const std::int64_t* out_rows, std::int64_t out_count) {
    MIME_REQUIRE(m >= 0 && n >= 0 && k >= 0,
                 "gemm_packed dimensions must be >= 0");
    MIME_REQUIRE(packed != nullptr && b != nullptr && c != nullptr,
                 "gemm_packed operands must be non-null");
    validate_rows("gemm_packed", k, rows, row_count);
    const std::int64_t computed =
        computed_rows("gemm_packed", m, out_rows, out_count);
    if (computed == 0 || n == 0) {
        return;
    }
    for_each_band(computed, pool, [=](std::int64_t m0, std::int64_t m1) {
        scale_rows(beta, c, ldc, out_rows, m0, m1, n);
        panel_band(packed + m0 * row_count, m0, m1 - m0, n, row_count, b, ldb,
                   rows, c, ldc, out_rows);
    });
}

const char* gemm_kernel_name() {
#if defined(MIME_GEMM_AVX2)
    return "avx2+fma";
#else
    return "scalar";
#endif
}

Tensor matmul(const Tensor& a, const Tensor& b, ThreadPool* pool) {
    MIME_REQUIRE(a.shape().rank() == 2 && b.shape().rank() == 2,
                 "matmul requires rank-2 operands, got " +
                     a.shape().to_string() + " and " + b.shape().to_string());
    const std::int64_t m = a.shape().dim(0);
    const std::int64_t k = a.shape().dim(1);
    MIME_REQUIRE(b.shape().dim(0) == k,
                 "matmul inner dimensions differ: " + a.shape().to_string() +
                     " vs " + b.shape().to_string());
    const std::int64_t n = b.shape().dim(1);
    Tensor c({m, n});
    gemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f, c.data(),
         n, pool);
    return c;
}

void gemm_reference(bool trans_a, bool trans_b, std::int64_t m,
                    std::int64_t n, std::int64_t k, float alpha,
                    const float* a, std::int64_t lda, const float* b,
                    std::int64_t ldb, float beta, float* c,
                    std::int64_t ldc) {
    for (std::int64_t i = 0; i < m; ++i) {
        for (std::int64_t j = 0; j < n; ++j) {
            double acc = 0.0;
            for (std::int64_t p = 0; p < k; ++p) {
                const float av = trans_a ? a[p * lda + i] : a[i * lda + p];
                const float bv = trans_b ? b[j * ldb + p] : b[p * ldb + j];
                acc += static_cast<double>(av) * static_cast<double>(bv);
            }
            c[i * ldc + j] = static_cast<float>(
                alpha * acc + static_cast<double>(beta) * c[i * ldc + j]);
        }
    }
}

}  // namespace mime
