// General matrix multiplication, the compute kernel behind Linear and
// (via im2col) Conv2d layers.
//
// The blocked kernel carries SIMD register tiles selected at compile
// time (AVX2+FMA when the translation unit is built with those ISA flags
// — see MIME_ENABLE_SIMD in CMakeLists.txt — scalar otherwise); the
// `gemm_reference` triple loop stays as the oracle tests validate
// against. `gemm_rows` is the row-compacted entry point behind MIME's
// sparse planned executor: it contracts over a caller-supplied live-row
// index set only, skipping the multiply-accumulates of rows a threshold
// mask provably zeroed, and can compute a caller-supplied subset of the
// rows of C (the output channels a downstream mask keeps), reading only
// those rows of op(A).
//
// Packed panels: every entry point reads op(A) alpha-scaled in 8-row,
// p-major panels. gemm / gemm_rows pack them per cache block into
// thread-local scratch; gemm_pack / gemm_packed let a caller that runs
// many products against one op(A) (a conv layer, once per sample) pack
// it once and share the pack across calls and pool bands. With AVX2, a
// whole 8-row panel of a non-transposed op(A) is written by 8x8
// transposes (8 row loads, 24 shuffles and 8 stores per block) along
// each run of consecutive contraction indices — the identity list is one
// run, and a conv's live list is runs of K*K — with the run's last
// terms, partial panels and a transposed op(A) packed element by
// element. Either way each panel entry is the one product
// alpha * op(A)[i, p], so the panel bytes do not depend on the path.
//
// Orientation: with n >= kGemmNarrowN output columns, a register tile of
// 4 rows by 16 columns of C vectorizes across the columns (with 3-, 2-
// and 1-row variants, an 8-wide and a scalar column tail); each term is
// 2 op(B) loads, 4 panel broadcasts and 8 FMAs. A narrower C (a conv
// whose output has fewer than 16 spatial positions, a 10-class
// classifier) vectorizes across the rows of C — the output channels —
// instead, one panel load per eight rows. The tile follows from n alone;
// there is no option.
//
// FMA-chain invariant: on both tiles each output element is a single
// fused-multiply-add chain over the contracted indices in ascending
// order, started from beta * C (or 0 when beta == 0), each term being
// (alpha * op(A)[i,p]) * op(B)[p,j]. No term is skipped, so this holds
// for every operand, NaN and inf included. Results are therefore
// independent of the tile, the blocking and the thread count, and a
// row-compacted product bit-matches the dense one whenever the skipped
// terms are zeros. tests/gemm_test.cpp checks it bit for bit against a
// sequential std::fma loop.
#pragma once

#include <cstdint>

#include "common/thread_pool.h"
#include "tensor/tensor.h"

namespace mime {

/// Output-column count below which every entry point vectorizes across
/// the rows of C (output channels) instead of its columns.
inline constexpr std::int64_t kGemmNarrowN = 16;

/// C[M,N] = alpha * op(A)[M,K] * op(B)[K,N] + beta * C[M,N]
///
/// Row-major storage with leading dimensions lda/ldb/ldc (the stride
/// between consecutive rows of the *stored* matrix, i.e. before any
/// transpose). `pool` may be null for single-threaded execution; when
/// provided, work is split across rows of C.
void gemm(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
          std::int64_t k, float alpha, const float* a, std::int64_t lda,
          const float* b, std::int64_t ldb, float beta, float* c,
          std::int64_t ldc, ThreadPool* pool = nullptr);

/// Row-compacted GEMM: contracts over the `row_count` indices in `rows`
/// only, i.e.
///   C[i,j] = alpha * sum_p op(A)[i, rows[p]] * op(B)[rows[p], j]
///            + beta * C[i,j].
///
/// `rows` must be strictly ascending indices into [0, k) where k is the
/// full contraction extent of the dense problem (used for validation
/// only — the skipped rows are never touched, so the dead rows of a
/// caller's B buffer may hold garbage). A null `rows` contracts all k
/// rows when row_count is k, and none when it is 0. With beta == 0 the
/// result bit-matches the dense gemm() whenever every skipped row
/// contributes exactly zero (op(B) row all zeros, or op(A) column all
/// zeros, with finite factors on the other side): each output element's
/// FMA chain visits the surviving terms in the same order, and a zero
/// term never perturbs an accumulator that started from +0.
///
/// Output rows: when `out_rows` is non-null, only the `out_count` rows
/// of C it lists (strictly ascending within [0, m)) are computed, each
/// from the same row of op(A); the other rows of C, and of op(A), are
/// never touched. Rows of C never mix, so every listed row bit-matches
/// the same row of the full product. A null `out_rows` computes all m
/// rows (out_count is then ignored).
void gemm_rows(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
               std::int64_t k, const std::int64_t* rows,
               std::int64_t row_count, float alpha, const float* a,
               std::int64_t lda, const float* b, std::int64_t ldb, float beta,
               float* c, std::int64_t ldc, ThreadPool* pool = nullptr,
               const std::int64_t* out_rows = nullptr,
               std::int64_t out_count = 0);

/// GEMM with op(A) packed once and reused across calls. A conv layer
/// runs one GEMM per sample against the same weight matrix, so it packs
/// the weights once per layer call instead of once per sample.
///
/// Floats gemm_pack writes for an m-row op(A) contracted over
/// `row_count` indices (m rounded up to whole 8-row panels). With an
/// output-row list, pass its count as m.
std::int64_t gemm_pack_floats(std::int64_t m, std::int64_t row_count);

/// Packs alpha * op(A) ([m, k] after the optional transpose) into
/// `packed` (gemm_pack_floats(m, row_count) floats), contracted over
/// `rows` as gemm_rows does. A null `rows` contracts all k rows when
/// row_count is k, and none (like gemm_rows) when it is 0. A non-null
/// `out_rows` packs only the `out_count` rows of op(A) it lists
/// (gemm_pack_floats(out_count, row_count) floats).
void gemm_pack(bool trans_a, std::int64_t m, std::int64_t k,
               const std::int64_t* rows, std::int64_t row_count, float alpha,
               const float* a, std::int64_t lda, float* packed,
               const std::int64_t* out_rows = nullptr,
               std::int64_t out_count = 0);

/// C[M,N] = packed * B[K,N] + beta * C, B stored row-major without
/// transpose, `rows` / `row_count` and `out_rows` / `out_count` as given
/// to the pack (the listed rows of C are written, the rest left
/// untouched, as in gemm_rows). Bit-identical to gemm_rows (or gemm, for
/// the dense null lists) on the same operands: both run the same tiles
/// on the same panels, and their per-K-block accumulator round trips
/// through C are exact. A pool splits the rows of C into bands that all
/// read the one pack.
void gemm_packed(std::int64_t m, std::int64_t n, std::int64_t k,
                 const std::int64_t* rows, std::int64_t row_count,
                 const float* packed, const float* b, std::int64_t ldb,
                 float beta, float* c, std::int64_t ldc,
                 ThreadPool* pool = nullptr,
                 const std::int64_t* out_rows = nullptr,
                 std::int64_t out_count = 0);

/// The kernel variant this build selected at compile time
/// ("avx2+fma" or "scalar"); benches report it next to their numbers.
const char* gemm_kernel_name();

/// Tensor-level 2-D matmul: returns A[M,K] * B[K,N]. Both operands must be
/// rank-2.
Tensor matmul(const Tensor& a, const Tensor& b, ThreadPool* pool = nullptr);

/// Reference O(M*N*K) triple loop used by tests to validate the blocked
/// kernel.
void gemm_reference(bool trans_a, bool trans_b, std::int64_t m,
                    std::int64_t n, std::int64_t k, float alpha,
                    const float* a, std::int64_t lda, const float* b,
                    std::int64_t ldb, float beta, float* c, std::int64_t ldc);

}  // namespace mime
