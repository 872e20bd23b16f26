// Int8 general matrix multiplication, the compute kernel behind the
// quantized planned executor.
//
// C[M,N] (int32) = A[M,K] (int8) * B[K,N] (int8); C is overwritten.
// Operands are row-major with no transpose flags. The AVX2 kernel tiles
// C 4 rows by 16 columns; columns past the last full tile run a scalar
// tail. Orientation rule, as for the float gemm: a product with fewer
// than 16 output columns belongs on the other side, so callers put the
// output channels on N there. Linear runs [batch, in] x [in, out]
// (weights snapshotted transposed), and a conv with fewer than 16 output
// positions runs [positions, C*K*K] x [C*K*K, Cout] — the transposed
// column matrix against transposed weights — instead of its usual
// [Cout, C*K*K] x [C*K*K, positions]. Per-output-channel scales then
// sit on whichever side holds the channels, and the dequantize pass is
// one multiply per output element either way.
//
// All arithmetic is exact: int8*int8 products are at most 127^2 = 16129,
// so an int32 accumulator holds any contraction up to k ~ 2^31 / 16129
// without overflow (enforced by a checked bound). Exactness means the
// AVX2 kernel, the scalar fallback and the qgemm_reference oracle agree
// bit-for-bit regardless of accumulation order or operand orientation —
// the float kernels' FMA-chain invariant has no int8 counterpart to keep.
//
// `qgemm_rows` is the row-compacted variant composing with the
// ActiveSet live-row lists: it contracts over a caller-supplied strictly
// ascending index set only, skipping rows a threshold mask provably
// zeroed, and can compute a listed subset of the rows of C. Skipped rows
// of B may hold garbage.
#pragma once

#include <cstdint>

#include "common/thread_pool.h"

namespace mime {

/// Largest contraction depth the int32 accumulators provably hold:
/// floor((2^31 - 1) / 128^2), since the worst-case int8 product is
/// (-128)*(-128) = 16384. Both entry points require k <= this.
inline constexpr std::int64_t kQgemmMaxK = 131071;

/// C[M,N] = A[M,K] * B[K,N], int8 operands, int32 result (overwritten).
/// Row-major with leading dimensions lda/ldb/ldc. `pool` may be null;
/// when provided, work splits across rows of C.
void qgemm(std::int64_t m, std::int64_t n, std::int64_t k,
           const std::int8_t* a, std::int64_t lda, const std::int8_t* b,
           std::int64_t ldb, std::int32_t* c, std::int64_t ldc,
           ThreadPool* pool = nullptr);

/// Row-compacted variant: C[i,j] = sum_p A[i, rows[p]] * B[rows[p], j]
/// over the `row_count` indices in `rows` (strictly ascending within
/// [0, k); a null `rows` means all k when row_count is k, none when it
/// is 0). Skipped rows of B are never read. With int operands the
/// result equals the dense qgemm whenever every skipped row contributes
/// zero — exactly, not just bit-compatibly. A non-null `out_rows`
/// computes only the `out_count` rows of C it lists (strictly ascending
/// within [0, m)), reading only those rows of A; the other rows of C are
/// left untouched. A null `out_rows` computes all m rows.
void qgemm_rows(std::int64_t m, std::int64_t n, std::int64_t k,
                const std::int64_t* rows, std::int64_t row_count,
                const std::int8_t* a, std::int64_t lda, const std::int8_t* b,
                std::int64_t ldb, std::int32_t* c, std::int64_t ldc,
                ThreadPool* pool = nullptr,
                const std::int64_t* out_rows = nullptr,
                std::int64_t out_count = 0);

/// The microkernel variant this build selected at compile time
/// ("avx2-int8" or "scalar"); benches report it next to their numbers.
const char* qgemm_kernel_name();

/// Reference O(M*N*K) triple loop used by tests to validate the blocked
/// kernel (must match it bit-for-bit — integer math is exact).
void qgemm_reference(std::int64_t m, std::int64_t n, std::int64_t k,
                     const std::int8_t* a, std::int64_t lda,
                     const std::int8_t* b, std::int64_t ldb, std::int32_t* c,
                     std::int64_t ldc);

}  // namespace mime
