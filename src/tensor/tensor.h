// Dense float32 tensor with value semantics and contiguous row-major
// storage. This is the numeric substrate for the neural-network library;
// it deliberately avoids strided views so that every tensor's elements
// are one contiguous run of shape().numel() floats.
//
// Storage is refcounted internally, but copies stay deep — two tensors
// never share memory unless one was made with the explicit alias()
// escape hatch. Aliasing exists for two purposes: letting server
// replicas read one frozen W_parent without duplicating it (the paper's
// DRAM story applied to host RAM), and letting a network's planned
// forwards write their activations into one shared arena. An alias is
// either the whole tensor (at its shape or another of the same numel)
// or a contiguous run of its elements starting at an offset; every
// operation on an alias — copies, fill, copy_from, axpy, scale,
// reshaped — acts on that run only. There are still no strided views.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "tensor/shape.h"

namespace mime {

/// Contiguous row-major float tensor.
class Tensor {
public:
    /// Empty (rank-0, one element, value 0).
    Tensor();

    /// Zero-initialized tensor of the given shape.
    explicit Tensor(Shape shape);

    /// Tensor of the given shape filled with `fill_value`.
    Tensor(Shape shape, float fill_value);

    /// Adopts `values` as the storage; size must equal shape.numel().
    Tensor(Shape shape, std::vector<float> values);

    /// Copies are deep: the new tensor owns fresh storage even when the
    /// source is an alias. Moved-from tensors may only be destroyed or
    /// assigned to.
    Tensor(const Tensor& other);
    Tensor& operator=(const Tensor& other);
    Tensor(Tensor&& other) noexcept;
    Tensor& operator=(Tensor&& other) noexcept;
    ~Tensor() = default;

    // -- factories ---------------------------------------------------------

    static Tensor zeros(Shape shape);
    static Tensor ones(Shape shape);
    static Tensor full(Shape shape, float value);
    /// i.i.d. normal entries.
    static Tensor randn(Shape shape, Rng& rng, float mean = 0.0f,
                        float stddev = 1.0f);
    /// i.i.d. uniform entries in [lo, hi).
    static Tensor rand_uniform(Shape shape, Rng& rng, float lo, float hi);

    // -- observers ---------------------------------------------------------

    const Shape& shape() const noexcept { return shape_; }
    std::int64_t numel() const noexcept { return numel_; }
    float* data() noexcept { return ptr_; }
    const float* data() const noexcept { return ptr_; }

    /// Bounds-checked flat element access.
    float& at(std::int64_t flat_index);
    float at(std::int64_t flat_index) const;

    /// Bounds-checked multi-dimensional access (index count must equal
    /// rank).
    float& at(std::initializer_list<std::int64_t> indices);
    float at(std::initializer_list<std::int64_t> indices) const;

    /// Unchecked flat access (hot paths).
    float& operator[](std::int64_t flat_index) noexcept {
        return ptr_[static_cast<std::size_t>(flat_index)];
    }
    float operator[](std::int64_t flat_index) const noexcept {
        return ptr_[static_cast<std::size_t>(flat_index)];
    }

    // -- transforms --------------------------------------------------------

    /// Deep copy (copies are always explicit on hot paths; the copy
    /// constructor also exists for value semantics).
    Tensor clone() const;

    /// Explicit shared view of this tensor's storage, same shape. Writes
    /// through either tensor are visible to both; copies of either are
    /// deep again. Used to let server replicas read one frozen backbone
    /// concurrently — the caller owns the discipline that nobody writes.
    Tensor alias();

    /// Shared view at a different shape; numel must match. The planned
    /// executor uses this to make Flatten free: [N, C, H, W] and
    /// [N, C*H*W] handles onto one activation buffer. An alias of an
    /// offset view starts at that view's offset.
    Tensor alias(Shape view_shape);

    /// Shared view of the view_shape.numel() elements starting at flat
    /// element `offset` of this tensor; the run must lie inside this
    /// tensor. The planned executor carves each step's output out of
    /// the network's activation arena this way.
    Tensor alias(std::int64_t offset, Shape view_shape);

    /// True when both tensors share one storage block.
    bool aliases(const Tensor& other) const noexcept {
        return data_ != nullptr && data_ == other.data_;
    }

    /// Returns a tensor with the same data and a new shape; numel must
    /// match. Storage is copied (alias(Shape) is the sharing variant).
    Tensor reshaped(Shape new_shape) const;

    /// Sets every element to `value`.
    void fill(float value);

    /// Copies `source`'s elements into this tensor's existing storage;
    /// shapes must match. Never reallocates, which keeps hot-path swaps
    /// (e.g. installing a task's threshold set) O(bytes copied) with no
    /// allocator traffic.
    void copy_from(const Tensor& source);

    /// Applies `alpha * x + this` elementwise in place; shapes must match.
    void axpy(float alpha, const Tensor& x);

    /// Multiplies every element by `scale` in place.
    void scale(float scale);

    // -- allocation probe ---------------------------------------------------
    //
    // Process-wide count of heap storage blocks (and bytes) created by
    // tensors. The planned forward executor promises zero allocations
    // after warm-up; bench/forward_alloc and the ctest suite hold it to
    // that by diffing these counters around a batch. Relaxed atomics:
    // the probe is a debug/accounting hook, not a synchronization point.

    /// Storage blocks allocated since process start.
    static std::int64_t storage_allocation_count() noexcept;
    /// Total bytes of storage allocated since process start.
    static std::int64_t storage_allocation_bytes() noexcept;

private:
    /// A tensor over existing storage whose elements start at `first`.
    Tensor(Shape shape, std::shared_ptr<std::vector<float>> storage,
           float* first) noexcept;
    void adopt(std::shared_ptr<std::vector<float>> storage) noexcept {
        data_ = std::move(storage);
        ptr_ = data_ ? data_->data() : nullptr;
        numel_ = data_ ? static_cast<std::int64_t>(data_->size()) : 0;
    }

    Shape shape_;
    std::shared_ptr<std::vector<float>> data_;
    float* ptr_ = nullptr;     ///< first element (hot-path access)
    std::int64_t numel_ = 0;   ///< shape_.numel(); 0 once moved from
};

// -- elementwise free functions (same-shape operands, no broadcasting) ----

/// c = a + b
Tensor add(const Tensor& a, const Tensor& b);
/// c = a - b
Tensor sub(const Tensor& a, const Tensor& b);
/// c = a ⊙ b (Hadamard)
Tensor mul(const Tensor& a, const Tensor& b);
/// c = a * s
Tensor mul(const Tensor& a, float s);

/// a += b in place.
void add_inplace(Tensor& a, const Tensor& b);
/// a -= b in place.
void sub_inplace(Tensor& a, const Tensor& b);
/// a ⊙= b in place.
void mul_inplace(Tensor& a, const Tensor& b);

// -- reductions ------------------------------------------------------------

float sum(const Tensor& t);
float mean(const Tensor& t);
float min_value(const Tensor& t);
float max_value(const Tensor& t);
/// Flat index of the maximum element (first on ties).
std::int64_t argmax(const Tensor& t);
/// Fraction of elements equal to zero.
double zero_fraction(const Tensor& t);
/// Sum of |x| over all elements.
float abs_sum(const Tensor& t);
/// Frobenius / L2 norm.
float l2_norm(const Tensor& t);

}  // namespace mime
