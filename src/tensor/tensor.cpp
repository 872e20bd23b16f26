#include "tensor/tensor.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "common/check.h"

namespace mime {

namespace {

// Allocation probe (see tensor.h): every fresh storage block passes
// through make_storage so the counters can't drift from reality.
std::atomic<std::int64_t> g_storage_allocations{0};
std::atomic<std::int64_t> g_storage_bytes{0};

void count_storage(std::size_t elements) noexcept {
    g_storage_allocations.fetch_add(1, std::memory_order_relaxed);
    g_storage_bytes.fetch_add(
        static_cast<std::int64_t>(elements * sizeof(float)),
        std::memory_order_relaxed);
}

std::shared_ptr<std::vector<float>> make_storage(std::size_t elements,
                                                 float fill_value) {
    count_storage(elements);
    return std::make_shared<std::vector<float>>(elements, fill_value);
}

std::shared_ptr<std::vector<float>> make_storage(std::vector<float> values) {
    count_storage(values.size());
    return std::make_shared<std::vector<float>>(std::move(values));
}

}  // namespace

std::int64_t Tensor::storage_allocation_count() noexcept {
    return g_storage_allocations.load(std::memory_order_relaxed);
}

std::int64_t Tensor::storage_allocation_bytes() noexcept {
    return g_storage_bytes.load(std::memory_order_relaxed);
}

Tensor::Tensor() : shape_() { adopt(make_storage(1, 0.0f)); }

Tensor::Tensor(Shape shape) : shape_(std::move(shape)) {
    adopt(make_storage(static_cast<std::size_t>(shape_.numel()), 0.0f));
}

Tensor::Tensor(Shape shape, float fill_value) : shape_(std::move(shape)) {
    adopt(make_storage(static_cast<std::size_t>(shape_.numel()), fill_value));
}

Tensor::Tensor(Shape shape, std::vector<float> values)
    : shape_(std::move(shape)) {
    MIME_REQUIRE(static_cast<std::int64_t>(values.size()) == shape_.numel(),
                 "value count " + std::to_string(values.size()) +
                     " does not match shape " + shape_.to_string());
    adopt(make_storage(std::move(values)));
}

Tensor::Tensor(Shape shape, std::shared_ptr<std::vector<float>> storage,
               float* first) noexcept
    : shape_(std::move(shape)),
      data_(std::move(storage)),
      ptr_(first),
      numel_(shape_.numel()) {}

// Copies take only the source's own elements, so a copy of an offset
// view is exactly as large as the view.
Tensor::Tensor(const Tensor& other) : shape_(other.shape_) {
    adopt(make_storage(
        std::vector<float>(other.ptr_, other.ptr_ + other.numel_)));
}

Tensor& Tensor::operator=(const Tensor& other) {
    if (this != &other) {
        shape_ = other.shape_;
        adopt(make_storage(
            std::vector<float>(other.ptr_, other.ptr_ + other.numel_)));
    }
    return *this;
}

Tensor::Tensor(Tensor&& other) noexcept
    : shape_(std::move(other.shape_)),
      data_(std::move(other.data_)),
      ptr_(other.ptr_),
      numel_(other.numel_) {
    other.ptr_ = nullptr;
    other.numel_ = 0;
}

Tensor& Tensor::operator=(Tensor&& other) noexcept {
    if (this != &other) {
        shape_ = std::move(other.shape_);
        data_ = std::move(other.data_);
        ptr_ = other.ptr_;
        numel_ = other.numel_;
        other.ptr_ = nullptr;
        other.numel_ = 0;
    }
    return *this;
}

Tensor Tensor::zeros(Shape shape) { return Tensor(std::move(shape)); }

Tensor Tensor::ones(Shape shape) { return Tensor(std::move(shape), 1.0f); }

Tensor Tensor::full(Shape shape, float value) {
    return Tensor(std::move(shape), value);
}

Tensor Tensor::randn(Shape shape, Rng& rng, float mean, float stddev) {
    Tensor t(std::move(shape));
    for (std::int64_t i = 0; i < t.numel_; ++i) {
        t.ptr_[i] = static_cast<float>(rng.normal(mean, stddev));
    }
    return t;
}

Tensor Tensor::rand_uniform(Shape shape, Rng& rng, float lo, float hi) {
    Tensor t(std::move(shape));
    for (std::int64_t i = 0; i < t.numel_; ++i) {
        t.ptr_[i] = static_cast<float>(rng.uniform(lo, hi));
    }
    return t;
}

float& Tensor::at(std::int64_t flat_index) {
    MIME_REQUIRE(flat_index >= 0 && flat_index < numel(),
                 "flat index " + std::to_string(flat_index) +
                     " out of range for " + shape_.to_string());
    return ptr_[flat_index];
}

float Tensor::at(std::int64_t flat_index) const {
    return const_cast<Tensor*>(this)->at(flat_index);
}

float& Tensor::at(std::initializer_list<std::int64_t> indices) {
    MIME_REQUIRE(static_cast<std::int64_t>(indices.size()) == shape_.rank(),
                 "index count " + std::to_string(indices.size()) +
                     " does not match rank " + std::to_string(shape_.rank()));
    std::int64_t flat = 0;
    std::int64_t axis = 0;
    for (const auto idx : indices) {
        const std::int64_t extent = shape_.dim(axis);
        MIME_REQUIRE(idx >= 0 && idx < extent,
                     "index " + std::to_string(idx) + " out of range for axis " +
                         std::to_string(axis) + " with extent " +
                         std::to_string(extent));
        flat = flat * extent + idx;
        ++axis;
    }
    return ptr_[flat];
}

float Tensor::at(std::initializer_list<std::int64_t> indices) const {
    return const_cast<Tensor*>(this)->at(indices);
}

Tensor Tensor::clone() const { return *this; }

Tensor Tensor::alias() { return Tensor(shape_, data_, ptr_); }

Tensor Tensor::alias(Shape view_shape) {
    MIME_REQUIRE(view_shape.numel() == numel_,
                 "cannot alias " + shape_.to_string() + " as " +
                     view_shape.to_string());
    return Tensor(std::move(view_shape), data_, ptr_);
}

Tensor Tensor::alias(std::int64_t offset, Shape view_shape) {
    MIME_REQUIRE(offset >= 0 && offset <= numel_ &&
                     view_shape.numel() <= numel_ - offset,
                 "cannot alias " + view_shape.to_string() + " at offset " +
                     std::to_string(offset) + " of " + shape_.to_string());
    return Tensor(std::move(view_shape), data_, ptr_ + offset);
}

Tensor Tensor::reshaped(Shape new_shape) const {
    MIME_REQUIRE(new_shape.numel() == numel_,
                 "cannot reshape " + shape_.to_string() + " to " +
                     new_shape.to_string());
    return Tensor(std::move(new_shape),
                  std::vector<float>(ptr_, ptr_ + numel_));
}

void Tensor::fill(float value) { std::fill(ptr_, ptr_ + numel_, value); }

void Tensor::copy_from(const Tensor& source) {
    MIME_REQUIRE(shape_ == source.shape_,
                 "copy_from shape mismatch: " + shape_.to_string() + " vs " +
                     source.shape_.to_string());
    std::copy(source.ptr_, source.ptr_ + source.numel_, ptr_);
}

void Tensor::axpy(float alpha, const Tensor& x) {
    MIME_REQUIRE(x.shape() == shape_, "axpy shape mismatch: " +
                                          shape_.to_string() + " vs " +
                                          x.shape().to_string());
    const float* xs = x.data();
    float* ys = ptr_;
    for (std::int64_t i = 0; i < numel_; ++i) {
        ys[i] += alpha * xs[i];
    }
}

void Tensor::scale(float s) {
    float* ys = ptr_;
    for (std::int64_t i = 0; i < numel_; ++i) {
        ys[i] *= s;
    }
}

namespace {
void require_same_shape(const Tensor& a, const Tensor& b, const char* op) {
    MIME_REQUIRE(a.shape() == b.shape(),
                 std::string(op) + " shape mismatch: " + a.shape().to_string() +
                     " vs " + b.shape().to_string());
}
}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
    require_same_shape(a, b, "add");
    Tensor c(a.shape());
    for (std::int64_t i = 0; i < a.numel(); ++i) {
        c[i] = a[i] + b[i];
    }
    return c;
}

Tensor sub(const Tensor& a, const Tensor& b) {
    require_same_shape(a, b, "sub");
    Tensor c(a.shape());
    for (std::int64_t i = 0; i < a.numel(); ++i) {
        c[i] = a[i] - b[i];
    }
    return c;
}

Tensor mul(const Tensor& a, const Tensor& b) {
    require_same_shape(a, b, "mul");
    Tensor c(a.shape());
    for (std::int64_t i = 0; i < a.numel(); ++i) {
        c[i] = a[i] * b[i];
    }
    return c;
}

Tensor mul(const Tensor& a, float s) {
    Tensor c = a;
    c.scale(s);
    return c;
}

void add_inplace(Tensor& a, const Tensor& b) {
    require_same_shape(a, b, "add_inplace");
    for (std::int64_t i = 0; i < a.numel(); ++i) {
        a[i] += b[i];
    }
}

void sub_inplace(Tensor& a, const Tensor& b) {
    require_same_shape(a, b, "sub_inplace");
    for (std::int64_t i = 0; i < a.numel(); ++i) {
        a[i] -= b[i];
    }
}

void mul_inplace(Tensor& a, const Tensor& b) {
    require_same_shape(a, b, "mul_inplace");
    for (std::int64_t i = 0; i < a.numel(); ++i) {
        a[i] *= b[i];
    }
}

float sum(const Tensor& t) {
    // Kahan summation: training statistics accumulate over millions of
    // elements and naive summation loses precision in float32.
    double acc = 0.0;
    for (std::int64_t i = 0; i < t.numel(); ++i) {
        acc += static_cast<double>(t[i]);
    }
    return static_cast<float>(acc);
}

float mean(const Tensor& t) {
    return sum(t) / static_cast<float>(t.numel());
}

float min_value(const Tensor& t) {
    float m = t[0];
    for (std::int64_t i = 1; i < t.numel(); ++i) {
        m = std::min(m, t[i]);
    }
    return m;
}

float max_value(const Tensor& t) {
    float m = t[0];
    for (std::int64_t i = 1; i < t.numel(); ++i) {
        m = std::max(m, t[i]);
    }
    return m;
}

std::int64_t argmax(const Tensor& t) {
    std::int64_t best = 0;
    for (std::int64_t i = 1; i < t.numel(); ++i) {
        if (t[i] > t[best]) {
            best = i;
        }
    }
    return best;
}

double zero_fraction(const Tensor& t) {
    std::int64_t zeros = 0;
    for (std::int64_t i = 0; i < t.numel(); ++i) {
        if (t[i] == 0.0f) {
            ++zeros;
        }
    }
    return static_cast<double>(zeros) / static_cast<double>(t.numel());
}

float abs_sum(const Tensor& t) {
    double acc = 0.0;
    for (std::int64_t i = 0; i < t.numel(); ++i) {
        acc += std::abs(static_cast<double>(t[i]));
    }
    return static_cast<float>(acc);
}

float l2_norm(const Tensor& t) {
    double acc = 0.0;
    for (std::int64_t i = 0; i < t.numel(); ++i) {
        const double v = t[i];
        acc += v * v;
    }
    return static_cast<float>(std::sqrt(acc));
}

}  // namespace mime
