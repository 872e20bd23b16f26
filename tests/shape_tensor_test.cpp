// Tests for Shape, the Tensor value type, the allocation probe, and the
// Workspace bump arena behind the planned forward executor.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/check.h"
#include "tensor/tensor.h"
#include "tensor/workspace.h"

namespace mime {
namespace {

TEST(Shape, BasicProperties) {
    const Shape s{3, 32, 32};
    EXPECT_EQ(s.rank(), 3);
    EXPECT_EQ(s.numel(), 3 * 32 * 32);
    EXPECT_EQ(s.dim(0), 3);
    EXPECT_EQ(s.dim(-1), 32);
    EXPECT_EQ(s.to_string(), "[3, 32, 32]");
}

TEST(Shape, ScalarShape) {
    const Shape s;
    EXPECT_EQ(s.rank(), 0);
    EXPECT_EQ(s.numel(), 1);
}

TEST(Shape, RejectsNonPositiveExtent) {
    EXPECT_THROW(Shape({3, 0}), check_error);
    EXPECT_THROW(Shape({-1}), check_error);
}

TEST(Shape, EqualityAndAxisRange) {
    EXPECT_EQ(Shape({2, 3}), Shape({2, 3}));
    EXPECT_NE(Shape({2, 3}), Shape({3, 2}));
    const Shape s{2, 3};
    EXPECT_THROW(s.dim(2), check_error);
    EXPECT_THROW(s.dim(-3), check_error);
}

TEST(Tensor, ZeroInitialized) {
    const Tensor t{{2, 3}};
    EXPECT_EQ(t.numel(), 6);
    for (std::int64_t i = 0; i < t.numel(); ++i) {
        EXPECT_EQ(t[i], 0.0f);
    }
}

TEST(Tensor, FactoryFill) {
    const Tensor ones = Tensor::ones({4});
    EXPECT_EQ(sum(ones), 4.0f);
    const Tensor sevens = Tensor::full({2, 2}, 7.0f);
    EXPECT_EQ(sum(sevens), 28.0f);
}

TEST(Tensor, FromValuesValidatesSize) {
    EXPECT_NO_THROW(Tensor({2, 2}, std::vector<float>{1, 2, 3, 4}));
    EXPECT_THROW(Tensor({2, 2}, std::vector<float>{1, 2, 3}), check_error);
}

TEST(Tensor, MultiIndexAccess) {
    Tensor t({2, 3});
    t.at({1, 2}) = 5.0f;
    EXPECT_EQ(t.at({1, 2}), 5.0f);
    EXPECT_EQ(t[1 * 3 + 2], 5.0f);
    EXPECT_THROW(t.at({2, 0}), check_error);
    EXPECT_THROW(t.at({0}), check_error);
}

TEST(Tensor, FlatAccessBounds) {
    Tensor t({4});
    EXPECT_THROW(t.at(4), check_error);
    EXPECT_THROW(t.at(-1), check_error);
    EXPECT_NO_THROW(t.at(3));
}

TEST(Tensor, CloneIsDeep) {
    Tensor a = Tensor::ones({3});
    Tensor b = a.clone();
    b[0] = 9.0f;
    EXPECT_EQ(a[0], 1.0f);
}

TEST(Tensor, CopyAssignmentIsDeep) {
    Tensor a = Tensor::ones({3});
    Tensor b({3}, 2.0f);
    b = a;
    b[0] = 9.0f;
    EXPECT_EQ(a[0], 1.0f);
    EXPECT_NE(a.data(), b.data());
}

// The alias tests run on both alias forms: the whole tensor (offset 0,
// alias()) and a run of a larger storage starting at an offset and
// ending flush with the storage's end, the layout of the planned
// executor's activation arena.
constexpr std::int64_t kAliasOffsets[] = {0, 3};

/// Storage for a [2, 2] alias at `offset`: offset + 4 elements valued
/// 1, 2, 3, ...
Tensor alias_storage(std::int64_t offset) {
    Tensor storage = offset == 0 ? Tensor({2, 2}) : Tensor({offset + 4});
    for (std::int64_t i = 0; i < storage.numel(); ++i) {
        storage[i] = static_cast<float>(i + 1);
    }
    return storage;
}

Tensor alias_at(Tensor& storage, std::int64_t offset) {
    return offset == 0 ? storage.alias() : storage.alias(offset, Shape{2, 2});
}

TEST(Tensor, AliasSharesStorageBothWays) {
    for (const std::int64_t offset : kAliasOffsets) {
        SCOPED_TRACE("offset " + std::to_string(offset));
        Tensor a = alias_storage(offset);
        Tensor view = alias_at(a, offset);
        EXPECT_TRUE(a.aliases(view));
        EXPECT_EQ(view.data(), a.data() + offset);
        EXPECT_EQ(view.shape(), Shape({2, 2}));
        EXPECT_EQ(view.numel(), 4);
        EXPECT_EQ(view.at({0, 0}), a[offset]);
        EXPECT_THROW(view.at(4), check_error);

        view[0] = 7.0f;
        EXPECT_EQ(a[offset], 7.0f);
        a.fill(3.0f);
        EXPECT_EQ(view[3], 3.0f);
    }
}

TEST(Tensor, CopyOfAliasIsDeepAgain) {
    // alias() is an explicit escape hatch; value semantics resume at
    // the first copy, which takes only the alias's own elements.
    for (const std::int64_t offset : kAliasOffsets) {
        SCOPED_TRACE("offset " + std::to_string(offset));
        Tensor a = alias_storage(offset);
        Tensor view = alias_at(a, offset);
        const std::int64_t bytes = Tensor::storage_allocation_bytes();
        Tensor copy = view;
        Tensor cloned = view.clone();
        Tensor assigned({9});
        const std::int64_t before_assign = Tensor::storage_allocation_bytes();
        assigned = view;
        EXPECT_EQ(before_assign - bytes,
                  2 * 4 * static_cast<std::int64_t>(sizeof(float)) +
                      9 * static_cast<std::int64_t>(sizeof(float)));
        EXPECT_EQ(Tensor::storage_allocation_bytes() - before_assign,
                  4 * static_cast<std::int64_t>(sizeof(float)));
        for (const Tensor* t : {&copy, &cloned, &assigned}) {
            EXPECT_EQ(t->shape(), Shape({2, 2}));
            EXPECT_EQ(t->numel(), 4);
            EXPECT_FALSE(t->aliases(a));
            for (std::int64_t i = 0; i < 4; ++i) {
                EXPECT_EQ((*t)[i], a[offset + i]);
            }
        }
        copy[0] = 5.0f;
        EXPECT_EQ(a[offset], static_cast<float>(offset + 1));
    }
}

TEST(Tensor, OffsetAliasOpsTouchOnlyItsElements) {
    // A [2, 2] run in the middle of nine elements: fill, copy_from,
    // axpy, scale and reshaped see its four elements and leave the
    // storage on both sides alone.
    Tensor storage({9}, -9.0f);
    Tensor view = storage.alias(3, Shape{2, 2});
    auto expect_outside_untouched = [&] {
        for (const std::int64_t i : {0, 1, 2, 7, 8}) {
            EXPECT_EQ(storage[i], -9.0f) << "element " << i;
        }
    };

    view.fill(1.0f);
    expect_outside_untouched();
    for (std::int64_t i = 3; i < 7; ++i) {
        EXPECT_EQ(storage[i], 1.0f);
    }

    const Tensor source({2, 2}, std::vector<float>{1, 2, 3, 4});
    view.copy_from(source);
    expect_outside_untouched();
    EXPECT_EQ(storage[3], 1.0f);
    EXPECT_EQ(storage[6], 4.0f);

    view.axpy(2.0f, source);
    expect_outside_untouched();
    EXPECT_EQ(storage[3], 3.0f);
    EXPECT_EQ(storage[6], 12.0f);

    view.scale(0.5f);
    expect_outside_untouched();
    EXPECT_EQ(storage[3], 1.5f);
    EXPECT_EQ(storage[6], 6.0f);

    const Tensor flat = view.reshaped({4});
    EXPECT_EQ(flat.numel(), 4);
    EXPECT_FALSE(flat.aliases(storage));
    for (std::int64_t i = 0; i < 4; ++i) {
        EXPECT_EQ(flat[i], storage[3 + i]);
    }
    EXPECT_THROW(view.reshaped({9}), check_error);

    // Ops between two offset aliases read the source's run, not the
    // start of its storage.
    Tensor other_storage({6}, 0.0f);
    Tensor other = other_storage.alias(2, Shape{2, 2});
    other.copy_from(view);
    EXPECT_EQ(other_storage[1], 0.0f);
    EXPECT_EQ(other_storage[2], 1.5f);
    EXPECT_EQ(other_storage[5], 6.0f);
}

TEST(Tensor, OffsetAliasPastTheStorageEndThrows) {
    Tensor storage({7});
    EXPECT_NO_THROW(storage.alias(3, Shape{2, 2}));  // flush with the end
    EXPECT_NO_THROW(storage.alias(0, Shape{7}));
    EXPECT_THROW(storage.alias(4, Shape{2, 2}), check_error);
    EXPECT_THROW(storage.alias(7, Shape{1}), check_error);
    EXPECT_THROW(storage.alias(-1, Shape{2}), check_error);
    // Offsets count from the alias's own first element and must stay
    // inside it, so a run past the storage's end throws from a view too.
    Tensor view = storage.alias(3, Shape{2, 2});
    EXPECT_NO_THROW(view.alias(1, Shape{3}));
    EXPECT_THROW(view.alias(1, Shape{2, 2}), check_error);
}

TEST(Tensor, ReshapePreservesData) {
    Tensor a({2, 3}, std::vector<float>{1, 2, 3, 4, 5, 6});
    const Tensor b = a.reshaped({3, 2});
    EXPECT_EQ(b.shape(), Shape({3, 2}));
    for (std::int64_t i = 0; i < 6; ++i) {
        EXPECT_EQ(b[i], a[i]);
    }
    EXPECT_THROW(a.reshaped({4, 2}), check_error);
}

TEST(Tensor, RandnStatistics) {
    Rng rng(42);
    const Tensor t = Tensor::randn({10000}, rng, 2.0f, 0.5f);
    EXPECT_NEAR(mean(t), 2.0f, 0.05f);
}

TEST(Tensor, RandUniformRange) {
    Rng rng(42);
    const Tensor t = Tensor::rand_uniform({1000}, rng, -1.0f, 1.0f);
    EXPECT_GE(min_value(t), -1.0f);
    EXPECT_LT(max_value(t), 1.0f);
}

TEST(Tensor, ElementwiseOps) {
    const Tensor a({3}, std::vector<float>{1, 2, 3});
    const Tensor b({3}, std::vector<float>{4, 5, 6});
    const Tensor s = add(a, b);
    const Tensor d = sub(b, a);
    const Tensor p = mul(a, b);
    EXPECT_EQ(s[2], 9.0f);
    EXPECT_EQ(d[0], 3.0f);
    EXPECT_EQ(p[1], 10.0f);
    const Tensor scaled = mul(a, 2.0f);
    EXPECT_EQ(scaled[2], 6.0f);
}

TEST(Tensor, ElementwiseShapeMismatchThrows) {
    const Tensor a({3});
    const Tensor b({4});
    EXPECT_THROW(add(a, b), check_error);
    EXPECT_THROW(sub(a, b), check_error);
    EXPECT_THROW(mul(a, b), check_error);
}

TEST(Tensor, InplaceOps) {
    Tensor a({2}, std::vector<float>{1, 2});
    const Tensor b({2}, std::vector<float>{3, 4});
    add_inplace(a, b);
    EXPECT_EQ(a[0], 4.0f);
    sub_inplace(a, b);
    EXPECT_EQ(a[0], 1.0f);
    mul_inplace(a, b);
    EXPECT_EQ(a[1], 8.0f);
}

TEST(Tensor, AxpyAndScale) {
    Tensor a({3}, std::vector<float>{1, 1, 1});
    const Tensor x({3}, std::vector<float>{1, 2, 3});
    a.axpy(2.0f, x);
    EXPECT_EQ(a[2], 7.0f);
    a.scale(0.5f);
    EXPECT_EQ(a[2], 3.5f);
    Tensor wrong({2});
    EXPECT_THROW(a.axpy(1.0f, wrong), check_error);
}

TEST(Tensor, Reductions) {
    const Tensor t({4}, std::vector<float>{-1, 0, 3, 2});
    EXPECT_EQ(sum(t), 4.0f);
    EXPECT_EQ(mean(t), 1.0f);
    EXPECT_EQ(min_value(t), -1.0f);
    EXPECT_EQ(max_value(t), 3.0f);
    EXPECT_EQ(argmax(t), 2);
    EXPECT_DOUBLE_EQ(zero_fraction(t), 0.25);
    EXPECT_EQ(abs_sum(t), 6.0f);
    EXPECT_FLOAT_EQ(l2_norm(t), std::sqrt(14.0f));
}

TEST(Tensor, ReshapedAliasSharesStorageAtNewShape) {
    // Offset 0 reshapes the whole tensor; offset 2 reshapes a [2, 6]
    // run of 14 elements, and the reshaped alias keeps that offset.
    for (const std::int64_t offset : {0, 2}) {
        SCOPED_TRACE("offset " + std::to_string(offset));
        Tensor storage({offset + 12});
        Tensor t = storage.alias(offset, Shape{2, 6});
        t[3] = 7.0f;
        Tensor view = t.alias(Shape{3, 4});
        EXPECT_TRUE(view.aliases(t));
        EXPECT_EQ(view.data(), storage.data() + offset);
        EXPECT_EQ(view.shape(), Shape({3, 4}));
        EXPECT_EQ(view[3], 7.0f);
        view[5] = -1.0f;  // writes are visible through both handles
        EXPECT_EQ(t[5], -1.0f);
        EXPECT_EQ(storage[offset + 5], -1.0f);
        EXPECT_THROW(t.alias(Shape{5, 5}), check_error);
        if (offset != 0) {
            EXPECT_THROW(t.alias(Shape{offset + 12}), check_error);
        }
    }
}

TEST(Tensor, AllocationProbeCountsStorageCreation) {
    const std::int64_t count = Tensor::storage_allocation_count();
    const std::int64_t bytes = Tensor::storage_allocation_bytes();
    Tensor t({4, 4});
    EXPECT_EQ(Tensor::storage_allocation_count(), count + 1);
    EXPECT_EQ(Tensor::storage_allocation_bytes(),
              bytes + 16 * static_cast<std::int64_t>(sizeof(float)));
    Tensor copy = t;  // deep copy allocates
    EXPECT_EQ(Tensor::storage_allocation_count(), count + 2);
    // copy_from and fill reuse storage: no new blocks.
    copy.copy_from(t);
    copy.fill(0.0f);
    EXPECT_EQ(Tensor::storage_allocation_count(), count + 2);
}

// ---------------------------------------------------------------------------
// Workspace
// ---------------------------------------------------------------------------

TEST(Workspace, BumpAllocCheckpointRewindAndPeak) {
    Workspace ws(4096);
    EXPECT_GE(ws.capacity_bytes(), 4096u);
    EXPECT_EQ(ws.used_bytes(), 0u);
    EXPECT_EQ(ws.peak_bytes(), 0u);

    float* a = ws.alloc_floats(100);
    ASSERT_NE(a, nullptr);
    const Workspace::Checkpoint mark = ws.checkpoint();
    float* b = ws.alloc_floats(200);
    ASSERT_NE(b, nullptr);
    EXPECT_GT(b, a);  // bump, not reuse
    const std::size_t high = ws.used_bytes();
    EXPECT_EQ(ws.peak_bytes(), high);

    ws.rewind(mark);
    EXPECT_LT(ws.used_bytes(), high);
    EXPECT_EQ(ws.peak_bytes(), high);  // peak survives rewind
    // Rewinding frees the slot: the next alloc reuses b's memory.
    EXPECT_EQ(ws.alloc_floats(200), b);

    ws.reset();
    EXPECT_EQ(ws.used_bytes(), 0u);
}

TEST(Workspace, AllocationsAreCachelineAligned) {
    Workspace ws(4096);
    float* a = ws.alloc_floats(1);  // rounds up to one cacheline
    float* b = ws.alloc_floats(1);
    // Absolute alignment, not just 64-byte spacing: the block base
    // itself sits on a cacheline boundary.
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a) % 64, 0u);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % 64, 0u);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) -
                  reinterpret_cast<std::uintptr_t>(a),
              64u);
    EXPECT_EQ(Workspace::aligned_floats(1), 16u);
    EXPECT_EQ(Workspace::aligned_floats(16), 16u);
    EXPECT_EQ(Workspace::aligned_floats(17), 32u);
    EXPECT_EQ(Workspace::aligned_floats(0), 0u);
}

TEST(Workspace, OverflowIsACheckedErrorNeverASilentAllocation) {
    Workspace ws(64 * sizeof(float));
    ws.alloc_floats(64);
    EXPECT_THROW(ws.alloc_floats(1), check_error);
    ws.reset();
    EXPECT_NO_THROW(ws.alloc_floats(64));
}

TEST(Workspace, ReserveWithLiveAllocationsThrows) {
    Workspace ws(256);
    ws.alloc_floats(8);
    // Growth would dangle the pointer just handed out.
    EXPECT_THROW(ws.reserve(1 << 20), check_error);
    ws.reset();
    EXPECT_NO_THROW(ws.reserve(1 << 20));
    EXPECT_GE(ws.capacity_bytes(), static_cast<std::size_t>(1 << 20));
    // Shrinking reserve is a no-op, not a reallocation.
    ws.reserve(16);
    EXPECT_GE(ws.capacity_bytes(), static_cast<std::size_t>(1 << 20));
}

TEST(Workspace, RewindAheadOfPointerThrows) {
    Workspace ws(1024);
    const Workspace::Checkpoint mark = ws.checkpoint();
    ws.alloc_floats(8);
    const Workspace::Checkpoint later = ws.checkpoint();
    ws.rewind(mark);
    EXPECT_THROW(ws.rewind(later), check_error);
}

TEST(Workspace, MixedWidthAllocBytesInterleavesWithFloats) {
    // The quantized executor carves int8 slabs and int32 accumulators
    // from the same arena as float im2col scratch. alloc_bytes must
    // charge the byte footprint (cacheline-rounded), not sizeof(float)
    // per element — an int8 slab costing 4x its size would blow the
    // plan's exact byte accounting.
    Workspace ws(4096);
    auto* q = ws.alloc<std::int8_t>(65);  // 65 bytes -> two cachelines
    ASSERT_NE(q, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(q) % 64, 0u);
    EXPECT_EQ(ws.used_bytes(), 128u);
    EXPECT_EQ(Workspace::aligned_bytes(65), 128u);
    EXPECT_EQ(Workspace::aligned_bytes(64), 64u);
    EXPECT_EQ(Workspace::aligned_bytes(0), 0u);

    const Workspace::Checkpoint mark = ws.checkpoint();
    auto* acc = ws.alloc<std::int32_t>(16);  // 64 bytes -> one line
    float* f = ws.alloc_floats(16);          // interleaves freely
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(acc) % 64, 0u);
    EXPECT_EQ(ws.used_bytes(), 128u + 64u + 64u);

    // LIFO rewind frees both typed allocations together; the next
    // byte-granular alloc reuses the accumulator's memory.
    ws.rewind(mark);
    EXPECT_EQ(ws.used_bytes(), 128u);
    EXPECT_EQ(static_cast<void*>(ws.alloc<std::int32_t>(4)),
              static_cast<void*>(acc));
    (void)f;

    // Same overflow discipline as alloc_floats: a checked error, never
    // a silent heap allocation.
    ws.reset();
    ws.alloc<std::int8_t>(4096);
    EXPECT_THROW(ws.alloc<std::int8_t>(1), check_error);
}

TEST(Tensor, ArgmaxFirstOnTies) {
    const Tensor t({4}, std::vector<float>{5, 1, 5, 2});
    EXPECT_EQ(argmax(t), 0);
}

}  // namespace
}  // namespace mime
