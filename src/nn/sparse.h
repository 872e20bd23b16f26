// Shared vocabulary between the sparse planned executor (core) and the
// layers that can exploit structural sparsity (nn): a non-owning view of
// a live-index list plus the default density cutoff above which the
// executor hands a layer no list, so it runs dense (compaction overhead
// outweighs skipped MACs when almost everything is live).
#pragma once

#include <cstdint>

namespace mime::nn {

/// Default of SparseExecution::density_cutoff, the density above which
/// ForwardPlan::run hands a conv or linear layer no live list (set per
/// network with MimeNetwork::set_sparse_execution).
inline constexpr double kDefaultSparseDensityCutoff = 0.85;

/// Non-owning view of the live indices of one axis. On an input axis
/// (Conv2d input channels, Linear input features) it lists the indices
/// that may be nonzero: every index left out must be zero in every
/// sample of the batch, whether a threshold pruned it structurally or
/// the planned executor found it zero at run time. On Conv2d's output
/// axis it lists the only channels to compute: every channel left out
/// is one the consumer zeroes whatever it holds. Indices must be
/// strictly ascending within [0, total). The pointee must outlive the
/// forward call it is passed to.
struct ActiveIndexView {
    const std::int64_t* indices = nullptr;
    std::int64_t count = 0;
    std::int64_t total = 0;

    double density() const noexcept {
        return total == 0 ? 1.0
                          : static_cast<double>(count) /
                                static_cast<double>(total);
    }
    bool all_live() const noexcept { return count == total; }
};

}  // namespace mime::nn
