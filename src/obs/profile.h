// Per-layer profile record produced by ForwardPlan::run when profiling
// is enabled (MimeNetwork::set_plan_profiling). The network keeps one
// LayerProfile per plan step, and the runs of its plans of every batch
// size accumulate into it (MimeNetwork::planned_layer_profiles).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace mime::obs {

/// Accumulated cost of one plan step (conv1, bn1, act1, ..., fc3).
struct LayerProfile {
    std::string name;
    std::int64_t runs = 0;       ///< batches executed through this step
    double total_us = 0.0;       ///< wall time summed over runs
    std::int64_t skipped_macs = 0;  ///< MACs avoided by sparse execution
    std::int64_t dense_macs = 0;    ///< MACs a dense execution would do
    std::size_t workspace_bytes = 0;  ///< scratch bytes this step touches

    double mean_us() const {
        return runs > 0 ? total_us / static_cast<double>(runs) : 0.0;
    }
    /// Fraction of dense-equivalent MACs the sparse path skipped.
    double skipped_mac_fraction() const {
        return dense_macs > 0
                   ? static_cast<double>(skipped_macs) /
                         static_cast<double>(dense_macs)
                   : 0.0;
    }
};

}  // namespace mime::obs
