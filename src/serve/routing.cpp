#include "serve/routing.h"

#include "common/check.h"

namespace mime::serve {

const char* to_string(RoutingPolicy policy) {
    switch (policy) {
        case RoutingPolicy::round_robin:
            return "round_robin";
        case RoutingPolicy::task_affinity:
            return "task_affinity";
        case RoutingPolicy::least_loaded:
            return "least_loaded";
    }
    return "unknown";
}

std::uint64_t task_hash(const std::string& task) {
    std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
    for (const char c : task) {
        h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
        h *= 0x100000001b3ULL;  // FNV-1a prime
    }
    return h;
}

Router::Router(RoutingPolicy policy, std::size_t replica_count)
    : policy_(policy), replica_count_(replica_count) {
    MIME_REQUIRE(replica_count >= 1, "router needs at least one replica");
}

std::size_t Router::route(const std::string& task,
                          const std::vector<double>& loads) {
    MIME_REQUIRE(loads.size() == replica_count_,
                 "loads must have one entry per replica");
    switch (policy_) {
        case RoutingPolicy::round_robin: {
            const std::size_t replica = next_;
            next_ = (next_ + 1) % replica_count_;
            return replica;
        }
        case RoutingPolicy::task_affinity:
            return static_cast<std::size_t>(
                task_hash(task) %
                static_cast<std::uint64_t>(replica_count_));
        case RoutingPolicy::least_loaded: {
            double min_load = loads[0];
            for (std::size_t i = 1; i < replica_count_; ++i) {
                if (loads[i] < min_load) {
                    min_load = loads[i];
                }
            }
            // Rotate among the minima: start the scan at the cursor so
            // exact ties (idle pool, equal predicted cost) spread over
            // the replicas instead of pinning replica 0.
            for (std::size_t offset = 0; offset < replica_count_;
                 ++offset) {
                const std::size_t i = (next_ + offset) % replica_count_;
                if (loads[i] == min_load) {
                    next_ = (i + 1) % replica_count_;
                    return i;
                }
            }
            return 0;  // unreachable: min_load came from loads
        }
    }
    return 0;
}

}  // namespace mime::serve
