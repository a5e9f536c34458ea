#pragma once
// Bridge from the real comm layer to the virtual cluster
// (docs/communication.md).
//
// The distributed solvers move real bytes through comm::Communicator and
// co-simulate their timing on a sim::Cluster. The communicator records
// every delivered message as a (src, dst, bytes) Transfer; these helpers
// drain that record into the cluster, so the virtual machine is charged
// with exactly the message sizes that actually moved — one accounting
// path instead of hand-maintained byte arithmetic at every call site.
//
// `base_rank` maps the communicator's local rank space onto the cluster's
// global ranks (an application instance owns the contiguous range
// [base_rank, base_rank + comm.size())). Both helpers clear the transfer
// record; call clear_transfers() directly for exchanges that should move
// data but not charge the cluster.

#include <vector>

#include "comm/communicator.hpp"
#include "sim/cluster.hpp"

namespace cpx::sim {

/// Charges the recorded transfers as one bulk BSP exchange() round.
/// `scratch` is reused across calls to keep the steady state
/// allocation-free.
void flush_exchange(comm::Communicator& comm, Cluster& cluster,
                    RegionId region, Rank base_rank,
                    std::vector<Message>& scratch);

/// Charges the recorded transfers as eager send() calls in delivery
/// order — the pipeline semantics of chained rank-to-rank hand-offs.
void flush_sends(comm::Communicator& comm, Cluster& cluster,
                 RegionId region, Rank base_rank);

}  // namespace cpx::sim
