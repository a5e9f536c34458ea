#include "sim/comm_bridge.hpp"

#include "support/check.hpp"

namespace cpx::sim {

void flush_exchange(comm::Communicator& comm, Cluster& cluster,
                    RegionId region, Rank base_rank,
                    std::vector<Message>& scratch) {
  const std::span<const comm::Transfer> transfers = comm.transfers();
  scratch.clear();
  // cpx-lint: allow(solve-alloc) — capacity kept across rounds (SolverAllocations.WarmDistributedPicStepAllocatesNothing)
  scratch.reserve(transfers.size());
  for (const comm::Transfer& t : transfers) {
    const Rank src = base_rank + t.src;
    const Rank dst = base_rank + t.dst;
    CPX_DCHECK(src >= 0 && src < cluster.num_ranks());
    CPX_DCHECK(dst >= 0 && dst < cluster.num_ranks());
    // cpx-lint: allow(solve-alloc) — within the reserved capacity (SolverAllocations.WarmDistributedPicStepAllocatesNothing)
    scratch.push_back({src, dst, t.bytes});
  }
  if (!scratch.empty()) {
    cluster.exchange(scratch, region);
  }
  comm.clear_transfers();
}

void flush_sends(comm::Communicator& comm, Cluster& cluster,
                 RegionId region, Rank base_rank) {
  for (const comm::Transfer& t : comm.transfers()) {
    cluster.send(base_rank + t.src, base_rank + t.dst, t.bytes, region);
  }
  comm.clear_transfers();
}

}  // namespace cpx::sim
