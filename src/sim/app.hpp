#pragma once
// Interface implemented by every application instance that runs on the
// virtual cluster (MG-CFD rows, the SIMPIC combustor proxy, the pressure-
// solver surrogate). The coupled workflow driver steps instances according
// to the coupling schedule; coupler units move data between them.

#include <cstdint>
#include <string>

#include "sim/cluster.hpp"

namespace cpx::sim {

class App {
 public:
  virtual ~App() = default;

  virtual const std::string& name() const = 0;

  /// The contiguous rank range this instance owns on the cluster.
  virtual RankRange ranks() const = 0;

  /// Advances the instance by one of its own solver timesteps, charging
  /// compute and communication to the cluster.
  virtual void step(Cluster& cluster) = 0;

  /// Bytes of boundary data this instance exposes per coupling exchange
  /// through one interface of `interface_cells` cells.
  virtual std::size_t interface_bytes(std::int64_t interface_cells) const;

  /// Enables split-phase communication/computation overlap where the
  /// instance supports it (docs/communication.md); default is a no-op for
  /// instances with nothing to hide.
  virtual void set_overlap(bool /*on*/) {}

 protected:
  /// Bind-once contract (docs/SIMULATOR.md): what step() derives from the
  /// cluster alone — region ids, exchange schedules, per-rank compute
  /// seconds — is computed when this returns true and reused until it
  /// does again. It returns true on the first call and whenever `cluster`
  /// is not the cluster of the previous bind (Cluster::id(), which no
  /// two clusters share even when one reuses another's address).
  bool needs_bind(const Cluster& cluster) {
    if (cluster.id() == bound_cluster_) {
      return false;
    }
    bound_cluster_ = cluster.id();
    return true;
  }

 private:
  std::uint64_t bound_cluster_ = 0;  ///< Cluster::id() ids start at 1
};

}  // namespace cpx::sim
