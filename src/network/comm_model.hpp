#pragma once
/// \file comm_model.hpp
/// Inter-task communication cost model (Section III-B).
///
/// Two levels of fidelity:
///  * Allocation-stage estimate: wt(e_ij) = D_ij / bw_ij with the aggregate
///    bandwidth bw_ij = min(np(t_i), np(t_j)) * bandwidth — used while
///    choosing allocations, before placements are known.
///  * Placement-stage cost: once source and destination processor *sets*
///    are known, only the block-cyclic remote volume crosses the network,
///    so the cost shrinks with data locality.

#include <cstddef>

#include "cluster/cluster.hpp"
#include "network/block_cyclic.hpp"

namespace locmps {

/// Communication cost calculator bound to a cluster. Holds the (small)
/// cluster description by value, so temporaries are safe:
/// `CommModel m{Cluster(16)}`.
class CommModel {
 public:
  explicit CommModel(Cluster cluster) : cluster_(cluster) {}

  /// Aggregate bandwidth (bytes/s) between groups of np_src and np_dst
  /// processors: min(np_src, np_dst) parallel streams.
  double aggregate_bandwidth(std::size_t np_src, std::size_t np_dst) const {
    const std::size_t streams = np_src < np_dst ? np_src : np_dst;
    return static_cast<double>(streams == 0 ? 1 : streams) *
           cluster_.bandwidth_Bps;
  }

  /// Duration of moving \p remote_bytes between groups of the given sizes:
  /// startup latency plus bytes over the aggregate bandwidth. Zero bytes
  /// cost nothing (no transfer happens).
  double transfer_duration(double remote_bytes, std::size_t np_src,
                           std::size_t np_dst) const {
    if (evals_ != nullptr) ++*evals_;
    if (remote_bytes <= 0.0) return 0.0;
    return cluster_.latency_s +
           remote_bytes / aggregate_bandwidth(np_src, np_dst);
  }

  /// Allocation-stage edge cost: time to redistribute \p volume_bytes
  /// between groups of the given sizes, ignoring placement (paper's
  /// wt(e_ij) formula). Zero-volume edges cost zero.
  double edge_cost(double volume_bytes, std::size_t np_src,
                   std::size_t np_dst) const {
    return transfer_duration(volume_bytes, np_src, np_dst);
  }

  /// Placement-stage transfer time: only the remote block-cyclic volume is
  /// transferred, at the aggregate bandwidth of the two groups. Zero when
  /// the layouts coincide.
  double transfer_time(double volume_bytes, const ProcessorSet& src,
                       const ProcessorSet& dst) const {
    return transfer_duration(remote_volume(volume_bytes, src, dst),
                             src.count(), dst.count());
  }

  const Cluster& cluster() const { return cluster_; }

  /// True when the platform overlaps communication with computation.
  bool overlap() const { return cluster_.overlap_comm_compute; }

  /// Observability hook: every transfer_duration() evaluation bumps
  /// *\p cell (a MetricsRegistry::cell_ptr slot, typically
  /// "comm.cost_evals"). Null — the default — disables counting; the
  /// fast path is the single branch in transfer_duration. The cell must
  /// outlive the model; copies of the model share the same cell.
  void count_evals_into(double* cell) { evals_ = cell; }

  /// The attached evaluation-counter cell (null when counting is off).
  /// Incremental replay (schedulers/incremental.hpp) reads it to capture
  /// per-placement evaluation deltas and credit them on replayed steps,
  /// keeping "comm.cost_evals" bit-identical to a from-scratch run.
  double* evals_cell() const { return evals_; }

 private:
  Cluster cluster_;
  double* evals_ = nullptr;
};

}  // namespace locmps
