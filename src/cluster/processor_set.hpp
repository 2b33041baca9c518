#pragma once
/// \file processor_set.hpp
/// Compact set of processor indices, the unit of processor allocation.
///
/// A parallel task is executed on a ProcessorSet; locality reasoning
/// (which processors already hold a task's input data) is set intersection.
/// Implemented as a dynamic bitset over 64-bit words: the paper's clusters
/// have up to a few hundred processors, so all operations are a handful of
/// word ops.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace locmps {

/// Index of a physical processor in the cluster, 0-based.
using ProcId = std::uint32_t;

/// A set of processors of a fixed-capacity cluster.
///
/// All binary operations require both operands to share the same capacity
/// (checked in debug builds). Value semantics; cheap to copy at cluster
/// sizes used here (<= 1024 processors = 16 words).
class ProcessorSet {
 public:
  /// Empty set with capacity 0 (usable only after assignment).
  ProcessorSet() = default;

  /// Empty set over a cluster of \p capacity processors.
  explicit ProcessorSet(std::size_t capacity);

  /// The full set {0, ..., capacity-1}.
  static ProcessorSet all(std::size_t capacity);

  /// Set containing exactly the given processors.
  static ProcessorSet of(std::size_t capacity,
                         std::initializer_list<ProcId> procs);

  /// Contiguous range [first, first+count).
  static ProcessorSet range(std::size_t capacity, ProcId first,
                            std::size_t count);

  std::size_t capacity() const { return capacity_; }

  /// Number of processors in the set.
  std::size_t count() const;

  bool empty() const { return count() == 0; }

  bool contains(ProcId p) const;

  void insert(ProcId p);
  void erase(ProcId p);
  void clear();

  /// Set algebra. Operands must share capacity.
  ProcessorSet& operator|=(const ProcessorSet& o);
  ProcessorSet& operator&=(const ProcessorSet& o);
  ProcessorSet& operator-=(const ProcessorSet& o);
  friend ProcessorSet operator|(ProcessorSet a, const ProcessorSet& b) {
    return a |= b;
  }
  friend ProcessorSet operator&(ProcessorSet a, const ProcessorSet& b) {
    return a &= b;
  }
  friend ProcessorSet operator-(ProcessorSet a, const ProcessorSet& b) {
    return a -= b;
  }

  bool operator==(const ProcessorSet& o) const = default;

  /// |*this & o| without materializing the intersection.
  std::size_t intersection_count(const ProcessorSet& o) const;

  /// True if *this and o share no processor.
  bool disjoint(const ProcessorSet& o) const {
    return intersection_count(o) == 0;
  }

  /// Members in ascending order.
  std::vector<ProcId> to_vector() const;

  /// Smallest member; capacity() if empty.
  ProcId first() const;

  /// Applies \p fn to each member in ascending order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t bits = words_[w];
      while (bits != 0) {
        const int b = __builtin_ctzll(bits);
        fn(static_cast<ProcId>(w * 64 + b));
        bits &= bits - 1;
      }
    }
  }

  /// Human-readable form, e.g. "{0,1,5}".
  std::string to_string() const;

 private:
  std::size_t capacity_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace locmps
