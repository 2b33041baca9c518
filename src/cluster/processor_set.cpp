#include "cluster/processor_set.hpp"

#include <bit>
#include <cassert>
#include <sstream>

namespace locmps {

namespace {
std::size_t word_count(std::size_t capacity) { return (capacity + 63) / 64; }
}  // namespace

ProcessorSet::ProcessorSet(std::size_t capacity)
    : capacity_(capacity), words_(word_count(capacity), 0) {}

ProcessorSet ProcessorSet::all(std::size_t capacity) {
  ProcessorSet s(capacity);
  for (std::size_t w = 0; w < s.words_.size(); ++w)
    s.words_[w] = ~std::uint64_t{0};
  if (capacity % 64 != 0 && !s.words_.empty())
    s.words_.back() &= (std::uint64_t{1} << (capacity % 64)) - 1;
  return s;
}

ProcessorSet ProcessorSet::of(std::size_t capacity,
                              std::initializer_list<ProcId> procs) {
  ProcessorSet s(capacity);
  for (ProcId p : procs) s.insert(p);
  return s;
}

ProcessorSet ProcessorSet::range(std::size_t capacity, ProcId first,
                                 std::size_t count) {
  ProcessorSet s(capacity);
  for (std::size_t i = 0; i < count; ++i)
    s.insert(static_cast<ProcId>(first + i));
  return s;
}

std::size_t ProcessorSet::count() const {
  std::size_t n = 0;
  for (auto w : words_) n += static_cast<std::size_t>(std::popcount(w));
  return n;
}

bool ProcessorSet::contains(ProcId p) const {
  assert(p < capacity_);
  return (words_[p / 64] >> (p % 64)) & 1u;
}

void ProcessorSet::insert(ProcId p) {
  assert(p < capacity_);
  words_[p / 64] |= std::uint64_t{1} << (p % 64);
}

void ProcessorSet::erase(ProcId p) {
  assert(p < capacity_);
  words_[p / 64] &= ~(std::uint64_t{1} << (p % 64));
}

void ProcessorSet::clear() {
  for (auto& w : words_) w = 0;
}

ProcessorSet& ProcessorSet::operator|=(const ProcessorSet& o) {
  assert(capacity_ == o.capacity_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= o.words_[i];
  return *this;
}

ProcessorSet& ProcessorSet::operator&=(const ProcessorSet& o) {
  assert(capacity_ == o.capacity_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= o.words_[i];
  return *this;
}

ProcessorSet& ProcessorSet::operator-=(const ProcessorSet& o) {
  assert(capacity_ == o.capacity_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= ~o.words_[i];
  return *this;
}

std::size_t ProcessorSet::intersection_count(const ProcessorSet& o) const {
  assert(capacity_ == o.capacity_);
  std::size_t n = 0;
  for (std::size_t i = 0; i < words_.size(); ++i)
    n += static_cast<std::size_t>(std::popcount(words_[i] & o.words_[i]));
  return n;
}

std::vector<ProcId> ProcessorSet::to_vector() const {
  std::vector<ProcId> v;
  v.reserve(count());
  for_each([&](ProcId p) { v.push_back(p); });
  return v;
}

ProcId ProcessorSet::first() const {
  for (std::size_t w = 0; w < words_.size(); ++w)
    if (words_[w] != 0)
      return static_cast<ProcId>(w * 64 + __builtin_ctzll(words_[w]));
  return static_cast<ProcId>(capacity_);
}

std::string ProcessorSet::to_string() const {
  std::ostringstream ss;
  ss << '{';
  bool first_item = true;
  for_each([&](ProcId p) {
    if (!first_item) ss << ',';
    ss << p;
    first_item = false;
  });
  ss << '}';
  return ss.str();
}

}  // namespace locmps
