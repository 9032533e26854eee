// Inline-first set and map for a handful of small, trivially copyable keys.
//
// The CTA records, per procedure and per UE, which replica CPFs have ACKed
// a checkpoint — num_backups entries, 2 in the paper's deployment. A node
// hash set or an open-addressing map costs one or more allocations per
// record; these keep the first N entries inside the object in a plain
// array searched linearly, and move wholesale to the heap only past N, so
// any backup count (and any churn of the replica set) still fits.
//
// Element order is unspecified (erase moves the last element into the
// hole). Callers look entries up; they never depend on iteration order.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace neutrino {

/// Unordered storage: the first N elements inline, all of them on the
/// heap once more than N were held at the same time.
template <typename T, std::size_t N>
class SmallVec {
  static_assert(std::is_trivially_copyable_v<T>);
  static_assert(N > 0);

 public:
  [[nodiscard]] std::size_t size() const {
    return heap_.empty() ? n_ : heap_.size();
  }
  T* begin() { return heap_.empty() ? inline_.data() : heap_.data(); }
  T* end() { return begin() + size(); }
  const T* begin() const {
    return heap_.empty() ? inline_.data() : heap_.data();
  }
  const T* end() const { return begin() + size(); }

  void push_back(const T& v) {
    if (!heap_.empty()) {
      heap_.push_back(v);
    } else if (n_ < N) {
      inline_[n_++] = v;
    } else {
      heap_.reserve(2 * N);
      heap_.assign(inline_.begin(), inline_.end());
      heap_.push_back(v);
      n_ = 0;
    }
  }

  /// Remove the element at `it`; the last element takes its place.
  void erase(T* it) {
    *it = *(end() - 1);
    if (heap_.empty()) {
      --n_;
    } else {
      heap_.pop_back();  // back inline once empty
    }
  }

  void clear() {
    heap_.clear();
    n_ = 0;
  }

 private:
  std::array<T, N> inline_{};
  std::uint32_t n_ = 0;  // inline elements in use (heap_ empty only)
  std::vector<T> heap_;  // every element, once more than N were held
};

template <typename K, std::size_t N>
class SmallSet {
 public:
  [[nodiscard]] std::size_t size() const { return items_.size(); }
  [[nodiscard]] bool contains(K key) const { return find(key) != nullptr; }

  void insert(K key) {
    if (!contains(key)) items_.push_back(key);
  }

  void erase(K key) {
    if (K* it = find(key)) items_.erase(it);
  }

 private:
  [[nodiscard]] const K* find(K key) const {
    for (const K& k : items_) {
      if (k == key) return &k;
    }
    return nullptr;
  }
  K* find(K key) { return const_cast<K*>(std::as_const(*this).find(key)); }

  SmallVec<K, N> items_;
};

template <typename K, typename V, std::size_t N>
class SmallMap {
 public:
  /// The value for `key`, or nullptr.
  [[nodiscard]] const V* lookup(K key) const {
    for (const Entry& e : items_) {
      if (e.key == key) return &e.value;
    }
    return nullptr;
  }

  /// The value for `key`, value-initialized if absent.
  V& operator[](K key) {
    if (const V* v = lookup(key)) return const_cast<V&>(*v);
    items_.push_back(Entry{key, V{}});
    return (items_.end() - 1)->value;
  }

  void erase(K key) {
    for (Entry& e : items_) {
      if (e.key == key) {
        items_.erase(&e);
        return;
      }
    }
  }

  void clear() { items_.clear(); }

 private:
  struct Entry {
    K key;
    V value;
  };
  SmallVec<Entry, N> items_;
};

}  // namespace neutrino
