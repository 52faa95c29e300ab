// Small-buffer vector for trivially copyable elements.
//
// Holds up to N elements inside the object and spills to one heap
// block beyond that, so a container that is usually small costs no
// allocation and still has no upper bound. clear() and resize() keep
// whatever capacity the vector has: one refilled in a loop stops
// allocating once it has held its largest size. A moved-from vector is
// empty and back on its inline buffer (a spilled source hands its heap
// block to the destination). The inline buffer is left unset: size()
// bounds every read.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <iterator>
#include <new>
#include <span>
#include <type_traits>

namespace hetpapi {

template <typename T, std::size_t N>
class SmallVector {
  static_assert(N > 0, "SmallVector needs an inline capacity");
  static_assert(std::is_trivially_copyable_v<T> &&
                    std::is_default_constructible_v<T>,
                "SmallVector copies its elements bytewise");

 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  /// User-provided, so no value-initialization zero-fills inline_.
  SmallVector() noexcept {}
  SmallVector(std::initializer_list<T> init) { assign(init.begin(), init.end()); }
  SmallVector(const SmallVector& other) { assign(other.begin(), other.end()); }
  SmallVector(SmallVector&& other) noexcept { take(other); }
  ~SmallVector() { release(); }

  SmallVector& operator=(const SmallVector& other) {
    if (this != &other) assign(other.begin(), other.end());
    return *this;
  }
  SmallVector& operator=(SmallVector&& other) noexcept {
    if (this == &other) return *this;
    if (other.spilled()) {
      release();
      take(other);
    } else {
      assign(other.begin(), other.end());
      other.size_ = 0;
    }
    return *this;
  }
  SmallVector& operator=(std::initializer_list<T> init) {
    assign(init.begin(), init.end());
    return *this;
  }
  /// Copy from any contiguous run of T (a std::vector, an array, ...).
  SmallVector& operator=(std::span<const T> values) {
    assign(values.begin(), values.end());
    return *this;
  }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  std::size_t capacity() const noexcept { return capacity_; }
  /// True once the elements live in a heap block.
  bool spilled() const noexcept { return data_ != inline_; }

  T* data() noexcept { return data_; }
  const T* data() const noexcept { return data_; }
  iterator begin() noexcept { return data_; }
  iterator end() noexcept { return data_ + size_; }
  const_iterator begin() const noexcept { return data_; }
  const_iterator end() const noexcept { return data_ + size_; }

  T& operator[](std::size_t i) {
    assert(i < size_);
    return data_[i];
  }
  const T& operator[](std::size_t i) const {
    assert(i < size_);
    return data_[i];
  }

  /// Drops the elements, keeps the capacity.
  void clear() noexcept { size_ = 0; }

  void reserve(std::size_t n) {
    if (n <= capacity_) return;
    const std::size_t grown = std::max<std::size_t>(n, 2 * capacity_);
    T* block = static_cast<T*>(::operator new(grown * sizeof(T)));
    if (size_ != 0) std::memcpy(block, data_, size_ * sizeof(T));
    release();
    data_ = block;
    capacity_ = static_cast<std::uint32_t>(grown);
  }

  /// Grows with value-initialized (zero) elements or shrinks; never
  /// gives capacity back.
  void resize(std::size_t n) {
    reserve(n);
    if (n > size_) std::fill(data_ + size_, data_ + n, T{});
    size_ = static_cast<std::uint32_t>(n);
  }
  /// resize() that leaves new elements unset, for a caller writing them.
  void resize_for_overwrite(std::size_t n) {
    reserve(n);
    size_ = static_cast<std::uint32_t>(n);
  }

  void push_back(const T& value) {
    const T copy = value;  // `value` may live in the block reserve() frees
    reserve(size_ + 1u);
    data_[size_++] = copy;
  }

  template <std::forward_iterator It>
  void assign(It first, It last) {
    const auto n = static_cast<std::size_t>(std::distance(first, last));
    reserve(n);
    std::copy(first, last, data_);
    size_ = static_cast<std::uint32_t>(n);
  }

  friend bool operator==(const SmallVector& a, const SmallVector& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  void release() noexcept {
    if (spilled()) ::operator delete(data_);
  }

  /// Move `other`'s elements here (this owns no heap block), leaving
  /// `other` empty on its inline buffer.
  void take(SmallVector& other) noexcept {
    if (other.spilled()) {
      data_ = other.data_;
      capacity_ = other.capacity_;
      other.data_ = other.inline_;
      other.capacity_ = N;
    } else {
      data_ = inline_;
      capacity_ = N;
      std::memcpy(inline_, other.inline_, other.size_ * sizeof(T));
    }
    size_ = other.size_;
    other.size_ = 0;
  }

  T* data_ = inline_;
  std::uint32_t size_ = 0;
  std::uint32_t capacity_ = N;
  T inline_[N];
};

}  // namespace hetpapi
