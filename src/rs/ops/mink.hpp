// The mink / maxk operators (paper Listings 1 and 4).
//
// mink reduces a distributed array of values to its k smallest elements.
// It is the paper's canonical example of the global-view advantage: the
// *input* type (one value) differs from the *state* and *output* types (a
// k-vector), so the accumulate function — a guarded O(k) insertion that
// usually rejects in one comparison — is substantially cheaper than the
// combine function, and the abstraction keeps the cheap path in the inner
// loop (§3's note on optimizing accumulate at combine's expense).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/bytes.hpp"
#include "util/error.hpp"

namespace rsmpi::rs::ops {

namespace detail {

/// Reads a serialized k-vector (the save() format of MinK and MaxK) in
/// place and feeds its elements to `accum` in index order — the order
/// combine() folds them in, so the result is bit-identical to load +
/// combine.  The whole payload is validated before the first element is
/// folded: a mismatched k, a truncated payload or trailing bytes throw
/// ProtocolError and leave the state untouched.
template <typename T, typename Accum>
void fold_serialized_k(std::span<const std::byte> data, std::size_t k,
                       const char* who, Accum&& accum) {
  bytes::Reader r(data);
  std::uint64_t n = 0;
  const auto raw = r.get_counted_raw<T>(&n);
  if (n != k) {
    throw ProtocolError(std::string(who) + ": state arrived with mismatched k");
  }
  if (!r.exhausted()) {
    throw ProtocolError(std::string(who) + ": trailing bytes after state");
  }
  for (std::size_t i = 0; i < k; ++i) {
    accum(bytes::load_unaligned<T>(raw.data() + i * sizeof(T)));
  }
}

}  // namespace detail

/// k smallest values of the reduced sequence, generated in ascending
/// order.  k is a runtime constructor parameter carried by the prototype.
template <typename T>
class MinK {
 public:
  static constexpr bool commutative = true;

  explicit MinK(std::size_t k)
      : v_(k, std::numeric_limits<T>::max()) {
    if (k == 0) throw ArgumentError("MinK: k must be positive");
  }

  /// Listing 4's accumulate: if x beats the current worst kept value,
  /// replace it and bubble toward its sorted position.  v_ is kept in
  /// descending order so v_[0] is the rejection threshold.
  void accum(const T& x) {
    if (x < v_[0]) {
      v_[0] = x;
      for (std::size_t i = 1; i < v_.size() && v_[i - 1] < v_[i]; ++i) {
        std::swap(v_[i - 1], v_[i]);
      }
    }
  }

  /// Listing 4's combine: fold the other state's kept values through
  /// accumulate.
  void combine(const MinK& other) {
    for (const T& x : other.v_) accum(x);
  }

  /// The k minimum values, ascending.  Positions never filled (fewer than
  /// k inputs) remain at T's maximum, matching the identity definition.
  [[nodiscard]] std::vector<T> gen() const {
    std::vector<T> out(v_.rbegin(), v_.rend());
    return out;
  }

  [[nodiscard]] std::size_t k() const { return v_.size(); }

  void save(bytes::Writer& w) const { w.put_vector(v_); }
  void load(bytes::Reader& r) {
    auto v = r.get_vector<T>();
    if (v.size() != v_.size()) {
      throw ProtocolError("MinK: state arrived with mismatched k");
    }
    v_ = std::move(v);
  }

  /// Zero-copy combine: folds the peer's kept values straight out of the
  /// receive buffer (no intermediate operator, no allocation).
  void combine_from_bytes(std::span<const std::byte> data) {
    detail::fold_serialized_k<T>(data, v_.size(), "MinK",
                                 [this](const T& x) { accum(x); });
  }

 private:
  std::vector<T> v_;  // descending; v_[0] = largest kept value
};

/// k largest values of the reduced sequence, generated in descending
/// order; the mirror of MinK.
template <typename T>
class MaxK {
 public:
  static constexpr bool commutative = true;

  explicit MaxK(std::size_t k)
      : v_(k, std::numeric_limits<T>::lowest()) {
    if (k == 0) throw ArgumentError("MaxK: k must be positive");
  }

  void accum(const T& x) {
    if (x > v_[0]) {
      v_[0] = x;
      for (std::size_t i = 1; i < v_.size() && v_[i - 1] > v_[i]; ++i) {
        std::swap(v_[i - 1], v_[i]);
      }
    }
  }

  void combine(const MaxK& other) {
    for (const T& x : other.v_) accum(x);
  }

  /// The k maximum values, descending.
  [[nodiscard]] std::vector<T> gen() const {
    return std::vector<T>(v_.rbegin(), v_.rend());
  }

  [[nodiscard]] std::size_t k() const { return v_.size(); }

  void save(bytes::Writer& w) const { w.put_vector(v_); }
  void load(bytes::Reader& r) {
    auto v = r.get_vector<T>();
    if (v.size() != v_.size()) {
      throw ProtocolError("MaxK: state arrived with mismatched k");
    }
    v_ = std::move(v);
  }

  /// Zero-copy combine; see MinK::combine_from_bytes.
  void combine_from_bytes(std::span<const std::byte> data) {
    detail::fold_serialized_k<T>(data, v_.size(), "MaxK",
                                 [this](const T& x) { accum(x); });
  }

 private:
  std::vector<T> v_;  // ascending; v_[0] = smallest kept value
};

}  // namespace rsmpi::rs::ops
