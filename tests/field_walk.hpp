// Leaf walk over an options struct's mutable fields(), for the property
// tests that perturb one option at a time and check an encoding moves.
#pragma once

#include <cstddef>
#include <tuple>
#include <type_traits>

#include "wsp/common/fields.hpp"

namespace wsp {

/// Perturbs leaf number `k` of `v`, counting depth-first in fields() order:
/// flips a bool, adds 1 to an integer or enum, maps a double x to 2x+1,
/// engages an empty optional (resets a set one) and pushes one element onto
/// a vector.  Returns false, with `k` reduced by the leaves passed, when `v`
/// has no leaf number `k`.
template <class T>
bool perturb_leaf(T& v, std::size_t& k) {
  if constexpr (requires { fields(v); }) {
    return std::apply(
        [&k](auto&... f) { return (perturb_leaf(f, k) || ...); }, fields(v));
  } else if constexpr (requires { std::tuple_size<T>::value; }) {
    for (auto& e : v)
      if (perturb_leaf(e, k)) return true;
    return false;
  } else {
    if (k != 0) {
      --k;
      return false;
    }
    if constexpr (std::is_same_v<T, bool>) {
      v = !v;
    } else if constexpr (std::is_enum_v<T>) {
      v = static_cast<T>(static_cast<std::underlying_type_t<T>>(v) + 1);
    } else if constexpr (std::is_integral_v<T>) {
      ++v;
    } else if constexpr (std::is_floating_point_v<T>) {
      v = 2 * v + 1;
    } else if constexpr (requires { v.push_back({}); }) {
      v.push_back({});
    } else if (v) {
      v.reset();
    } else {
      v.emplace();
    }
    return true;
  }
}

/// Calls `check(perturbed, leaf)` with a copy of `base` perturbed at each
/// leaf in turn; returns the number of leaves.
template <class T, class Check>
std::size_t for_each_perturbed_leaf(const T& base, Check&& check) {
  for (std::size_t leaf = 0;; ++leaf) {
    T perturbed = base;
    std::size_t k = leaf;
    if (!perturb_leaf(perturbed, k)) return leaf;
    check(perturbed, leaf);
  }
}

}  // namespace wsp
