// One field list per options struct and per checkpointed state record.
// Each struct declares beside itself
//
//   auto fields(Of<MeshOptions> auto& o) {
//     return std::tie(o.input_queue_capacity, o.link_latency, ...);
//   }
//
// naming every data member in declaration order (a private record declares
// it as a hidden friend).  ADL finds it, and the one overload serves const
// access (ckpt::save_fields: checkpoint frames, the campaign fingerprint)
// and mutable access (ckpt::load_fields, property tests).  Both
// static_assert that the list is as long as the aggregate, so a member
// added without an entry fails the build.
#pragma once

#include <cstddef>
#include <tuple>
#include <type_traits>
#include <utility>

namespace wsp {

/// `Of<T> auto& o` binds `T&` and `const T&` alike.
template <class U, class T>
concept Of = std::is_same_v<std::remove_const_t<U>, T>;

namespace detail {
// Converts to any member type.  The && qualifier lets a member's own
// converting constructor (std::optional's) win instead of tying with it.
struct AnyMember {
  template <class U>
  operator U&() const&&;
};

template <class T, class... Members>
constexpr std::size_t brace_arity() {
  if constexpr (requires { T{std::declval<Members>()..., AnyMember{}}; })
    return brace_arity<T, Members..., AnyMember>();
  else
    return sizeof...(Members);
}
}  // namespace detail

/// Data members of aggregate `T`: the most initializers a braced list takes.
template <class T>
inline constexpr std::size_t member_count = detail::brace_arity<T>();

}  // namespace wsp
