// Deterministic pseudo-random number generation.
//
// Every stochastic component of the library (fault-map sampling, Monte Carlo
// bonding yield, synthetic traffic) draws from `wsp::Rng`, a xoshiro256**
// generator seeded explicitly by the caller.  Two runs with the same seed
// produce bit-identical results on every platform, which makes all the
// paper-reproduction experiments replayable.
#pragma once

#include <array>
#include <cstdint>
#include <limits>

#include "wsp/common/error.hpp"

namespace wsp {

/// splitmix64's increment (2^64 / golden ratio) and output mix: a bijection
/// of 64-bit words with full avalanche.  mix64(seed + kGolden64 * i) for
/// i = 1, 2, ... is the splitmix64 stream of `seed`.
inline constexpr std::uint64_t kGolden64 = 0x9e3779b97f4a7c15ull;

constexpr std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// xoshiro256** 1.0 by Blackman & Vigna (public domain reference algorithm),
/// seeded via splitmix64 so that any 64-bit seed yields a well-mixed state.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = kGolden64) { reseed(seed); }

  /// Re-initialises the state from a single 64-bit seed: the first four
  /// words of its splitmix64 stream.
  void reseed(std::uint64_t seed) {
    for (auto& word : state_) word = mix64(seed += kGolden64);
  }

  /// Next raw 64-bit value.
  std::uint64_t operator()() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  static constexpr std::uint64_t min() { return 0; }
  static constexpr std::uint64_t max() {
    return std::numeric_limits<std::uint64_t>::max();
  }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound) without modulo bias (Lemire's method).
  /// Precondition: bound >= 1 — the range [0, 0) is empty, so no value can
  /// be drawn from it.  The old `return 0` masked caller bugs by silently
  /// producing a value outside the (empty) requested range; it now throws
  /// wsp::Error, and `(0 - bound) % bound` can no longer divide by zero.
  std::uint64_t below(std::uint64_t bound) {
    require(bound != 0, "Rng::below(0): empty range [0, 0)");
    // 128-bit multiply-shift; rejection keeps the distribution exact.
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto l = static_cast<std::uint64_t>(m);
    if (l < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (l < threshold) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * bound;
        l = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Bernoulli trial with success probability `p`.
  bool bernoulli(double p) { return uniform() < p; }

  /// The raw 256-bit generator state, for checkpointing.  Restoring the
  /// four words via set_state() resumes the stream mid-sequence, which is
  /// what makes snapshot-at-cycle-k bit-identical to straight-through.
  std::array<std::uint64_t, 4> state() const {
    return {state_[0], state_[1], state_[2], state_[3]};
  }

  void set_state(const std::array<std::uint64_t, 4>& s) {
    for (int i = 0; i < 4; ++i) state_[i] = s[i];
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4]{};
};

}  // namespace wsp
