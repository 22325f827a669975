// Closed-form statistical oracles for tests of stochastic simulator
// streams.  Nothing here calls into the library: the bounds come from the
// binomial and chi-square laws alone, so a test that compares a simulated
// count against them checks the law itself, not one seed's stream.
#pragma once

#include <cmath>
#include <cstdint>

namespace wsp::oracle {

/// Two-sided significance every stochastic oracle test uses: a correct
/// stream fails a single check with probability at most 1e-6.
inline constexpr double kAlpha = 1e-6;

/// Standard normal quantile of the upper tail kAlpha / 2 (5e-7).
inline constexpr double kZTail = 4.891638475699;

/// log P(X = k) for X ~ Binomial(n, p), 0 < p < 1.
inline double binomial_log_pmf(std::uint64_t n, double p, std::uint64_t k) {
  const double nd = static_cast<double>(n), kd = static_cast<double>(k);
  return std::lgamma(nd + 1) - std::lgamma(kd + 1) - std::lgamma(nd - kd + 1) +
         kd * std::log(p) + (nd - kd) * std::log1p(-p);
}

/// P(X <= k) when `lower`, else P(X >= k), for X ~ Binomial(n, p).  Sums
/// the pmf from k away from the mean with the ratio recurrence until the
/// terms stop mattering, so the cost follows the tail length, not n; a
/// tail that holds the mean is one minus the opposite tail.
inline double binomial_tail(std::uint64_t n, double p, std::uint64_t k,
                            bool lower) {
  if (lower ? k >= n : k == 0) return 1.0;
  if (!lower && k > n) return 0.0;
  if (p <= 0.0) return lower ? 1.0 : 0.0;  // X == 0 < k
  if (p >= 1.0) return lower ? 0.0 : 1.0;  // X == n > k
  const double mean = static_cast<double>(n) * p;
  if (lower && static_cast<double>(k) >= mean)
    return 1.0 - binomial_tail(n, p, k + 1, false);
  if (!lower && static_cast<double>(k) <= mean)
    return 1.0 - binomial_tail(n, p, k - 1, true);
  const double odds = p / (1.0 - p);
  double term = std::exp(binomial_log_pmf(n, p, k));
  double sum = 0.0;
  for (std::uint64_t i = k;;) {
    sum += term;
    if (term <= sum * 1e-17) break;
    if (lower) {
      if (i == 0) break;
      term *= static_cast<double>(i) / (static_cast<double>(n - i + 1) * odds);
      --i;
    } else {
      if (i == n) break;
      term *= static_cast<double>(n - i) * odds / static_cast<double>(i + 1);
      ++i;
    }
  }
  return sum > 1.0 ? 1.0 : sum;
}

/// True when k successes in n trials of probability p pass the two-sided
/// binomial test at kAlpha (each tail at most kAlpha / 2).
inline bool binomial_consistent(std::uint64_t n, double p, std::uint64_t k) {
  return binomial_tail(n, p, k, true) >= kAlpha / 2 &&
         binomial_tail(n, p, k, false) >= kAlpha / 2;
}

/// Wilson-Hilferty quantile of chi-square with `df` degrees of freedom at
/// the standard normal deviate z.
inline double chi_square_quantile(double df, double z) {
  const double a = 2.0 / (9.0 * df);
  const double c = 1.0 - a + z * std::sqrt(a);
  return df * c * c * c;
}

/// True when a chi-square statistic with `df` degrees of freedom lies
/// inside the two-sided kAlpha acceptance band.
inline bool chi_square_consistent(double stat, double df) {
  return stat >= chi_square_quantile(df, -kZTail) &&
         stat <= chi_square_quantile(df, kZTail);
}

}  // namespace wsp::oracle
