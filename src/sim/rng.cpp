#include "sim/rng.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace tmo::sim
{

namespace
{

/** splitmix64 step, used only for seed expansion. */
std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t s)
{
    seed(s);
}

void
Rng::seed(std::uint64_t s)
{
    for (auto &word : state_)
        word = splitmix64(s);
    cachedNormal_ = 0.0;
    hasCachedNormal_ = false;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

bool
Rng::chance(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return uniform() < p;
}

double
Rng::exponential(double mean)
{
    // Inverse CDF; uniform() < 1 so the log argument is > 0.
    return -mean * std::log(1.0 - uniform());
}

double
Rng::normal()
{
    if (hasCachedNormal_) {
        hasCachedNormal_ = false;
        return cachedNormal_;
    }
    double u1 = 0.0;
    do {
        u1 = uniform();
    } while (u1 <= 0.0);
    const double u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    cachedNormal_ = r * std::sin(theta);
    hasCachedNormal_ = true;
    return r * std::cos(theta);
}

double
Rng::normal(double mean, double stddev)
{
    return mean + stddev * normal();
}

double
Rng::lognormal(double mu, double sigma)
{
    return std::exp(mu + sigma * normal());
}

LognormalParams
Rng::lognormalParams(double median, double p99_over_median)
{
    assert(median > 0.0);
    assert(p99_over_median >= 1.0);
    // For X ~ LogNormal(mu, sigma): median = e^mu and
    // p99 = e^(mu + 2.326 * sigma), so sigma follows from the ratio.
    constexpr double z99 = 2.3263478740408408;
    LognormalParams params;
    params.sigma = std::log(p99_over_median) / z99;
    params.mu = std::log(median);
    return params;
}

double
Rng::lognormalMedianP99(double median, double p99_over_median)
{
    const LognormalParams params =
        lognormalParams(median, p99_over_median);
    return lognormal(params.mu, params.sigma);
}

ZipfSampler::ZipfSampler(std::size_t n, double s)
{
    if (n == 0)
        throw std::invalid_argument("ZipfSampler: n must be > 0");
    cdf_.resize(n);
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
        cdf_[i] = sum;
    }
    for (auto &c : cdf_)
        c /= sum;
    cdf_.back() = 1.0;
}

std::size_t
ZipfSampler::sample(Rng &rng) const
{
    const double u = rng.uniform();
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    if (it == cdf_.end())
        --it;
    return static_cast<std::size_t>(it - cdf_.begin());
}

double
ZipfSampler::pmf(std::size_t rank) const
{
    assert(rank < cdf_.size());
    if (rank == 0)
        return cdf_[0];
    return cdf_[rank] - cdf_[rank - 1];
}

} // namespace tmo::sim
