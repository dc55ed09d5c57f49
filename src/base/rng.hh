/**
 * @file
 * Deterministic random number generation.
 *
 * Every stochastic component in the simulator draws from an explicitly
 * seeded Rng; the same seed always reproduces bit-identical traces and
 * simulation results. Wall-clock seeding is deliberately not provided.
 *
 * The engine and its distributions are implemented here rather than
 * taken from <random>, whose distributions are implementation-defined.
 * The engine is the standard's 64-bit Mersenne Twister, and below(),
 * range() and uniform() return exactly what libstdc++ (GCC 11 and
 * later) returns from its uniform integer and real distributions over
 * that engine. Traces therefore do not depend on the standard library
 * they were built with.
 */

#ifndef VRC_BASE_RNG_HH
#define VRC_BASE_RNG_HH

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace vrc
{

/** Deterministic pseudo-random source (64-bit Mersenne Twister). */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed)
    {
        _state[0] = seed;
        for (std::size_t i = 1; i < stateWords; ++i) {
            std::uint64_t x = _state[i - 1];
            _state[i] = 6364136223846793005ULL * (x ^ (x >> 62)) + i;
        }
    }

    /** Uniform integer in [0, bound). @pre bound > 0 */
    std::uint64_t
    below(std::uint64_t bound)
    {
        assert(bound > 0);
        return downscale(bound);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t
    range(std::uint64_t lo, std::uint64_t hi)
    {
        assert(lo <= hi);
        std::uint64_t span = hi - lo;
        if (span == UINT64_MAX)
            return next();
        return lo + downscale(span + 1);
    }

    /** Uniform real in [0, 1). */
    double uniform() { return canonical(next()); }

    /**
     * Map one engine draw to [0, 1) as libstdc++'s
     * generate_canonical<double, 53> does: double(u) / 2^64 rounded to
     * nearest, clamped below 1.
     */
    static double
    canonical(std::uint64_t u)
    {
        // Both 32-bit halves convert exactly and the one addition
        // rounds, so this is double(u) without the sign test that an
        // unsigned 64-bit conversion compiles to.
        double hi = static_cast<double>(static_cast<std::uint32_t>(u >> 32));
        double lo = static_cast<double>(static_cast<std::uint32_t>(u));
        return std::min((hi * 0x1p32 + lo) * 0x1p-64, 0x1.fffffffffffffp-1);
    }

    /** Bernoulli trial with probability @p p of true. */
    bool
    chance(double p)
    {
        return uniform() < p;
    }

    /** Geometric-ish burst length in [1, cap]. */
    std::uint64_t
    geometric(double p, std::uint64_t cap)
    {
        std::uint64_t n = 1;
        while (n < cap && !chance(p))
            ++n;
        return n;
    }

    /**
     * Sample an index in [0, n) with probability proportional to
     * weights[i]. @p total is the left-to-right sum of @p weights
     * starting from 0.0 (std::accumulate), computed once by the caller.
     */
    std::size_t
    weighted(const std::vector<double> &weights, double total)
    {
        assert(!weights.empty());
        double x = uniform() * total;
        for (std::size_t i = 0; i < weights.size(); ++i) {
            if (x < weights[i])
                return i;
            x -= weights[i];
        }
        return weights.size() - 1;
    }

    /** Derive an independent child generator (for per-CPU streams). */
    Rng
    fork()
    {
        return Rng(next() ^ 0x9e3779b97f4a7c15ULL);
    }

  private:
    // The standard's 64-bit Mersenne Twister parameters.
    static constexpr std::size_t stateWords = 312;
    static constexpr std::size_t shift = 156;
    static constexpr std::uint64_t matrixA = 0xb5026f5aa96619e9ULL;

    /** Next raw 64-bit engine output. */
    std::uint64_t
    next()
    {
        if (_pos == stateWords)
            refill();
        std::uint64_t z = _state[_pos++];
        z ^= (z >> 29) & 0x5555555555555555ULL;
        z ^= (z << 17) & 0x71d67fffeda60000ULL;
        z ^= (z << 37) & 0xfff7eee000000000ULL;
        return z ^ (z >> 43);
    }

    /**
     * Twist the whole state. Both loops run 156 independent steps with
     * no branch, so the compiler vectorizes them; the spare last word
     * holds the new first word so the second loop needs no wrap.
     */
    void
    refill()
    {
        constexpr std::uint64_t upper = ~std::uint64_t{0} << 31;
        auto twist = [](std::uint64_t cur, std::uint64_t nxt,
                        std::uint64_t far) {
            std::uint64_t y = (cur & upper) | (nxt & ~upper);
            return far ^ (y >> 1) ^ ((0 - (y & 1)) & matrixA);
        };
        std::uint64_t *s = _state;
        for (std::size_t k = 0; k < stateWords - shift; ++k)
            s[k] = twist(s[k], s[k + 1], s[k + shift]);
        s[stateWords] = s[0];
        for (std::size_t k = stateWords - shift; k < stateWords; ++k)
            s[k] = twist(s[k], s[k + 1], s[k - (stateWords - shift)]);
        _pos = 0;
    }

    /**
     * Lemire's nearly-divisionless map of one draw onto [0, bound), as
     * libstdc++'s uniform integer distribution does it for a 64-bit
     * engine: the same draws, rejections and result.
     */
    std::uint64_t
    downscale(std::uint64_t bound)
    {
        using u128 = unsigned __int128;
        u128 product = u128(next()) * bound;
        auto low = static_cast<std::uint64_t>(product);
        if (low < bound) {
            std::uint64_t threshold = (0 - bound) % bound;
            while (low < threshold) {
                product = u128(next()) * bound;
                low = static_cast<std::uint64_t>(product);
            }
        }
        return static_cast<std::uint64_t>(product >> 64);
    }

    /** Engine state plus one spare word for refill(). */
    std::uint64_t _state[stateWords + 1] = {};
    std::size_t _pos = stateWords;
};

} // namespace vrc

#endif // VRC_BASE_RNG_HH
