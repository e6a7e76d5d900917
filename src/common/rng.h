#ifndef PPDP_COMMON_RNG_H_
#define PPDP_COMMON_RNG_H_

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/status.h"

namespace ppdp {

/// Deterministic pseudo-random source used throughout the library. Every
/// stochastic component takes an Rng (or a seed) explicitly so experiments
/// are reproducible; nothing reads global entropy.
class Rng {
 public:
  /// Seeds the generator. The same seed always yields the same stream.
  explicit Rng(uint64_t seed) : seed_(seed), engine_(seed) {}

  /// Not copyable: an accidental copy silently forks the stream, and the
  /// two generators then replay identical deviates — a reproducibility
  /// footgun. Pass by reference, or derive an explicit independent stream
  /// with Fork() / Split().
  Rng(const Rng&) = delete;
  Rng& operator=(const Rng&) = delete;
  Rng(Rng&&) = default;
  Rng& operator=(Rng&&) = default;

  /// Returns an integer uniform in [0, n). Requires n > 0.
  uint64_t Uniform(uint64_t n) {
    PPDP_CHECK(n > 0) << "Uniform(0) is undefined";
    return std::uniform_int_distribution<uint64_t>(0, n - 1)(engine_);
  }

  /// Returns an integer uniform in [lo, hi]. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi) {
    PPDP_CHECK(lo <= hi);
    return std::uniform_int_distribution<int64_t>(lo, hi)(engine_);
  }

  /// Returns a real uniform in [0, 1).
  double UniformReal() { return std::uniform_real_distribution<double>(0.0, 1.0)(engine_); }

  /// Returns true with probability p (clamped to [0, 1]).
  bool Bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Samples an index from an (unnormalized) non-negative weight vector.
  /// Requires at least one strictly positive weight.
  size_t Categorical(const std::vector<double>& weights);

  /// Fisher-Yates shuffles `items` in place.
  template <typename T>
  void Shuffle(std::vector<T>& items) {
    for (size_t i = items.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(Uniform(i));
      std::swap(items[i - 1], items[j]);
    }
  }

  /// Samples `k` distinct indices from [0, n) (k clamped to n).
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

  /// Forks an independent generator whose stream is a deterministic function
  /// of this generator's state. Useful for giving sub-components their own
  /// streams without coupling their consumption order. Note that forking
  /// *consumes* one deviate, so the order of Fork() calls matters; parallel
  /// code should prefer Split(), which is index-addressed and const.
  Rng Fork() { return Rng(engine_()); }

  /// Derives the independent stream addressed by `stream_id`: a pure
  /// function of (construction seed, stream_id) that neither reads nor
  /// advances this generator's state. Distinct ids give statistically
  /// independent streams; the same id always gives the same stream, on
  /// every platform (the mapping is fixed integer mixing and mt19937_64 is
  /// specified bit-exactly by the standard). This is the determinism
  /// primitive of the parallel hot loops: worker i uses Split(i), so
  /// results cannot depend on how work is scheduled across threads.
  Rng Split(uint64_t stream_id) const;

  /// Serializes the full generator state (construction seed + engine
  /// position) into a portable ASCII string. Restoring it with LoadState
  /// resumes the deviate stream exactly where SaveState left it — the
  /// primitive behind checkpoint/resume of the long iterative solvers
  /// (mt19937_64's textual state is specified by the standard, so the
  /// round-trip is bit-exact across platforms).
  std::string SaveState() const;

  /// Restores a state produced by SaveState. kInvalidArgument on a
  /// malformed blob; on failure this generator is left unchanged.
  Status LoadState(const std::string& blob);

  uint64_t seed() const { return seed_; }
  std::mt19937_64& engine() { return engine_; }

 private:
  uint64_t seed_;
  std::mt19937_64 engine_;
};

}  // namespace ppdp

#endif  // PPDP_COMMON_RNG_H_
