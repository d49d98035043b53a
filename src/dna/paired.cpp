#include "dna/paired.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace pima::dna {

std::vector<ReadPair> sample_read_pairs(const Sequence& genome,
                                        const PairedReadParams& params) {
  PIMA_CHECK(params.read_length > 0, "read length must be positive");
  PIMA_CHECK(params.insert_mean >= 2.0 * static_cast<double>(params.read_length),
             "insert must fit two reads");
  PIMA_CHECK(static_cast<double>(genome.size()) >
                 params.insert_mean + 6.0 * params.insert_sd,
             "genome shorter than the insert distribution");

  std::size_t count = params.pair_count;
  if (count == 0) {
    PIMA_CHECK(params.coverage > 0.0, "coverage must be positive");
    count = static_cast<std::size_t>(
        params.coverage * static_cast<double>(genome.size()) /
        (2.0 * static_cast<double>(params.read_length)));
    count = std::max<std::size_t>(count, 1);
  }

  Rng rng(params.seed);
  std::vector<ReadPair> pairs;
  pairs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    // Draw the fragment length, clamped to something sampleable.
    const double raw = rng.gaussian(params.insert_mean, params.insert_sd);
    const auto insert = static_cast<std::size_t>(std::llround(std::clamp(
        raw, 2.0 * static_cast<double>(params.read_length),
        static_cast<double>(genome.size()))));
    const std::size_t start = rng.uniform(genome.size() - insert + 1);

    ReadPair pair;
    pair.true_insert = insert;
    pair.first = genome.subseq(start, params.read_length);
    pair.second =
        genome.subseq(start + insert - params.read_length, params.read_length)
            .reverse_complement();
    pairs.push_back(std::move(pair));
  }
  return pairs;
}

}  // namespace pima::dna
