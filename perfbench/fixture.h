// Inputs every workload derives from its seed. None of this is timed.
#ifndef PERFBENCH_FIXTURE_H_
#define PERFBENCH_FIXTURE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Tokens = std::vector<std::string>;

/// Held-out exact-match F1 the fixture model must reach, so it emits real
/// spans and span rendering and the document memory do real work.
inline constexpr double kF1Floor = 0.70;

/// Trains the reference cell (Lample et al. BiLSTM-CRF: word 64, hidden
/// 96) on seeded news-genre data and saves it to `model_path`. Runs in a
/// child process so the runner's peak RSS never includes training. Returns
/// false with `*error` set on any failure; `*f1` is the held-out F1.
bool TrainFixture(std::uint64_t seed, const std::string& model_path,
                  double* f1, std::string* error);

/// `n` distinct pre-tokenized news-genre sentences (~11 tokens each).
std::vector<Tokens> UniqueSentences(std::uint64_t seed, std::size_t n);

/// Raw text of `docs` long_doc scenario documents (>= 10k tokens each).
std::vector<std::string> LongDocuments(std::uint64_t seed, int docs);

/// The sentences rendered as one newline-separated document.
std::string RenderText(const std::vector<Tokens>& sentences);

}  // namespace perfbench

#endif  // PERFBENCH_FIXTURE_H_
