#include "perfbench/fixture.h"

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <unordered_set>

#include "core/pipeline.h"
#include "data/dataset.h"
#include "data/scenarios.h"
#include "data/synthetic.h"

namespace perfbench {

using namespace dlner;

namespace {

// Small enough to train in a few seconds on one core, large enough for the
// floor above on every seed tried.
constexpr int kTrainSentences = 240;
constexpr int kTestSentences = 200;
constexpr int kEpochs = 2;

}  // namespace

bool TrainFixture(std::uint64_t seed, const std::string& model_path,
                  double* f1, std::string* error) {
  int fds[2];
  if (pipe(fds) != 0) {
    *error = "pipe failed";
    return false;
  }
  const pid_t pid = fork();
  if (pid < 0) {
    *error = "fork failed";
    return false;
  }
  if (pid == 0) {
    close(fds[0]);
    const data::DataSplit split = data::MakeOovSplit(
        data::Genre::kNews, kTrainSentences, kTestSentences, seed);
    core::NerConfig config;
    config.encoder = "bilstm";
    config.decoder = "crf";
    config.word_dim = 64;
    config.hidden_dim = 96;
    config.seed = seed;
    core::TrainConfig train;
    train.epochs = kEpochs;
    train.lr = 0.015;
    train.shuffle_seed = seed;
    const auto pipeline = core::Pipeline::Train(
        config, train, split.train, nullptr,
        data::EntityTypesFor(data::Genre::kNews));
    const double score = pipeline->Evaluate(split.test).micro.f1();
    const bool saved = pipeline->Save(model_path);
    char buf[64];
    const int n = std::snprintf(buf, sizeof(buf), "%.6f", score);
    const bool written = write(fds[1], buf, static_cast<size_t>(n)) == n;
    _exit(saved && written ? 0 : 1);
  }
  close(fds[1]);
  char buf[64] = {};
  const ssize_t n = read(fds[0], buf, sizeof(buf) - 1);
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (n <= 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    *error = "fixture training failed";
    return false;
  }
  *f1 = std::atof(buf);
  if (*f1 < kF1Floor) {
    *error = "fixture F1 " + std::string(buf) + " is below the floor";
    return false;
  }
  return true;
}

std::vector<Tokens> UniqueSentences(std::uint64_t seed, std::size_t n) {
  std::vector<Tokens> out;
  out.reserve(n);
  std::unordered_set<std::string> seen;
  for (std::uint64_t round = 1; out.size() < n; ++round) {
    data::GenOptions opts;
    opts.seed = seed * 1000003ULL + round;
    opts.num_sentences = 4096;
    for (auto& s : data::GenerateCorpus(data::Genre::kNews, opts).sentences) {
      std::string key;
      for (const auto& tok : s.tokens) key += tok + '\x1f';
      if (out.size() < n && !s.tokens.empty() && seen.insert(key).second) {
        out.push_back(std::move(s.tokens));
      }
    }
  }
  return out;
}

std::vector<std::string> LongDocuments(std::uint64_t seed, int docs) {
  std::vector<std::string> out;
  for (int d = 0; d < docs; ++d) {
    data::ScenarioOptions opts;
    opts.seed = seed * 7919ULL + static_cast<std::uint64_t>(d);
    const text::Corpus corpus =
        data::GenerateScenario(data::Scenario::kLongDoc, opts);
    out.push_back(data::RenderDocument(corpus, 0));
  }
  return out;
}

std::string RenderText(const std::vector<Tokens>& sentences) {
  std::string out;
  for (const Tokens& s : sentences) {
    for (std::size_t i = 0; i < s.size(); ++i) {
      if (i > 0) out.push_back(' ');
      out += s[i];
    }
    out.push_back('\n');
  }
  return out;
}

}  // namespace perfbench
