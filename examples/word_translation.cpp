// Word-translation scenario: the service behind the paper's Fine-Grain
// trace, built on the Neptune service layer.
//
// The paper's traces came from a search engine's internal service that
// "provides the translation between query words and their internal
// representations" and "allows multiple translations in one access". This
// example implements that service with the neptune API:
//   * the dictionary is hash-partitioned over two partition groups;
//   * each partition group is replicated on two ServiceNodes;
//   * a TRANSLATE method maps a batch of words to 64-bit ids in one access
//     (the paper's multi-translation accesses);
//   * clients find replicas through the availability directory and
//     load-balance with random polling (poll size 2) + the 1 ms discard.
//
// Run:  ./build/examples/word_translation [--queries=300]
#include <cstdio>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/log.h"
#include "common/rng.h"
#include "cluster/directory.h"
#include "net/clock.h"
#include "net/codec.h"
#include "neptune/service_client.h"
#include "neptune/service_node.h"
#include "stats/accumulator.h"

using namespace finelb;

namespace {

constexpr std::uint16_t kTranslate = 1;
constexpr const char* kService = "word-translation";

std::uint32_t partition_of(const std::string& word) {
  // Hash-partition by first character: a deterministic stand-in for the
  // dictionary sharding a real deployment would use.
  return word.empty() ? 0u : (static_cast<std::uint32_t>(word[0]) % 2);
}

/// Stable 64-bit id for a word (FNV-1a), the "internal representation".
std::uint64_t word_id(const std::string& word) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : word) {
    h = (h ^ static_cast<std::uint8_t>(c)) * 0x100000001b3ull;
  }
  return h;
}

/// TRANSLATE's result payload: one id per requested word, in request order.
struct Translation : net::Message<Translation> {
  static constexpr std::uint8_t kType = 1;
  std::vector<std::uint64_t> ids;

  template <class Self, class V>
  static void fields(Self& m, V& v) {
    v(m.ids);
  }
};

/// args: '\n'-separated words; result: an encoded Translation.
std::vector<std::uint8_t> translate_handler(
    std::uint32_t partition, std::span<const std::uint8_t> args) {
  Translation out;
  std::string word;
  const auto flush = [&] {
    if (word.empty()) return;
    if (partition_of(word) != partition) {
      throw std::runtime_error("word routed to wrong partition: " + word);
    }
    out.ids.push_back(word_id(word));
    word.clear();
  };
  for (const std::uint8_t c : args) {
    if (c == '\n') {
      flush();
    } else {
      word.push_back(static_cast<char>(c));
    }
  }
  flush();
  return out.encode();
}

std::unique_ptr<neptune::ServiceNode> make_node(
    ServerId id, std::uint32_t partition, const net::Address& directory) {
  neptune::ServiceNodeOptions options;
  options.id = id;
  options.service_name = kService;
  options.partitions = {partition};
  auto node = std::make_unique<neptune::ServiceNode>(options);
  node->register_method(kTranslate, translate_handler);
  node->enable_publishing(directory, 100 * kMillisecond, 500 * kMillisecond);
  node->start();
  return node;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = Flags::parse(argc, argv);
  init_log_level(flags);
  const std::int64_t queries = flags.get_int("queries", 300);

  cluster::DirectoryServer directory;
  directory.start();
  std::vector<std::unique_ptr<neptune::ServiceNode>> nodes;
  nodes.push_back(make_node(0, 0, directory.address()));
  nodes.push_back(make_node(1, 0, directory.address()));
  nodes.push_back(make_node(2, 1, directory.address()));
  nodes.push_back(make_node(3, 1, directory.address()));

  cluster::DirectoryClient waiter(directory.address());
  waiter.wait_for_servers(kService, 4);

  neptune::ServiceClientOptions client_options;
  client_options.service_name = kService;
  client_options.directory = directory.address();
  client_options.policy = PolicyConfig::polling(2, from_ms(1.0));
  client_options.seed = 99;
  neptune::ServiceClient client(client_options);

  const std::vector<std::string> vocabulary = {
      "cluster", "load",   "balancing", "fine",   "grain",  "network",
      "service", "random", "polling",   "discard", "neptune", "teoma"};

  Rng rng(5);
  Accumulator latency_ms;
  std::int64_t words_translated = 0;
  std::int64_t mismatches = 0;
  for (std::int64_t q = 0; q < queries; ++q) {
    // A query translates 1-4 words; words sharing a partition are batched
    // into one access ("multiple translations in one access").
    std::vector<std::string> batch[2];
    const std::size_t n = 1 + rng.uniform_int(4);
    for (std::size_t i = 0; i < n; ++i) {
      const auto& word = vocabulary[rng.uniform_int(vocabulary.size())];
      batch[partition_of(word)].push_back(word);
    }
    for (std::uint32_t partition = 0; partition < 2; ++partition) {
      if (batch[partition].empty()) continue;
      std::string args;
      for (const auto& word : batch[partition]) args += word + "\n";
      const auto result = client.call(
          kTranslate, partition,
          std::span(reinterpret_cast<const std::uint8_t*>(args.data()),
                    args.size()));
      if (!result.transport_ok || result.status != neptune::RpcStatus::kOk) {
        ++mismatches;
        continue;
      }
      latency_ms.add(to_ms(result.latency));
      Translation translation;
      if (!Translation::try_decode(result.data, translation) ||
          translation.ids.size() != batch[partition].size()) {
        ++mismatches;
        continue;
      }
      for (std::size_t i = 0; i < translation.ids.size(); ++i) {
        ++words_translated;
        if (translation.ids[i] != word_id(batch[partition][i])) ++mismatches;
      }
    }
  }

  std::printf(
      "translated %lld words over %lld queries: mean access latency %.3f ms, "
      "mismatches %lld\n",
      static_cast<long long>(words_translated),
      static_cast<long long>(queries), latency_ms.mean(),
      static_cast<long long>(mismatches));
  std::printf("polls sent: %lld, retries: %lld, mapping refreshes: %lld\n",
              static_cast<long long>(client.stats().polls_sent),
              static_cast<long long>(client.stats().retries),
              static_cast<long long>(client.stats().mapping_refreshes));

  for (auto& node : nodes) {
    std::printf("node %d served %lld accesses\n", node->id(),
                static_cast<long long>(node->accesses_served()));
  }
  for (auto& node : nodes) node->stop();
  directory.stop();
  return mismatches == 0 ? 0 : 1;
}
