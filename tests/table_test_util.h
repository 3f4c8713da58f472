// Shared fixtures for table tests: a device + budget + hash bundle with
// paper-style parameters (b records per block, m words of memory).
#pragma once

#include <cstdlib>
#include <memory>
#include <span>
#include <string>

#include "extmem/block_device.h"
#include "extmem/bucket_page.h"
#include "extmem/memory_budget.h"
#include "hashfn/hash_family.h"
#include "tables/hash_table.h"
#include "util/random.h"

namespace exthash::testing {

/// Storage selection for every rig-built device, driven by environment:
///   EXTHASH_TEST_STORAGE=file        — file backend in the temp directory
///   EXTHASH_TEST_STORAGE=file:<dir>  — file backend under <dir>
///   EXTHASH_TEST_KEEP_FILES=1       — keep backing files for postmortems
/// Unset (the default) keeps the in-memory backend, so the whole suite
/// can be re-run against real files without touching a single test.
inline extmem::StorageOptions testStorageOptions() {
  extmem::StorageOptions options;
  const char* env = std::getenv("EXTHASH_TEST_STORAGE");
  if (env == nullptr || *env == '\0') return options;
  const std::string spec(env);
  if (spec == "mem") return options;
  options.backend = extmem::StorageOptions::Backend::kFile;
  constexpr std::string_view kFilePrefix = "file:";
  if (spec.rfind(kFilePrefix, 0) == 0) {
    options.directory = spec.substr(kFilePrefix.size());
  }
  const char* keep = std::getenv("EXTHASH_TEST_KEEP_FILES");
  if (keep != nullptr && *keep != '\0' && *keep != '0') {
    options.unlink_on_close = false;
  }
  return options;
}

/// A device honoring the env-selected backend (see testStorageOptions).
inline std::unique_ptr<extmem::BlockDevice> makeTestDevice(
    std::size_t words_per_block) {
  return std::make_unique<extmem::BlockDevice>(words_per_block,
                                               testStorageOptions());
}

/// Word `i` of block `id`, read without counting an I/O.
inline extmem::Word inspectWord(const extmem::BlockDevice& device,
                                extmem::BlockId id, std::size_t i = 0) {
  return device.inspect(
      id, [i](std::span<const extmem::Word> words) { return words[i]; });
}

struct TestRig {
  std::unique_ptr<extmem::BlockDevice> device;
  std::unique_ptr<extmem::MemoryBudget> memory;
  hashfn::HashPtr hash;

  /// b = records per block; memory limit in words (0 = unlimited).
  TestRig(std::size_t b, std::size_t memory_words = 0,
          std::uint64_t seed = 42,
          hashfn::HashKind kind = hashfn::HashKind::kMix)
      : device(makeTestDevice(extmem::wordsForRecordCapacity(b))),
        memory(std::make_unique<extmem::MemoryBudget>(memory_words)),
        hash(hashfn::makeHash(kind, seed)) {}

  tables::TableContext context() const {
    return tables::TableContext{device.get(), memory.get(), hash};
  }

  std::uint64_t cost() const { return device->stats().cost(); }
};

/// Distinct keys for test workloads.
inline std::vector<std::uint64_t> distinctKeys(std::size_t n,
                                               std::uint64_t seed = 7) {
  FeistelPermutation perm(seed);
  std::vector<std::uint64_t> keys;
  keys.reserve(n);
  for (std::size_t i = 0; i < n; ++i) keys.push_back(perm(i));
  return keys;
}

/// Layout visitor that counts items and collects keys.
class CountingVisitor : public tables::LayoutVisitor {
 public:
  void memoryItem(const Record& r) override {
    ++memory_items;
    keys.push_back(r.key);
  }
  void diskItem(extmem::BlockId, const Record& r) override {
    ++disk_items;
    keys.push_back(r.key);
  }
  std::size_t memory_items = 0;
  std::size_t disk_items = 0;
  std::vector<std::uint64_t> keys;
};

}  // namespace exthash::testing
