// Storage seam under BlockDevice: where block contents actually live.
//
// BlockDevice owns the MODEL — counted I/O, allocation, and the one retry
// ladder, which consults the fault policy on every attempt and freezes
// the device on any crash. A StorageBackend owns the BYTES. Two backends:
//
//   MemStorage  — the original in-memory chunk array. load/store are
//                 pointer math; sync is a no-op. Byte-identical to the
//                 pre-seam device, and still the default.
//   FileStorage — a preallocated file driven by pread/pwrite/fdatasync
//                 (extmem/file_storage.h). Real errno outcomes map onto
//                 the same IoError taxonomy the FaultPolicy uses, so the
//                 device's retry ladder and the quarantine/fail-stop
//                 layers above it treat both alike.
//
// Contract (what BlockDevice relies on):
//   - load(id, frame, fetch) returns the block's words: MemStorage's own
//     slot (`frame` ignored), or else `frame` itself — caller-owned, filled
//     from the medium when `fetch` is set, untouched otherwise (blind
//     overwrite). FileStorage keeps no block in memory between calls.
//   - store(id, words) persists a whole block (a no-op for MemStorage's
//     own slot). Re-issuing it is idempotent (a full-block pwrite), which
//     is what makes the device's retry ladder safe on real files. The
//     device also uses load + store to tear a write at a crash point.
//   - sync() is the durability barrier (fdatasync); throwing means dirty
//     state may be lost and the caller must treat the data as unacked.
//   - Backends throw TransientIoError / PermanentIoError (errno attached)
//     on failure and PowerLoss-derived DeviceCrashed on an injected
//     power cut, which the ladder turns into a device freeze; MemStorage
//     never throws.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace exthash::extmem {

// Same aliases as block_device.h (this header must not include it).
using Word = std::uint64_t;
using BlockId = std::uint64_t;

class FileOps;  // syscall virtualization seam, see extmem/file_ops.h

class StorageBackend {
 public:
  virtual ~StorageBackend() = default;

  virtual std::size_t wordsPerBlock() const noexcept = 0;

  /// Grow the backing store to cover ids [0, block_count).
  virtual void ensureCapacity(BlockId block_count) = 0;

  /// The block's words: a resident slot, or the caller's `frame` (filled
  /// from the medium when `fetch` is set). See the contract above.
  virtual Word* load(BlockId id, Word* frame, bool fetch) = 0;
  /// Persist `words` as the block's whole contents.
  virtual void store(BlockId id, const Word* words) = 0;
  /// Durability barrier (fdatasync for files; no-op in memory).
  virtual void sync() = 0;

  /// True when store()/sync() hit a medium that can actually fail — the
  /// device then runs every counted access through its retry ladder (as
  /// it does on any backend while a FaultPolicy is installed).
  virtual bool persistent() const noexcept = 0;
  virtual std::string_view name() const noexcept = 0;
};

/// The original in-memory array, now behind the seam. Infallible.
/// Block slots live in 1024-block chunks that never move once created, so
/// a returned slot stays valid while the caller allocates more blocks.
class MemStorage final : public StorageBackend {
 public:
  explicit MemStorage(std::size_t words_per_block)
      : words_per_block_(words_per_block) {}

  std::size_t wordsPerBlock() const noexcept override {
    return words_per_block_;
  }
  void ensureCapacity(BlockId block_count) override {
    while (chunks_.size() * kBlocksPerChunk < block_count) {
      chunks_.push_back(
          std::make_unique<Word[]>(kBlocksPerChunk * words_per_block_));
    }
  }
  Word* load(BlockId id, Word*, bool) override { return slot(id); }
  void store(BlockId id, const Word* words) override {
    Word* dst = slot(id);
    if (words != dst) std::copy(words, words + words_per_block_, dst);
  }
  void sync() override {}
  bool persistent() const noexcept override { return false; }
  std::string_view name() const noexcept override { return "mem"; }

 private:
  static constexpr std::size_t kBlocksPerChunk = 1024;

  Word* slot(BlockId id) const {
    return chunks_[id / kBlocksPerChunk].get() +
           (id % kBlocksPerChunk) * words_per_block_;
  }

  std::size_t words_per_block_;
  std::vector<std::unique_ptr<Word[]>> chunks_;
};

/// Construction-time selection of where a BlockDevice keeps its blocks.
/// Default-constructed options mean MemStorage — every existing call site
/// is unchanged.
struct StorageOptions {
  enum class Backend : std::uint8_t { kMemory, kFile };

  Backend backend = Backend::kMemory;
  /// kFile: directory for the backing file (created if missing; empty =
  /// a per-process folder under the system temp directory).
  std::string directory;
  /// kFile: request O_DIRECT. Best effort — filesystems without it
  /// (tmpfs) silently fall back to buffered I/O; FileStorage::directActive
  /// reports what engaged.
  bool direct_io = false;
  /// kFile: delete the backing file when the backend is destroyed. Keep
  /// files (false) only for postmortems — device metadata is in-process,
  /// so a leftover file is not reopenable as a device by itself.
  bool unlink_on_close = true;
  /// kFile: fallocate granularity in blocks (batched preallocation).
  std::size_t preallocate_blocks = 1024;
  /// kFile: syscall layer. nullptr = real syscalls; tests install a
  /// FaultyFileOps shim here (extmem/faulty_file_ops.h). Non-owning.
  FileOps* file_ops = nullptr;
};

/// Build a backend per `options`; `name` seeds the file name (a process-
/// unique suffix is appended, so one directory serves many devices).
std::unique_ptr<StorageBackend> makeStorage(std::size_t words_per_block,
                                            const StorageOptions& options,
                                            std::string_view name = "device");

}  // namespace exthash::extmem
