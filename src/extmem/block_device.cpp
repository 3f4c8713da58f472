#include "extmem/block_device.h"

#include <algorithm>
#include <thread>

#include "obs/flight_recorder.h"
#include "util/audit.h"

namespace exthash::extmem {

BlockDevice::BlockDevice(std::size_t words_per_block,
                         const StorageOptions& storage)
    : BlockDevice(words_per_block, makeStorage(words_per_block, storage)) {}

BlockDevice::BlockDevice(std::size_t words_per_block,
                         std::unique_ptr<StorageBackend> storage)
    : words_per_block_(words_per_block), storage_(std::move(storage)) {
  EXTHASH_CHECK_MSG(words_per_block >= 4,
                    "block too small: " << words_per_block << " words");
  EXTHASH_CHECK_MSG(storage_ != nullptr, "null storage backend");
  EXTHASH_CHECK_MSG(storage_->wordsPerBlock() == words_per_block_,
                    "backend geometry mismatch: " << storage_->wordsPerBlock()
                                                  << " vs "
                                                  << words_per_block_);
  storage_persistent_ = storage_->persistent();
}

// ---- Backend access with the transient-retry ladder -----------------------
//
// Mirrors runFaultGate's accounting (retry.cpp) for REAL faults surfacing
// from a persistent backend: transient outcomes (EINTR storms, EAGAIN) are
// re-attempted within the same RetryPolicy budget — safe because store()
// is an idempotent full-block pwrite — and escapes are re-attributed with
// the device-level op kind and final attempt count while preserving the
// backend's errno detail. Backend faults are NOT tallied in
// stats_.faults_injected: that counter belongs to the injectors
// (FaultPolicy / FaultyFileOps keep their own).
template <class Fn>
auto BlockDevice::retryBackend(IoOpKind op, BlockId id, Fn&& fn)
    -> decltype(fn()) {
  const std::uint32_t budget =
      std::max<std::uint32_t>(1, retry_policy_.max_attempts);
  for (std::uint32_t attempt = 1;; ++attempt) {
    try {
      return fn();
    } catch (const DeviceCrashed&) {
      // Power cut at the syscall layer: freeze, so every later access
      // throws — exactly like a FaultPolicy crash trigger.
      frozen_ = true;
      throw;
    } catch (const TransientIoError& error) {
      if (attempt < budget) {
        ++stats_.io_retries;
        EXTHASH_OBS_COUNT("exthash_io_retries_total", 1);
        for (std::uint32_t q = retry_policy_.backoffQuantaFor(attempt, id);
             q > 0; --q) {
          std::this_thread::yield();
        }
        continue;
      }
      ++stats_.io_gave_up;
      EXTHASH_OBS_COUNT("exthash_io_gave_up_total", 1);
      obs::flightRecorderNoteFatal(error.what());
      throw TransientIoError(op, id, attempt, error.detail(),
                             error.posixErrno());
    } catch (const PermanentIoError& error) {
      ++stats_.io_gave_up;
      EXTHASH_OBS_COUNT("exthash_io_gave_up_total", 1);
      obs::flightRecorderNoteFatal(error.what());
      throw PermanentIoError(op, id, attempt, error.detail(),
                             error.posixErrno());
    }
  }
}

Word* BlockDevice::backendLoad(IoOpKind op, BlockId id, Word* frame,
                               bool fetch) {
  return retryBackend(op, id,
                      [&] { return storage_->load(id, frame, fetch); });
}

void BlockDevice::backendStore(IoOpKind op, BlockId id, const Word* words) {
  if (!storage_persistent_) return storage_->store(id, words);
  retryBackend(op, id, [&] { storage_->store(id, words); });
}

Word* BlockDevice::acquireFrame() const {
  if (frames_leased_ == frames_.size()) {
    frames_.push_back(std::make_unique_for_overwrite<Word[]>(words_per_block_));
  }
  return frames_[frames_leased_++].get();
}

void BlockDevice::releaseFrame() const noexcept {
  Word* frame = frames_[--frames_leased_].get();
  if (audit::enabled()) {
    std::fill(frame, frame + words_per_block_, kReleasedFrameWord);
  }
}

void BlockDevice::sync() {
  throwIfFrozen(IoOpKind::kWrite, kInvalidBlock);
  try {
    storage_->sync();
  } catch (const DeviceCrashed&) {
    frozen_ = true;
    throw;
  } catch (const IoError& error) {
    // No retry: a failed fsync may already have dropped dirty pages, so
    // re-running it cannot certify the data (backends throw permanent).
    obs::flightRecorderNoteFatal(error.what());
    throw;
  }
  ++stats_.fsyncs;
  EXTHASH_OBS_COUNT("exthash_device_fsyncs_total", 1);
}

void BlockDevice::checkLive(BlockId id) const {
  EXTHASH_CHECK_MSG(id < next_id_ && allocated_[id],
                    "access to unallocated block " << id);
}

bool BlockDevice::isAllocated(BlockId id) const noexcept {
  return id < next_id_ && allocated_[id];
}

void BlockDevice::ensureBacking(BlockId last_id) {
  storage_->ensureCapacity(last_id + 1);
  if (allocated_.size() < (last_id + 1)) allocated_.resize(last_id + 1, 0);
}

void BlockDevice::markAllocated(BlockId first, std::size_t count,
                                bool reused) {
  // Fresh file slots read as zeros (fallocate'd, or scrubbed by
  // restoreImage). Reused slots, and any arena slot (a memory restore
  // leaves rolled-back blocks in place), may hold old bytes: zero them.
  if (reused || !storage_persistent_) {
    const FrameLease zeros(*this);
    std::fill(zeros.get(), zeros.get() + words_per_block_, Word{0});
    for (std::size_t i = 0; i < count; ++i) {
      backendStore(IoOpKind::kWrite, first + i, zeros.get());
    }
  }
  std::fill_n(allocated_.begin() + static_cast<std::ptrdiff_t>(first), count,
              std::uint8_t{1});
  blocks_in_use_ += count;
  stats_.allocated_blocks += count;
}

BlockId BlockDevice::allocate() { return allocateExtent(1); }

BlockId BlockDevice::allocateExtent(std::size_t count) {
  EXTHASH_CHECK(count >= 1);
  throwIfFrozen(IoOpKind::kWrite, kInvalidBlock);
  auto it = free_pool_.find(count);
  if (it != free_pool_.end() && !it->second.empty()) {
    const BlockId first = it->second.back();
    it->second.pop_back();
    markAllocated(first, count, /*reused=*/true);
    return first;
  }
  // Grow the backing before advancing the watermark: a failed fallocate
  // (ENOSPC) then leaves the id space exactly as it was.
  const BlockId first = next_id_;
  ensureBacking(first + count - 1);
  next_id_ = first + count;
  markAllocated(first, count, /*reused=*/false);
  return first;
}

void BlockDevice::free(BlockId id) { freeExtent(id, 1); }

void BlockDevice::freeExtent(BlockId first, std::size_t count) {
  EXTHASH_CHECK(count >= 1);
  // A frozen (crashed) device ignores frees: destructors of the doomed
  // stack unwind through here, and recovery's restoreImage rewinds the
  // allocation map wholesale anyway.
  if (frozen_) return;
  for (std::size_t i = 0; i < count; ++i) {
    EXTHASH_CHECK_MSG(isAllocated(first + i),
                      "double free of block " << (first + i));
    allocated_[first + i] = 0;
  }
  blocks_in_use_ -= count;
  stats_.freed_blocks += count;
  free_pool_[count].push_back(first);
}

std::vector<Word> BlockDevice::readCopy(BlockId id) {
  std::vector<Word> out(words_per_block_);
  withRead(id, [&](std::span<const Word> data) {
    std::copy(data.begin(), data.end(), out.begin());
  });
  return out;
}

void BlockDevice::writeCopy(BlockId id, std::span<const Word> contents) {
  EXTHASH_CHECK(contents.size() <= words_per_block_);
  withOverwrite(id, [&](std::span<Word> data) {
    std::copy(contents.begin(), contents.end(), data.begin());
  });
}

BlockDevice::Image BlockDevice::captureImage() const {
  Image image;
  image.words_per_block = words_per_block_;
  image.words.resize(blocks_in_use_ * words_per_block_);
  Word* out = image.words.data();
  for (BlockId id = 0; id < next_id_; ++id) {
    if (!allocated_[id]) continue;
    // Files pread straight into the image; memory hands back its slot.
    const Word* p = storage_->load(id, out, /*fetch=*/true);
    if (p != out) std::copy(p, p + words_per_block_, out);
    out += words_per_block_;
  }
  image.allocated = allocated_;
  image.allocated.resize(next_id_);
  image.free_pool = free_pool_;
  image.next_id = next_id_;
  image.blocks_in_use = blocks_in_use_;
  return image;
}

void BlockDevice::restoreImage(const Image& image) {
  EXTHASH_CHECK_MSG(image.words_per_block == words_per_block_,
                    "image geometry mismatch: " << image.words_per_block
                                                << " vs " << words_per_block_);
  // Ids past the image's watermark become never-allocated again, and a
  // fresh allocation trusts those to read back as zeros. On a persistent
  // medium they still hold the rolled-back run's bytes — scrub them.
  if (storage_persistent_) {
    const FrameLease zeros(*this);
    std::fill(zeros.get(), zeros.get() + words_per_block_, Word{0});
    for (BlockId id = image.next_id; id < next_id_; ++id) {
      backendStore(IoOpKind::kWrite, id, zeros.get());
    }
  }
  if (image.next_id > 0) ensureBacking(image.next_id - 1);
  next_id_ = image.next_id;
  const Word* src = image.words.data();
  for (BlockId id = 0; id < next_id_; ++id) {
    if (!image.allocated[id]) continue;
    backendStore(IoOpKind::kWrite, id, src);
    src += words_per_block_;
  }
  allocated_ = image.allocated;
  allocated_.resize(next_id_);
  free_pool_ = image.free_pool;
  blocks_in_use_ = image.blocks_in_use;
}

}  // namespace exthash::extmem
