#include "extmem/faulty_file_ops.h"

#include <algorithm>
#include <cstring>

#include "util/random.h"

namespace exthash::extmem {

FaultyFileOps::FaultyFileOps(std::uint64_t seed, FileOps* inner)
    : inner_(inner != nullptr ? inner : &realFileOps()),
      rng_state_(splitmix64(seed ^ 0xF11E0F5FA017C0DEULL)) {}

void FaultyFileOps::failNth(FileSyscall sc, std::uint64_t nth, int err,
                            bool sticky) {
  std::lock_guard<std::mutex> lock(mutex_);
  triggers_.push_back(Trigger{sc, nth, err, sticky});
}

void FaultyFileOps::setErrnoProbability(FileSyscall sc, double p, int err) {
  std::lock_guard<std::mutex> lock(mutex_);
  probability_[index(sc)] = p;
  probability_err_[index(sc)] = err;
}

void FaultyFileOps::shortReadNth(std::uint64_t nth, std::size_t bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  short_reads_.push_back(ShortIo{nth, bytes, 0, false});
}

void FaultyFileOps::shortWriteNth(std::uint64_t nth, std::size_t bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  short_writes_.push_back(ShortIo{nth, bytes, 0, false});
}

void FaultyFileOps::tornWriteNth(std::uint64_t nth, std::size_t bytes,
                                 int err) {
  std::lock_guard<std::mutex> lock(mutex_);
  short_writes_.push_back(ShortIo{nth, bytes, err, true});
}

void FaultyFileOps::powerCutAfter(std::uint64_t total_syscalls,
                                  std::size_t torn_bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  cut_at_ = total_syscalls;
  cut_torn_bytes_ = torn_bytes;
}

void FaultyFileOps::enableWriteBuffering() {
  std::lock_guard<std::mutex> lock(mutex_);
  buffering_ = true;
}

void FaultyFileOps::restorePower() {
  std::lock_guard<std::mutex> lock(mutex_);
  dead_ = false;
}

void FaultyFileOps::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  triggers_.clear();
  short_reads_.clear();
  short_writes_.clear();
  for (double& p : probability_) p = 0;
  cut_at_ = 0;
  cut_torn_bytes_ = 0;
}

std::uint64_t FaultyFileOps::syscalls() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_syscalls_;
}

std::uint64_t FaultyFileOps::count(FileSyscall sc) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return per_kind_[index(sc)];
}

std::uint64_t FaultyFileOps::faultsInjected() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return injected_;
}

bool FaultyFileOps::powerCutFired() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return cut_fired_;
}

double FaultyFileOps::nextUniform() {
  rng_state_ += 0x9e3779b97f4a7c15ULL;
  return static_cast<double>(splitmix64(rng_state_) >> 11) * 0x1.0p-53;
}

void FaultyFileOps::dieLocked() {
  cut_fired_ = true;
  dead_ = true;
  cut_at_ = 0;
  // The page cache is gone: everything unsynced is lost, even writes
  // issued before the cut — that is the whole point of fsync discipline.
  pending_.clear();
  throw PowerLoss{total_syscalls_};
}

int FaultyFileOps::gate(FileSyscall sc, const void* in_flight,
                        std::size_t count, int fd, off_t offset) {
  if (dead_) throw PowerLoss{total_syscalls_};
  ++total_syscalls_;
  const std::uint64_t n = ++per_kind_[index(sc)];

  if (cut_at_ != 0 && total_syscalls_ >= cut_at_) {
    // A cut mid-pwrite may leave a torn prefix on the platter — written
    // STRAIGHT to the inner layer: a partial writeback that survives
    // while older unsynced writes do not (real page caches reorder).
    if (sc == FileSyscall::kPwrite && cut_torn_bytes_ > 0 &&
        in_flight != nullptr) {
      const std::size_t torn = std::min(cut_torn_bytes_, count);
      const char* src = static_cast<const char*>(in_flight);
      std::size_t done = 0;
      while (done < torn) {
        const ssize_t w = inner_->pwrite(fd, src + done, torn - done,
                                         offset + static_cast<off_t>(done));
        if (w <= 0) break;  // the platter is dying anyway
        done += static_cast<std::size_t>(w);
      }
    }
    dieLocked();
  }

  for (std::size_t i = 0; i < triggers_.size(); ++i) {
    const Trigger& t = triggers_[i];
    const bool hit = t.sc == sc && (t.sticky ? n >= t.nth : n == t.nth);
    if (!hit) continue;
    const int err = t.err;
    if (!t.sticky) {
      triggers_.erase(triggers_.begin() + static_cast<std::ptrdiff_t>(i));
    }
    ++injected_;
    return err;
  }

  const double p = probability_[index(sc)];
  if (p > 0.0 && nextUniform() < p) {
    ++injected_;
    return probability_err_[index(sc)];
  }
  return 0;
}

ssize_t FaultyFileOps::bufferedPread(int fd, void* buf, std::size_t count,
                                     off_t offset) {
  ssize_t n = inner_->pread(fd, buf, count, offset);
  if (n < 0) return n;
  // Overlay unsynced writes in issue order (read-your-writes; later
  // writes win). An overlay may extend past what the inner read returned.
  std::size_t valid = static_cast<std::size_t>(n);
  char* out = static_cast<char*>(buf);
  for (const PendingWrite& w : pending_) {
    if (w.fd != fd) continue;
    const off_t w_end = w.offset + static_cast<off_t>(w.data.size());
    const off_t r_end = offset + static_cast<off_t>(count);
    if (w_end <= offset || w.offset >= r_end) continue;
    const off_t from = std::max(w.offset, offset);
    const off_t to = std::min(w_end, r_end);
    const std::size_t dst_off = static_cast<std::size_t>(from - offset);
    if (dst_off > valid) {
      std::memset(out + valid, 0, dst_off - valid);
    }
    std::memcpy(out + dst_off,
                w.data.data() + static_cast<std::size_t>(from - w.offset),
                static_cast<std::size_t>(to - from));
    valid = std::max(valid, static_cast<std::size_t>(to - offset));
  }
  return static_cast<ssize_t>(valid);
}

ssize_t FaultyFileOps::pread(int fd, void* buf, std::size_t count,
                             off_t offset) {
  std::lock_guard<std::mutex> lock(mutex_);
  const int err = gate(FileSyscall::kPread, nullptr, count, fd, offset);
  if (err != 0) {
    errno = err;
    return -1;
  }
  std::size_t want = count;
  const std::uint64_t n = per_kind_[index(FileSyscall::kPread)];
  for (std::size_t i = 0; i < short_reads_.size(); ++i) {
    if (short_reads_[i].nth != n) continue;
    want = std::min(want, short_reads_[i].bytes);
    short_reads_.erase(short_reads_.begin() + static_cast<std::ptrdiff_t>(i));
    ++injected_;
    break;
  }
  return buffering_ ? bufferedPread(fd, buf, want, offset)
                    : inner_->pread(fd, buf, want, offset);
}

ssize_t FaultyFileOps::pwrite(int fd, const void* buf, std::size_t count,
                              off_t offset) {
  std::lock_guard<std::mutex> lock(mutex_);
  const int err = gate(FileSyscall::kPwrite, buf, count, fd, offset);
  if (err != 0) {
    errno = err;
    return -1;
  }
  std::size_t n_bytes = count;
  bool torn = false;
  int torn_err = 0;
  const std::uint64_t n = per_kind_[index(FileSyscall::kPwrite)];
  for (std::size_t i = 0; i < short_writes_.size(); ++i) {
    if (short_writes_[i].nth != n) continue;
    n_bytes = std::min(n_bytes, short_writes_[i].bytes);
    torn = short_writes_[i].torn;
    torn_err = short_writes_[i].err;
    short_writes_.erase(short_writes_.begin() +
                        static_cast<std::ptrdiff_t>(i));
    ++injected_;
    break;
  }

  if (buffering_) {
    if (n_bytes > 0) {
      const char* src = static_cast<const char*>(buf);
      pending_.push_back(PendingWrite{fd, offset,
                                      std::vector<char>(src, src + n_bytes)});
    }
  } else {
    const char* src = static_cast<const char*>(buf);
    std::size_t done = 0;
    while (done < n_bytes) {
      const ssize_t w = inner_->pwrite(fd, src + done, n_bytes - done,
                                       offset + static_cast<off_t>(done));
      if (w < 0) return w;  // inner errno stands
      if (w == 0) {
        errno = EIO;
        return -1;
      }
      done += static_cast<std::size_t>(w);
    }
  }
  if (torn) {
    // The prefix is on the platter (or in the cache); the syscall still
    // reports failure — a sector torn mid-transfer.
    errno = torn_err;
    return -1;
  }
  return static_cast<ssize_t>(n_bytes);
}

int FaultyFileOps::fsync(int fd) {
  std::lock_guard<std::mutex> lock(mutex_);
  const int err = gate(FileSyscall::kFsync, nullptr, 0, fd, 0);
  if (err != 0) {
    errno = err;
    return -1;
  }
  if (buffering_) {
    // Write back this fd's pending buffers in issue order, then barrier.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < pending_.size(); ++i) {
      PendingWrite& w = pending_[i];
      if (w.fd != fd) {
        if (kept != i) pending_[kept] = std::move(w);
        ++kept;
        continue;
      }
      std::size_t done = 0;
      while (done < w.data.size()) {
        const ssize_t r =
            inner_->pwrite(fd, w.data.data() + done, w.data.size() - done,
                           w.offset + static_cast<off_t>(done));
        if (r <= 0) {
          // Writeback failed: keep the unflushed tail pending and report
          // the failure (fsyncgate semantics are the CALLER's problem).
          for (std::size_t j = i; j < pending_.size(); ++j) {
            if (kept != j) pending_[kept] = std::move(pending_[j]);
            ++kept;
          }
          pending_.resize(kept);
          if (r == 0) errno = EIO;
          return -1;
        }
        done += static_cast<std::size_t>(r);
      }
    }
    pending_.resize(kept);
  }
  return inner_->fsync(fd);
}

int FaultyFileOps::fallocate(int fd, off_t offset, off_t len) {
  std::lock_guard<std::mutex> lock(mutex_);
  const int err = gate(FileSyscall::kFallocate, nullptr, 0, fd, offset);
  if (err != 0) {
    errno = err;
    return -1;
  }
  return inner_->fallocate(fd, offset, len);
}

}  // namespace exthash::extmem
