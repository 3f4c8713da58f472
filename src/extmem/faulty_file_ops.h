// Syscall-level fault shim for FileStorage, in the SQLite-VFS tradition.
//
// Wraps an inner FileOps (the kernel by default) and scripts failures at
// the syscall boundary — beneath FileStorage's EINTR/short-I/O loops,
// beneath the device's retry ladder, beneath the WAL's group commit — so
// the whole resilience stack is exercised against exactly the failures a
// real filesystem produces:
//
//   failNth — the nth syscall of a kind returns -1 with a scripted
//       errno.
//   shortReadNth / shortWriteNth — the nth pread/pwrite transfers only
//       `bytes` and returns the short count (the resume loops must cope).
//   tornWriteNth — the nth pwrite persists only a prefix, THEN fails:
//       a sector torn mid-transfer.
//   powerCutAfter — the machine dies at the Nth syscall overall: the
//       in-flight pwrite may persist a torn prefix, every unsynced
//       buffered write is dropped, and this and every later syscall
//       throws PowerLoss (FileStorage converts it to DeviceCrashed)
//       until restorePower().
//
// Write buffering (enableWriteBuffering) is the page-cache model that
// makes fsync discipline testable: pwrites are held in order per fd and
// only reach the inner layer at fsync(fd). preads overlay the pending
// buffers (read-your-writes), and a power cut drops everything unsynced —
// so data survives the cut IF AND ONly IF a sync() barrier covered it.
// Without buffering, a missing fsync could never lose data and the WAL's
// ack-after-sync contract would be vacuous.
//
// Determinism: every script fires on a syscall count, so a schedule
// replays exactly. Thread-safe (one mutex around every call): the WAL's
// group-commit leader and a checkpoint's manifest writes may hit a shared
// shim from different threads.
#pragma once

#include <cerrno>
#include <cstdint>
#include <mutex>
#include <vector>

#include "extmem/file_ops.h"

namespace exthash::extmem {

class FaultyFileOps final : public FileOps {
 public:
  explicit FaultyFileOps(FileOps* inner = nullptr);

  // ---- Scripting (arm before traffic; thread-safe) ----------------------

  /// The `nth` syscall of kind `sc` (1-based, per kind) fails with
  /// `err`. Sticky triggers fire on every later matching syscall too.
  void failNth(FileSyscall sc, std::uint64_t nth, int err,
               bool sticky = false);
  /// The `nth` pread transfers only `bytes` (short read).
  void shortReadNth(std::uint64_t nth, std::size_t bytes);
  /// The `nth` pwrite transfers only `bytes` (short write; succeeds).
  void shortWriteNth(std::uint64_t nth, std::size_t bytes);
  /// The `nth` pwrite persists only `bytes`, then fails with `err`.
  void tornWriteNth(std::uint64_t nth, std::size_t bytes, int err = EIO);
  /// Kill the machine at syscall number `total_syscalls` (1-based, all
  /// kinds): if it is a pwrite, `torn_bytes` of it persist first; all
  /// unsynced buffered writes are dropped; PowerLoss is thrown from then
  /// on until restorePower().
  void powerCutAfter(std::uint64_t total_syscalls, std::size_t torn_bytes = 0);

  /// Page-cache model: buffer pwrites per fd until fsync(fd). See the
  /// file comment — required for power cuts to test fsync discipline.
  void enableWriteBuffering();

  /// The reboot: lift a fired power cut (buffered writes stay lost).
  void restorePower();
  /// Drop every armed script (counters and power state survive).
  void clear();

  // ---- Counters ---------------------------------------------------------

  std::uint64_t syscalls() const;
  std::uint64_t count(FileSyscall sc) const;
  std::uint64_t faultsInjected() const;
  bool powerCutFired() const;

  // ---- FileOps ----------------------------------------------------------

  ssize_t pread(int fd, void* buf, std::size_t count, off_t offset) override;
  ssize_t pwrite(int fd, const void* buf, std::size_t count,
                 off_t offset) override;
  int fsync(int fd) override;
  int fallocate(int fd, off_t offset, off_t len) override;

 private:
  struct Trigger {
    FileSyscall sc;
    std::uint64_t nth;
    int err;
    bool sticky;
  };
  struct ShortIo {
    std::uint64_t nth;
    std::size_t bytes;
    int err;      // 0 = plain short transfer; nonzero = torn write
    bool torn;
  };
  struct PendingWrite {
    int fd;
    off_t offset;
    std::vector<char> data;
  };

  static constexpr std::size_t index(FileSyscall sc) noexcept {
    return static_cast<std::size_t>(sc);
  }

  /// Advances counters, fires the power cut and scripted faults. Returns
  /// 0, or a scripted errno the caller must report. Throws PowerLoss.
  int gate(FileSyscall sc, const void* in_flight, std::size_t count, int fd,
           off_t offset);
  void dieLocked();
  ssize_t bufferedPread(int fd, void* buf, std::size_t count, off_t offset);

  mutable std::mutex mutex_;
  FileOps* inner_;
  std::uint64_t total_syscalls_ = 0;
  std::uint64_t per_kind_[4] = {0, 0, 0, 0};
  std::uint64_t injected_ = 0;
  std::vector<Trigger> triggers_;
  std::vector<ShortIo> short_reads_;
  std::vector<ShortIo> short_writes_;
  std::uint64_t cut_at_ = 0;  // 0 = disarmed
  std::size_t cut_torn_bytes_ = 0;
  bool dead_ = false;
  bool cut_fired_ = false;
  bool buffering_ = false;
  std::vector<PendingWrite> pending_;  // unsynced writes, in issue order
};

}  // namespace exthash::extmem
