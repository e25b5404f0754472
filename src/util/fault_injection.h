#ifndef CPDG_UTIL_FAULT_INJECTION_H_
#define CPDG_UTIL_FAULT_INJECTION_H_

#include <cstdint>
#include <mutex>
#include <optional>

namespace cpdg::util {

/// \brief Test-only fault injection consulted by the atomic-file layer
/// (util::AtomicWriteFile). Arms simulated storage failures so the
/// fault-tolerance suite can prove that a crash or corruption at any point
/// of a checkpoint save leaves either the old file or the new file fully
/// intact, never torn state.
///
/// Faults are installed either with an RAII FaultInjector::Scope (tests) or
/// via environment variables read once at first use (whole-process runs):
///   CPDG_FAULT_CRASH_AFTER_BYTES  stop the payload write after N bytes and
///                                 fail the save, as if the process died
///   CPDG_FAULT_FAIL_RENAME=1      fail the final publish rename
///   CPDG_FAULT_BITFLIP_BYTE       XOR payload byte N (mod size) with
///                                 CPDG_FAULT_BITFLIP_MASK (default 0x01)
///                                 before it reaches the disk — silent
///                                 corruption the CRC layer must catch
///
/// Serving-path fault (consumed one-shot through ConsumeServeStallMillis,
/// so a single injected fault fires exactly once no matter how many
/// executor workers race on it):
///   CPDG_FAULT_SERVE_STALL_MS     the next serving executor batch stalls
///                                 for N ms — a wedged worker the watchdog
///                                 must detect and restart
///
/// The injector is never consulted on read paths of the storage layer;
/// corruption testing of loads is done by mutating the file directly.
class FaultInjector {
 public:
  struct Config {
    /// >= 0: the payload write stops after this many bytes and the save
    /// fails with IoError, leaving a partial temp file behind.
    int64_t crash_after_bytes = -1;
    /// Fail the temp -> target rename (crash between write and publish).
    bool fail_rename = false;
    /// >= 0: flip bits of the payload byte at this offset (mod payload
    /// size) on its way to disk; the save itself reports success.
    int64_t bitflip_byte = -1;
    uint8_t bitflip_mask = 0x01;
    /// > 0: the next serving executor batch sleeps this long (one-shot).
    int64_t serve_stall_millis = 0;
  };

  /// \brief RAII installer; the previous config (or inactivity) is
  /// restored on destruction, so scopes nest.
  class Scope {
   public:
    explicit Scope(const Config& config);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    std::optional<Config> previous_;
  };

  /// Process-wide injector; initialized from the CPDG_FAULT_* environment
  /// variables on first access.
  static FaultInjector& Instance();

  /// Snapshot of the armed config, or nullopt when no fault is armed.
  std::optional<Config> active() const;

  /// \brief One-shot serving stall: atomically disarms the fault it
  /// returns, so exactly one of any number of racing executor workers
  /// observes it. Returns 0 when the fault is not armed.
  int64_t ConsumeServeStallMillis();

 private:
  FaultInjector();

  void Install(const std::optional<Config>& config);

  mutable std::mutex mu_;
  std::optional<Config> config_;
};

}  // namespace cpdg::util

#endif  // CPDG_UTIL_FAULT_INJECTION_H_
