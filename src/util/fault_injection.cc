#include "util/fault_injection.h"

#include <cstdlib>

namespace cpdg::util {

FaultInjector::FaultInjector() {
  Config config;
  bool armed = false;
  if (const char* v = std::getenv("CPDG_FAULT_CRASH_AFTER_BYTES")) {
    config.crash_after_bytes = std::atol(v);
    armed = true;
  }
  if (const char* v = std::getenv("CPDG_FAULT_FAIL_RENAME")) {
    if (v[0] == '1') {
      config.fail_rename = true;
      armed = true;
    }
  }
  if (const char* v = std::getenv("CPDG_FAULT_BITFLIP_BYTE")) {
    config.bitflip_byte = std::atol(v);
    armed = true;
  }
  if (const char* v = std::getenv("CPDG_FAULT_BITFLIP_MASK")) {
    config.bitflip_mask = static_cast<uint8_t>(std::strtoul(v, nullptr, 0));
  }
  if (const char* v = std::getenv("CPDG_FAULT_SERVE_STALL_MS")) {
    config.serve_stall_millis = std::atol(v);
    armed = true;
  }
  if (armed) config_ = config;
}

FaultInjector& FaultInjector::Instance() {
  static FaultInjector* injector = new FaultInjector();
  return *injector;
}

std::optional<FaultInjector::Config> FaultInjector::active() const {
  std::lock_guard<std::mutex> lock(mu_);
  return config_;
}

int64_t FaultInjector::ConsumeServeStallMillis() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!config_.has_value() || config_->serve_stall_millis <= 0) return 0;
  int64_t millis = config_->serve_stall_millis;
  config_->serve_stall_millis = 0;
  return millis;
}

void FaultInjector::Install(const std::optional<Config>& config) {
  std::lock_guard<std::mutex> lock(mu_);
  config_ = config;
}

FaultInjector::Scope::Scope(const Config& config) {
  FaultInjector& injector = FaultInjector::Instance();
  previous_ = injector.active();
  injector.Install(config);
}

FaultInjector::Scope::~Scope() {
  FaultInjector::Instance().Install(previous_);
}

}  // namespace cpdg::util
