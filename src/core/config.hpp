// Top-level system configuration for DenseVLC.
//
// Bundles every subsystem's parameters with the defaults of paper
// Table 1 and Sec. 7-8, so `SystemConfig{}` is the paper's testbed.
#pragma once

#include <cstddef>

#include "core/controller.hpp"
#include "fault/fault.hpp"
#include "net/links.hpp"
#include "optics/nlos.hpp"
#include "phy/frontend.hpp"
#include "phy/ook.hpp"
#include "core/testbed.hpp"
#include "sync/timesync.hpp"

namespace densevlc::core {

/// How the TXs of a beamspot get their common start time.
enum class SyncMode {
  kNone,     ///< fire on multicast arrival (Table 5 row 2 behaviour)
  kNtpPtp,   ///< software clock sync (Sec. 6.1)
  kNlosVlc,  ///< leading-TX pilot over the floor bounce (Sec. 6.2)
};

/// MAC epoch timing.
struct MacTiming {
  double probe_chip_count = 64;     ///< chips per channel-measurement probe
  double epoch_period_s = 1.0;      ///< re-measure / re-allocate interval
  double guard_period_s = 100e-6;   ///< between pilot end and data start
};

/// Everything needed to instantiate the full system.
struct SystemConfig {
  Testbed testbed = make_experimental_testbed();
  phy::OokParams ook{};                 ///< 100 kchip/s, Table 1 currents
  phy::FrontEndConfig frontend{};       ///< RX chain incl. 1 Msps ADC
  sync::TimeSyncConfig timesync{};      ///< NTP/PTP + no-sync calibration
  optics::FloorSurface floor{};         ///< NLOS bounce surface
  SyncMode sync_mode = SyncMode::kNlosVlc;
  MacTiming mac{};
  net::LinkConfig ethernet{100e-6, 15e-6, 0.0};   ///< controller -> TXs
  net::LinkConfig wifi{1.5e-3, 0.5e-3, 0.01};     ///< RX -> controller
  double kappa = 1.3;                   ///< SJR heuristic weight
  double power_budget_w = 1.2;          ///< P_C,tot for communication
  double max_swing_a = 0.9;             ///< Isw,max
  std::uint64_t seed = 0xD5EED;         ///< master randomness seed
  fault::FaultSchedule faults{};        ///< injected component failures
};

}  // namespace densevlc::core
