// The DenseVLC controller: decision logic and beamspot orchestration
// (paper Sec. 3.2).
//
// The controller periodically receives measured downlink channel
// qualities from the RXs, runs the SJR ranking heuristic under the
// configured power budget, groups the selected TXs into per-RX beamspots,
// and appoints each beamspot's leading TX (the member with the best
// channel to the served RX — its pilot also reaches the co-serving TXs
// best, since they are its neighbours).
//
// On top of the paper's happy path sits a graceful-degradation layer
// (see docs/architecture.md, "Fault model"): per-RX report aging (a
// silent RX's column is held 3 epochs, then expires) with
// exponential-backoff re-probing (1, 2, 4, 8 epochs), a watchdog that
// falls back to the last-good allocation when the epoch overruns or
// every report goes silent, dead-TX exclusion feeding the SJR ranking,
// and leader re-election when a held beamspot's leading TX dies.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "alloc/assignment.hpp"
#include "channel/model.hpp"
#include "phy/frame.hpp"

namespace densevlc::core {

/// A formed beamspot: the TXs jointly serving one RX.
struct Beamspot {
  std::size_t rx = 0;
  std::vector<std::size_t> txs;  ///< serving TX ids, rank order
  std::size_t leader = 0;        ///< appointed leading TX
};

/// Where an RX's measurement column sits in the aging state machine.
enum class RxLinkState : std::uint8_t {
  kFresh,    ///< report decoded this epoch
  kStale,    ///< silent, but the held column is still trusted
  kExpired,  ///< silent past the hold; released from the allocation
};

/// Per-RX degradation bookkeeping, exposed for tests and benches.
struct RxHealth {
  RxLinkState state = RxLinkState::kFresh;
  std::size_t silent_epochs = 0;       ///< epochs since the last report
  std::size_t backoff_epochs = 1;      ///< current re-probe interval
  std::size_t epochs_until_reprobe = 0;
  std::uint64_t reprobes = 0;          ///< backoff retries issued so far
};

/// One epoch's controller input. Empty `fresh` means every RX reported;
/// empty `dead_tx` means every TX is healthy — so the happy path pays
/// nothing for the fault plumbing.
struct EpochInput {
  channel::ChannelMatrix measured;  ///< assembled controller view
  std::vector<bool> fresh;          ///< per RX: report decoded this epoch
  std::vector<bool> dead_tx;        ///< per TX: exclude from allocation
  bool overrun = false;             ///< decision deadline missed
};

/// Decision-logic configuration.
struct ControllerConfig {
  double kappa = 1.3;
  double power_budget_w = 1.2;
  double max_swing_a = 0.9;
  channel::LinkBudget link_budget{};
};

/// Holds the latest measurements and the allocation derived from them.
class Controller {
 public:
  explicit Controller(const ControllerConfig& cfg) : cfg_{cfg} {}

  const ControllerConfig& config() const { return cfg_; }

  /// Ingests a fresh measured channel matrix and recomputes the
  /// allocation and beamspots. Returns the number of TXs assigned.
  /// Shorthand for update_epoch with all reports fresh and no faults.
  std::size_t update_channel(const channel::ChannelMatrix& measured);

  /// Full degradation-aware epoch update: ages report freshness, runs
  /// the watchdog, excludes dead TXs from the SJR ranking, and
  /// recomputes (or holds) the allocation. Returns TXs assigned.
  std::size_t update_epoch(const EpochInput& input);

  /// Latest allocation (zero-size before the first update).
  const channel::Allocation& allocation() const { return alloc_; }

  /// Beamspots formed by the latest update (empty RX groups omitted).
  const std::vector<Beamspot>& beamspots() const { return beamspots_; }

  /// Beamspot serving `rx`, if any TX was assigned to it.
  std::optional<Beamspot> beamspot_for(std::size_t rx) const;

  /// Communication power the latest allocation draws [W].
  double power_used_w() const { return power_used_w_; }

  /// Degradation observables.
  const RxHealth& rx_health(std::size_t rx) const;
  std::uint64_t watchdog_holds() const { return watchdog_holds_; }
  std::uint64_t leader_reelections() const { return leader_reelections_; }

  /// Expected per-RX Shannon throughput under a (typically the true)
  /// channel matrix [bit/s].
  std::vector<double> expected_throughput(
      const channel::ChannelMatrix& truth) const;

  /// Builds the Ethernet frame commanding a data transmission to `rx`:
  /// TX mask of the serving beamspot, its leader, and the MAC frame.
  /// Returns nullopt when no beamspot serves `rx`.
  std::optional<phy::ControllerFrame> make_data_command(
      std::size_t rx, std::vector<std::uint8_t> payload,
      std::uint16_t src) const;

 private:
  /// Advances the per-RX aging/backoff state machine for one epoch.
  /// Returns true when at least one RX reported fresh.
  bool age_reports(const std::vector<bool>& fresh, std::size_t num_rx);

  /// Strips dead TXs out of the held beamspots and allocation,
  /// re-electing leaders where the leading TX died.
  void prune_dead_txs(const std::vector<bool>& dead_tx);

  ControllerConfig cfg_;
  channel::Allocation alloc_;
  std::vector<Beamspot> beamspots_;
  double power_used_w_ = 0.0;
  channel::ChannelMatrix last_view_;   ///< measured view of the last decision
  std::vector<RxHealth> health_;
  bool have_decision_ = false;
  std::uint64_t watchdog_holds_ = 0;
  std::uint64_t leader_reelections_ = 0;
};

}  // namespace densevlc::core
