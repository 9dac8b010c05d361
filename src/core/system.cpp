#include "core/system.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"
#include "mac/arq.hpp"
#include "mac/report.hpp"
#include "sync/nlos_sync.hpp"

namespace densevlc::core {
namespace {

ControllerConfig controller_config(const SystemConfig& cfg) {
  ControllerConfig cc;
  cc.kappa = cfg.kappa;
  cc.power_budget_w = cfg.power_budget_w;
  cc.max_swing_a = cfg.max_swing_a;
  cc.link_budget = cfg.testbed.budget;
  return cc;
}

}  // namespace

DenseVlcSystem::DenseVlcSystem(
    const SystemConfig& cfg,
    std::vector<std::unique_ptr<geom::MobilityModel>> mobility)
    : cfg_{cfg},
      mobility_{std::move(mobility)},
      controller_{controller_config(cfg)},
      prober_{cfg.testbed.led, cfg.ook, cfg.frontend, cfg.max_swing_a},
      data_path_{cfg.testbed.led, cfg.ook, cfg.frontend},
      master_rng_{cfg.seed} {
  last_reports_.assign(mobility_.size(),
                       std::vector<double>(num_tx(), 0.0));

  // Characterize the NLOS sync error once, for a representative adjacent
  // TX pair, and bootstrap per-frame offsets from the samples.
  if (cfg_.sync_mode == SyncMode::kNlosVlc) {
    sync::NlosSyncConfig nc;
    const double h = cfg_.testbed.grid.mount_height_m;
    nc.leader_pose = geom::ceiling_pose(1.25, 1.25, h);
    nc.follower_pose = geom::ceiling_pose(1.75, 1.25, h);
    nc.emitter = cfg_.testbed.emitter;
    nc.pd = cfg_.testbed.pd;
    nc.floor = cfg_.floor;
    nc.led = cfg_.testbed.led;
    nc.pilot_chip_rate_hz = cfg_.ook.chip_rate_hz;
    nc.swing_current_a = cfg_.max_swing_a;
    nc.frontend = cfg_.frontend;
    sync::NlosSynchronizer synchronizer{nc};
    Rng rng = master_rng_.fork();
    for (std::size_t t = 0; t < 32; ++t) {
      const auto d = synchronizer.simulate_once(rng);
      if (d.detected && d.id_matches) {
        nlos_errors_.push_back(d.start_error_s);
      }
    }
    if (nlos_errors_.empty()) {
      // Pathological geometry (e.g. black floor): fall back to one ADC
      // sample of uncertainty so the system still runs, degraded.
      nlos_errors_.push_back(1.0 / cfg_.frontend.adc.sample_rate_hz);
    }
  }
}

DenseVlcSystem DenseVlcSystem::with_static_rxs(
    const SystemConfig& cfg, const std::vector<geom::Vec3>& positions) {
  std::vector<std::unique_ptr<geom::MobilityModel>> mobility;
  mobility.reserve(positions.size());
  for (const auto& p : positions) {
    mobility.push_back(std::make_unique<geom::StaticMobility>(p));
  }
  return DenseVlcSystem{cfg, std::move(mobility)};
}

channel::ChannelMatrix DenseVlcSystem::true_channel(double t_s) const {
  std::vector<geom::Vec3> positions;
  positions.reserve(mobility_.size());
  for (const auto& m : mobility_) positions.push_back(m->position(t_s));
  if (truth_cache_valid_ && truth_positions_.size() == positions.size()) {
    // Recompute only the columns of RXs that moved. rx_poses() uses the
    // x/y components alone, so z changes cannot dirty a column.
    std::vector<std::size_t> dirty;
    for (std::size_t k = 0; k < positions.size(); ++k) {
      if (positions[k].x != truth_positions_[k].x ||
          positions[k].y != truth_positions_[k].y) {
        dirty.push_back(k);
      }
    }
    if (!dirty.empty()) {
      cfg_.testbed.update_channel_for(truth_cache_, positions, dirty);
    }
  } else {
    truth_cache_ = cfg_.testbed.channel_for(positions);
    truth_cache_valid_ = true;
  }
  truth_positions_ = std::move(positions);
  return truth_cache_;
}

channel::ChannelMatrix DenseVlcSystem::faulted_channel(double t_s) const {
  auto h = true_channel(t_s);
  if (cfg_.faults.empty()) return h;
  for (std::size_t j = 0; j < h.num_tx(); ++j) {
    const double scale = cfg_.faults.tx_output_scale(j, t_s);
    if (scale == 1.0) continue;
    for (std::size_t k = 0; k < h.num_rx(); ++k) {
      h.set_gain(j, k, h.gain(j, k) * scale);
    }
  }
  return h;
}

std::size_t DenseVlcSystem::bbb_of(std::size_t tx_id) const {
  const std::size_t cols = cfg_.testbed.grid.cols;
  const std::size_t row = tx_id / cols;
  const std::size_t col = tx_id % cols;
  return (row / 2) * ((cols + 1) / 2) + (col / 2);
}

std::vector<double> DenseVlcSystem::draw_tx_offsets(const Beamspot& spot,
                                                    Rng& rng,
                                                    double t_s) const {
  // Offsets are shared per BBB: four TXs hang off one PRU.
  std::vector<double> offsets(spot.txs.size(), 0.0);
  std::vector<std::size_t> bbbs(spot.txs.size());
  for (std::size_t i = 0; i < spot.txs.size(); ++i) {
    bbbs[i] = bbb_of(spot.txs[i]);
  }
  const std::size_t leader_bbb = bbb_of(spot.leader);

  // Draw one offset per distinct BBB.
  std::vector<std::pair<std::size_t, double>> bbb_offsets;
  auto offset_for_bbb = [&](std::size_t bbb) -> double {
    for (const auto& [b, o] : bbb_offsets) {
      if (b == bbb) return o;
    }
    double drawn = 0.0;
    switch (cfg_.sync_mode) {
      case SyncMode::kNone: {
        double u;
        do {
          u = rng.uniform();
        } while (u <= 0.0);
        drawn = -cfg_.timesync.delivery_jitter_mean_s * std::log(u) +
                rng.uniform(0.0, cfg_.timesync.stack_start_spread_s) +
                rng.gaussian(0.0, cfg_.timesync.event_jitter_sigma_s);
        break;
      }
      case SyncMode::kNtpPtp:
        drawn = rng.gaussian(0.0, cfg_.timesync.ntp_ptp_residual_sigma_s) +
                rng.gaussian(0.0, cfg_.timesync.event_jitter_sigma_s);
        break;
      case SyncMode::kNlosVlc:
        if (bbb == leader_bbb) {
          drawn = 0.0;  // the leader defines the timeline
        } else if (cfg_.faults.sync_pilot_lost(t_s)) {
          // The follower never saw the pilot: it free-runs on multicast
          // arrival, i.e. the unsynchronized spread of SyncMode::kNone.
          double u;
          do {
            u = rng.uniform();
          } while (u <= 0.0);
          drawn = -cfg_.timesync.delivery_jitter_mean_s * std::log(u) +
                  rng.uniform(0.0, cfg_.timesync.stack_start_spread_s) +
                  rng.gaussian(0.0, cfg_.timesync.event_jitter_sigma_s);
        } else {
          const auto idx = static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(nlos_errors_.size()) - 1));
          drawn = nlos_errors_[idx];
        }
        break;
    }
    bbb_offsets.emplace_back(bbb, drawn);
    return drawn;
  };

  for (std::size_t i = 0; i < spot.txs.size(); ++i) {
    offsets[i] = offset_for_bbb(bbbs[i]);
  }
  return offsets;
}

void DenseVlcSystem::measure_and_decide(double t_s, Rng& rng) {
  const auto truth = faulted_channel(t_s);
  const auto measured = prober_.probe_matrix(truth, rng);

  // Each RX serializes a quantized channel report and sends it over the
  // lossy WiFi uplink; the controller decodes what arrives. A lost
  // report leaves the controller with the previous epoch's column.
  // Injected faults add to the random loss: a dropped-out RX never
  // transmits, and a report-loss burst swallows the whole uplink. The
  // random loss draw always happens first so a fault-free schedule
  // reproduces the pre-fault byte streams exactly.
  std::vector<bool> fresh(num_rx(), false);
  for (std::size_t k = 0; k < num_rx(); ++k) {
    mac::ChannelReport report;
    report.rx_id = static_cast<std::uint16_t>(k);
    report.epoch = epoch_counter_;
    report.gains.reserve(num_tx());
    for (std::size_t j = 0; j < num_tx(); ++j) {
      report.gains.push_back(measured.gain(j, k));
    }
    const auto wire = mac::encode_report(report);

    if (rng.bernoulli(cfg_.wifi.loss_probability)) continue;  // lost
    if (cfg_.faults.rx_down(k, t_s)) continue;
    if (cfg_.faults.reports_blocked(t_s)) continue;
    const auto decoded = mac::decode_report(wire);
    if (!decoded || decoded->gains.size() != num_tx()) continue;
    for (std::size_t j = 0; j < num_tx(); ++j) {
      last_reports_[k][j] = decoded->gains[j];
    }
    fresh[k] = true;
  }
  ++epoch_counter_;

  EpochInput input;
  input.measured = channel::ChannelMatrix{
      num_tx(), num_rx(), std::vector<double>(num_tx() * num_rx(), 0.0)};
  for (std::size_t j = 0; j < num_tx(); ++j) {
    for (std::size_t k = 0; k < num_rx(); ++k) {
      input.measured.set_gain(j, k, last_reports_[k][j]);
    }
  }
  input.fresh = std::move(fresh);
  // Dead drivers announce themselves over the Ethernet control plane
  // (BBB heartbeats), so the controller can exclude them immediately.
  if (!cfg_.faults.empty()) {
    input.dead_tx.assign(num_tx(), false);
    for (std::size_t j = 0; j < num_tx(); ++j) {
      input.dead_tx[j] = cfg_.faults.tx_dead(j, t_s);
    }
    input.overrun = cfg_.faults.epoch_overrun(t_s);
  }
  controller_.update_epoch(input);
}

EpochReport DenseVlcSystem::run_epoch_analytic(double t_s) {
  Rng rng = master_rng_.fork();
  measure_and_decide(t_s, rng);
  EpochReport report;
  report.throughput_bps = controller_.expected_throughput(true_channel(t_s));
  report.power_used_w = controller_.power_used_w();
  report.beamspots = controller_.beamspots();
  for (const auto& spot : report.beamspots) {
    report.txs_assigned += spot.txs.size();
  }
  return report;
}

RunReport DenseVlcSystem::run(double duration_s, std::size_t payload_bytes) {
  RunReport report;
  report.rx.resize(num_rx());
  report.duration_s = duration_s;

  Simulator des;
  Rng rng = master_rng_.fork();
  net::EthernetMulticast eth{des, cfg_.ethernet, rng.fork()};
  net::SimLink wifi{des, cfg_.wifi, rng.fork()};
  Rng data_rng = rng.fork();

  // Fixed payload content (deterministic; receivers verify equality).
  std::vector<std::uint8_t> payload(payload_bytes);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 7 + 13);
  }

  phy::MacFrame probe_frame;  // airtime sizing only
  probe_frame.payload = payload;
  const double airtime = data_path_.frame_airtime_s(probe_frame);
  const double probe_phase_s =
      static_cast<double>(num_tx()) *
      (cfg_.mac.probe_chip_count + 16.0) / cfg_.ook.chip_rate_hz;
  const double slot_s = airtime + cfg_.mac.guard_period_s +
                        cfg_.ethernet.base_latency_s + 2e-3;

  // The TX plane: one multicast subscriber that radiates commands.
  // Commands for one slot are batched so concurrent beamspots interfere.
  struct SlotCommand {
    std::vector<phy::ControllerFrame> frames;
  };

  // Reused across slots by the batched PHY pass in run_slot.
  JointTransmission::TransmitBatchScratch phy_batch;

  auto run_slot = [&](const SlotCommand& slot) {
    const double now_s = des.now().seconds();
    const auto truth = faulted_channel(now_s);
    // Pre-draw every beamspot's servers/offsets toward its own RX.
    struct Prepared {
      std::size_t rx;
      std::vector<ServingTx> servers;
      phy::MacFrame frame;
      std::vector<std::size_t> tx_ids;
      std::vector<double> offsets;
    };
    std::vector<Prepared> prepared;
    for (const auto& cf : slot.frames) {
      const auto spot = controller_.beamspot_for(cf.frame.dst);
      if (!spot) continue;
      Prepared p;
      p.rx = cf.frame.dst;
      p.frame = cf.frame;
      p.tx_ids = spot->txs;
      p.offsets = draw_tx_offsets(*spot, data_rng, now_s);
      for (std::size_t i = 0; i < spot->txs.size(); ++i) {
        ServingTx s;
        s.tx_id = spot->txs[i];
        s.gain = truth.gain(spot->txs[i], p.rx);
        s.swing_a = controller_.allocation().swing(spot->txs[i], p.rx);
        s.start_offset_s = p.offsets[i];
        p.servers.push_back(s);
      }
      prepared.push_back(std::move(p));
    }

    // One batched PHY pass for every beamspot of the slot: build all
    // lanes' jobs (interference views must outlive the call), then run
    // the front-end and demodulator over all lanes at once. Outcomes and
    // the data_rng stream are bit-identical to per-spot transmit() calls.
    std::vector<std::vector<InterfererGroup>> interference(prepared.size());
    std::vector<JointTransmission::TransmitJob> jobs(prepared.size());
    for (std::size_t pi = 0; pi < prepared.size(); ++pi) {
      const auto& p = prepared[pi];
      // Other beamspots are interference at this RX.
      std::vector<InterfererGroup>& interferers = interference[pi];
      for (const auto& q : prepared) {
        if (q.rx == p.rx) continue;
        InterfererGroup group;
        group.frame = q.frame;
        for (std::size_t i = 0; i < q.tx_ids.size(); ++i) {
          ServingTx s;
          s.tx_id = q.tx_ids[i];
          s.gain = truth.gain(q.tx_ids[i], p.rx);
          s.swing_a = controller_.allocation().swing(q.tx_ids[i], q.rx);
          s.start_offset_s = q.offsets[i];
          group.txs.push_back(s);
        }
        interferers.push_back(std::move(group));
      }
      jobs[pi] = JointTransmission::TransmitJob{p.servers, &p.frame,
                                                interferers, 0.0};
    }
    std::vector<TransmissionOutcome> outcomes(prepared.size());
    data_path_.transmit_batch(jobs, data_rng, outcomes, phy_batch);

    for (std::size_t pi = 0; pi < prepared.size(); ++pi) {
      const auto& p = prepared[pi];
      ++report.rx[p.rx].frames_sent;
      const TransmissionOutcome& outcome = outcomes[pi];
      if (outcome.delivered && !cfg_.faults.rx_down(p.rx, now_s)) {
        ++report.rx[p.rx].frames_delivered;
        report.rx[p.rx].payload_bits_delivered +=
            p.frame.payload.size() * 8;
        // MAC acknowledgement over WiFi. A lost ACK only dents the
        // counter (wifi.stats() keeps the tally); stop-and-wait
        // recovery lives in run_arq().
        const std::size_t rx_id = p.rx;
        (void)wifi.send({static_cast<std::uint8_t>(rx_id)},
                        [&report, rx_id](const std::vector<std::uint8_t>&) {
                          ++report.rx[rx_id].acks_received;
                        });
      }
    }
  };

  eth.subscribe([&](std::size_t, const std::vector<std::uint8_t>& bytes) {
    // One byte per frame count, then serialized controller frames.
    SlotCommand slot;
    std::size_t at = 1;
    const std::size_t count = bytes.empty() ? 0 : bytes[0];
    for (std::size_t i = 0; i < count && at < bytes.size(); ++i) {
      const auto cf = phy::parse_controller_frame(
          std::span<const std::uint8_t>{bytes}.subspan(at));
      if (!cf) break;
      slot.frames.push_back(*cf);
      at += phy::kControllerPrefixBytes +
            phy::serialized_frame_bytes(cf->frame.payload.size());
    }
    run_slot(slot);
  });

  const auto epochs = static_cast<std::size_t>(
      std::ceil(duration_s / cfg_.mac.epoch_period_s));
  report.epochs = epochs;

  for (std::size_t e = 0; e < epochs; ++e) {
    const double epoch_start =
        static_cast<double>(e) * cfg_.mac.epoch_period_s;
    const double epoch_end =
        std::min(duration_s, epoch_start + cfg_.mac.epoch_period_s);
    des.schedule_at(SimTime::from_seconds(epoch_start), [&, epoch_start,
                                                         epoch_end] {
      measure_and_decide(epoch_start, data_rng);
      double t = epoch_start + probe_phase_s;
      while (t + slot_s <= epoch_end) {
        des.schedule_at(SimTime::from_seconds(t), [&] {
          // Build the slot's multicast command: one frame per beamspot.
          std::vector<std::uint8_t> wire;
          std::uint8_t count = 0;
          std::vector<std::uint8_t> body;
          for (const auto& spot : controller_.beamspots()) {
            auto cf = controller_.make_data_command(spot.rx, payload,
                                                    /*src=*/0xC0);
            if (!cf) continue;
            const auto ser = phy::serialize_controller_frame(*cf);
            body.insert(body.end(), ser.begin(), ser.end());
            ++count;
          }
          wire.push_back(count);
          wire.insert(wire.end(), body.begin(), body.end());
          eth.send(wire);
        });
        t += slot_s;
      }
    });
  }

  des.run_until(SimTime::from_seconds(duration_s + 1.0));
  return report;
}

DenseVlcSystem::ArqReport DenseVlcSystem::run_arq(
    double duration_s, std::size_t payload_bytes,
    std::size_t segments_per_rx, std::size_t max_attempts) {
  ArqReport report;
  report.rx.resize(num_rx());
  report.duration_s = duration_s;

  Rng rng = master_rng_.fork();

  // Offer every RX its workload up front.
  std::vector<mac::ArqTransmitter> senders;
  std::vector<mac::ArqReceiver> receivers(num_rx());
  for (std::size_t k = 0; k < num_rx(); ++k) {
    senders.emplace_back(max_attempts);
    for (std::size_t s = 0; s < segments_per_rx; ++s) {
      std::vector<std::uint8_t> data(payload_bytes);
      for (std::size_t i = 0; i < data.size(); ++i) {
        data[i] = static_cast<std::uint8_t>(i + s * 31 + k * 7);
      }
      senders[k].enqueue(std::move(data));
    }
    report.rx[k].segments_offered = segments_per_rx;
  }

  // Slot sizing: ARQ payloads carry one extra sequence byte.
  phy::MacFrame sizing;
  sizing.payload.assign(payload_bytes + 1, 0);
  const double airtime = data_path_.frame_airtime_s(sizing);
  const double slot_s = airtime + cfg_.mac.guard_period_s +
                        cfg_.ethernet.base_latency_s + 2e-3;
  const double probe_phase_s =
      static_cast<double>(num_tx()) *
      (cfg_.mac.probe_chip_count + 16.0) / cfg_.ook.chip_rate_hz;

  double t = 0.0;
  double next_epoch = 0.0;
  while (t + slot_s <= duration_s) {
    if (t >= next_epoch) {
      measure_and_decide(t, rng);
      next_epoch += cfg_.mac.epoch_period_s;
      t += probe_phase_s;
      if (t + slot_s > duration_s) break;
    }

    // Collect this slot's transmissions (one per backlogged beamspot).
    struct SlotTx {
      std::size_t rx;
      mac::Segment segment;
      phy::MacFrame frame;
      Beamspot spot;
      std::vector<double> offsets;
    };
    std::vector<SlotTx> slot;
    for (const auto& spot : controller_.beamspots()) {
      const auto segment = senders[spot.rx].next_segment();
      if (!segment) continue;
      SlotTx entry;
      entry.rx = spot.rx;
      entry.segment = *segment;
      entry.frame.dst = static_cast<std::uint16_t>(spot.rx);
      entry.frame.src = 0xC0;
      entry.frame.protocol = static_cast<std::uint16_t>(
          phy::Protocol::kData);
      entry.frame.payload = mac::encode_segment(*segment);
      entry.spot = spot;
      entry.offsets = draw_tx_offsets(spot, rng, t);
      slot.push_back(std::move(entry));
    }
    if (slot.empty()) {
      bool anything_left = false;
      for (const auto& sender : senders) {
        anything_left = anything_left || sender.backlog() > 0;
      }
      if (!anything_left) break;  // workload finished
      t += slot_s;
      continue;
    }

    const auto truth = faulted_channel(t);
    for (const auto& entry : slot) {
      std::vector<ServingTx> servers;
      for (std::size_t i = 0; i < entry.spot.txs.size(); ++i) {
        const std::size_t tx = entry.spot.txs[i];
        servers.push_back({tx, truth.gain(tx, entry.rx),
                           controller_.allocation().swing(tx, entry.rx),
                           entry.offsets[i]});
      }
      std::vector<InterfererGroup> interferers;
      for (const auto& other : slot) {
        if (other.rx == entry.rx) continue;
        InterfererGroup group;
        group.frame = other.frame;
        for (std::size_t i = 0; i < other.spot.txs.size(); ++i) {
          const std::size_t tx = other.spot.txs[i];
          group.txs.push_back(
              {tx, truth.gain(tx, entry.rx),
               controller_.allocation().swing(tx, other.rx),
               other.offsets[i]});
        }
        interferers.push_back(std::move(group));
      }

      ++report.rx[entry.rx].transmissions;
      const auto outcome =
          data_path_.transmit(servers, entry.frame, rng, interferers);
      bool acked = false;
      if (outcome.delivered && !cfg_.faults.rx_down(entry.rx, t)) {
        const auto decoded = mac::decode_segment(entry.frame.payload);
        const auto rx_outcome = receivers[entry.rx].on_segment(*decoded);
        if (!rx_outcome.deliver_to_app) {
          ++report.rx[entry.rx].duplicates;
        }
        // The ACK rides the lossy WiFi uplink.
        if (!rng.bernoulli(cfg_.wifi.loss_probability)) {
          acked = senders[entry.rx].on_ack(rx_outcome.ack_seq);
        }
      }
      if (!acked) {
        // A give-up is the transmitter's typed notice that the retry
        // budget is gone; the controller tallies delivery failures here.
        if (senders[entry.rx].on_timeout()) {
          ++report.rx[entry.rx].give_ups;
        }
      }
    }
    t += slot_s;
  }

  for (std::size_t k = 0; k < num_rx(); ++k) {
    report.rx[k].segments_delivered = senders[k].delivered();
    report.rx[k].segments_dropped = senders[k].dropped();
    DVLC_ASSERT(report.rx[k].give_ups == report.rx[k].segments_dropped,
                "every dropped segment must surface one give-up notice");
  }
  return report;
}

}  // namespace densevlc::core
