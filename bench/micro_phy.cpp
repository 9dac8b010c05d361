// PHY fast-path microbenchmark: the zero-allocation sample path's
// perf-trajectory datapoint.
//
// Times the LUT/arena rework against the frozen scalar baselines in
// phy_reference.{hpp,cpp} and checks two contracts on every run:
//
//   frame_codec      headline: serialize + interleave + Manchester chips
//                    and back, old scalar path vs LUT fast path
//                    (frames/s; the >= 3x acceptance figure)
//   frame_codec_batch  paper-format frames (depth 0): per lane
//                    serialize_frame_into and a Manchester round trip,
//                    then one parse_frames_batch over all lanes with
//                    native SIMD dispatch, against the same work as
//                    one-lane parses pinned onto the LUT kernels
//                    (simd::set_force_scalar); a batch-size sweep
//                    reports scaling in full mode.
//   rs_codec         RS(216, 200) encode + 4-error decode (bytes/s)
//   manchester       byte round trip, bit loops vs 256-entry LUTs
//   frontend_filter  TIA + AC + Butterworth + ADC chain (samples/s):
//                    four front-ends as four one-lane process_batch_into
//                    calls (scalar cascades) vs one 4-lane call (the x4
//                    biquad kernel), bit-compared lane by lane
//   frame_wave       full modulate -> front-end -> demodulate chain
//                    (a one-lane receive_batch_into), asserting zero
//                    steady-state
//                    heap allocations via the alloc_hook counter
//
// Fast-path outputs are bit-compared against the scalar baselines; any
// drift prints MISMATCH and a steady-state allocation prints
// HOT-PATH-ALLOC (both treated as failure by the ctest smoke wrapper).
// Results go to stdout as tables and to BENCH_phy.json (path
// overridable via argv) for CI artifacts.
//
// Usage: micro_phy [--quick] [output.json]
#include <chrono>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "alloc_hook.hpp"
#include "bench_json.hpp"
#include "common/arena.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "common/table.hpp"
#include "dsp/waveform.hpp"
#include "phy/frame.hpp"
#include "phy/frame_codec.hpp"
#include "phy/frontend.hpp"
#include "phy/manchester.hpp"
#include "phy/ook.hpp"
#include "phy/reed_solomon.hpp"
#include "phy_reference.hpp"

namespace {

using namespace densevlc;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One measured path (scalar baseline or fast path) of a workload.
struct PathOutcome {
  double wall_time_s = 0.0;
  double work_items = 0.0;
};

/// Everything the report needs about one workload.
struct WorkloadResult {
  std::string name;
  std::string items_unit;
  std::optional<PathOutcome> scalar;  ///< absent for fast-only workloads
  PathOutcome fast;
  bool identical = true;
  std::uint64_t steady_allocs = 0;
  std::string scalar_label = "scalar";  ///< baseline row name in the table
};

/// Test corpus: deterministic random frames shared by the workloads.
std::vector<phy::MacFrame> make_frames(std::size_t count,
                                       std::size_t payload_bytes) {
  Rng rng{0xD3A5EU};
  std::vector<phy::MacFrame> frames(count);
  for (std::size_t i = 0; i < count; ++i) {
    frames[i].dst = static_cast<std::uint16_t>(0x0100 + i);
    frames[i].src = 0x00FE;
    frames[i].payload.resize(payload_bytes);
    for (auto& b : frames[i].payload) {
      b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
  }
  return frames;
}

std::vector<std::uint8_t> make_bytes(std::size_t count, std::uint64_t seed) {
  Rng rng{seed};
  std::vector<std::uint8_t> bytes(count);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  return bytes;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_phy.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      out_path = argv[i];
    }
  }

  constexpr std::size_t kPayloadBytes = 600;
  const std::size_t depth = phy::FrameCodec::matched_depth(kPayloadBytes);
  const auto frames = make_frames(quick ? 4 : 8, kPayloadBytes);

  std::cout << "micro_phy - PHY fast-path benchmark (payload "
            << kPayloadBytes << " B, interleave depth " << depth
            << (quick ? ", quick mode" : "") << ")\n\n";

  std::vector<WorkloadResult> results;
  bool all_identical = true;
  bool zero_alloc_ok = true;

  // --- frame_codec: the headline scalar-vs-LUT comparison ----------------
  {
    WorkloadResult r{"frame_codec", "frames", {}, {}, true, 0};
    const std::size_t reps = quick ? 3 : 60;
    const phy::FrameCodec codec{depth};
    phy::FrameCodec::Scratch cscr;
    std::vector<std::uint8_t> wire;
    std::vector<phy::Chip> chips;
    std::vector<std::uint8_t> bytes;
    phy::ParsedFrame parsed;

    // Correctness pass: fast chips and decode must match the frozen
    // scalar pipeline bit for bit on every frame.
    for (const auto& f : frames) {
      const auto ref_chips = bench::ref::codec_encode_chips(f, depth);
      const auto ref_parsed = bench::ref::codec_decode_chips(ref_chips, depth);

      codec.encode_into(f, wire, cscr);
      arena_resize(chips, wire.size() * 16);
      phy::manchester_encode_bytes(wire, chips);
      arena_resize(bytes, chips.size() / 16);
      phy::manchester_decode_bytes_lenient(chips, bytes);
      const bool ok = codec.decode_into(bytes, parsed, cscr);

      if (chips != ref_chips || !ref_parsed || !ok ||
          parsed.frame != ref_parsed->frame ||
          parsed.frame.payload != f.payload) {
        r.identical = false;
      }
    }

    {  // scalar timing
      r.scalar.emplace();
      const auto t0 = Clock::now();
      for (std::size_t rep = 0; rep < reps; ++rep) {
        for (const auto& f : frames) {
          const auto c = bench::ref::codec_encode_chips(f, depth);
          const auto p = bench::ref::codec_decode_chips(c, depth);
          if (!p) r.identical = false;
          r.scalar->work_items += 1.0;
        }
      }
      r.scalar->wall_time_s = seconds_since(t0);
    }

    {  // fast timing, with the zero-allocation assertion after warm-up
      for (const auto& f : frames) {  // warm-up rep (buffers grow here)
        codec.encode_into(f, wire, cscr);
        arena_resize(chips, wire.size() * 16);
        phy::manchester_encode_bytes(wire, chips);
        arena_resize(bytes, chips.size() / 16);
        phy::manchester_decode_bytes_lenient(chips, bytes);
        if (!codec.decode_into(bytes, parsed, cscr)) r.identical = false;
      }
      const std::uint64_t allocs0 = bench::alloc_count();
      const auto t0 = Clock::now();
      for (std::size_t rep = 0; rep < reps; ++rep) {
        for (const auto& f : frames) {
          codec.encode_into(f, wire, cscr);
          arena_resize(chips, wire.size() * 16);
          phy::manchester_encode_bytes(wire, chips);
          arena_resize(bytes, chips.size() / 16);
          phy::manchester_decode_bytes_lenient(chips, bytes);
          if (!codec.decode_into(bytes, parsed, cscr)) r.identical = false;
          r.fast.work_items += 1.0;
        }
      }
      r.fast.wall_time_s = seconds_since(t0);
      r.steady_allocs = bench::alloc_count() - allocs0;
    }
    results.push_back(std::move(r));
  }

  // --- frame_codec_batch: batch parse + SIMD vs one-lane LUT parses -----
  bench::Json batch_sweep = bench::Json::array();
  {
    WorkloadResult r{"frame_codec_batch", "frames", {}, {}, true, 0};
    r.scalar_label = "lut";
    const std::size_t reps = quick ? 4 : 40;
    const std::size_t batch_size = quick ? 8 : 32;
    const auto bframes = make_frames(batch_size, kPayloadBytes);

    // One batch pipeline over all lanes, paper format: each lane is
    // serialized and Manchester round-tripped into its own buffer, then
    // every lane is parsed in one call.
    struct Lanes {
      std::vector<const phy::MacFrame*> frames;
      std::vector<std::vector<std::uint8_t>> wire;
      std::vector<std::vector<std::uint8_t>> back;
      std::vector<phy::Chip> chips;
      std::vector<std::span<const std::uint8_t>> views;
      std::vector<phy::ParsedFrame> out;
      std::vector<phy::ParsedFrame*> out_ptrs;
      std::vector<std::uint8_t> ok;
      phy::FrameBatch batch;
      bool match = true;
    };
    const auto run_lanes = [](Lanes& l) {
      const std::size_t n = l.frames.size();
      arena_resize(l.wire, n);
      arena_resize(l.back, n);
      arena_resize(l.views, n);
      arena_resize(l.out, n);
      arena_resize(l.out_ptrs, n);
      arena_resize(l.ok, n);
      for (std::size_t i = 0; i < n; ++i) {
        phy::serialize_frame_into(*l.frames[i], l.wire[i]);
        arena_resize(l.chips, l.wire[i].size() * 16);
        phy::manchester_encode_bytes(l.wire[i], l.chips);
        arena_resize(l.back[i], l.wire[i].size());
        phy::manchester_decode_bytes_lenient(l.chips, l.back[i]);
        l.views[i] = l.back[i];
        l.out_ptrs[i] = &l.out[i];
      }
      if (phy::parse_frames_batch(l.views, l.out_ptrs, l.ok, l.batch) != n) {
        l.match = false;
      }
      for (std::size_t i = 0; i < n; ++i) {
        if (l.out[i].frame != *l.frames[i]) l.match = false;
      }
    };

    Lanes lanes;
    for (const auto& f : bframes) lanes.frames.push_back(&f);

    // Correctness pass: wire bytes must equal the frozen scalar
    // serializer, and every lane must parse back to its frame.
    run_lanes(lanes);
    for (std::size_t i = 0; i < batch_size; ++i) {
      if (lanes.wire[i] != bench::ref::serialize_frame(bframes[i])) {
        r.identical = false;
      }
    }
    r.identical = r.identical && lanes.match;

    {  // LUT baseline: one-lane parses pinned onto the scalar kernels
      simd::set_force_scalar(true);
      r.scalar.emplace();
      const phy::FrameCodec codec{0};
      phy::FrameCodec::Scratch cscr;
      std::vector<std::uint8_t> wire;
      std::vector<phy::Chip> chips;
      std::vector<std::uint8_t> bytes;
      phy::ParsedFrame parsed;
      const auto t0 = Clock::now();
      for (std::size_t rep = 0; rep < reps; ++rep) {
        for (const auto& f : bframes) {
          phy::serialize_frame_into(f, wire);
          arena_resize(chips, wire.size() * 16);
          phy::manchester_encode_bytes(wire, chips);
          arena_resize(bytes, chips.size() / 16);
          phy::manchester_decode_bytes_lenient(chips, bytes);
          if (!codec.decode_into(bytes, parsed, cscr)) r.identical = false;
          r.scalar->work_items += 1.0;
        }
      }
      r.scalar->wall_time_s = seconds_since(t0);
      simd::set_force_scalar(false);
    }

    {  // batch timing (already warm from the correctness pass)
      const std::uint64_t allocs0 = bench::alloc_count();
      const auto t0 = Clock::now();
      for (std::size_t rep = 0; rep < reps; ++rep) {
        run_lanes(lanes);
        r.fast.work_items += static_cast<double>(batch_size);
      }
      r.fast.wall_time_s = seconds_since(t0);
      r.steady_allocs = bench::alloc_count() - allocs0;
      r.identical = r.identical && lanes.match;
    }

    // Batch-size sweep (full mode): how the batch kernels fill up as
    // lanes are added.
    if (!quick) {
      std::cout << "frame_codec_batch sweep:";
      for (const std::size_t n : {std::size_t{4}, std::size_t{8},
                                  std::size_t{16}, std::size_t{32}}) {
        const auto sweep_frames = make_frames(n, kPayloadBytes);
        Lanes l;
        for (const auto& f : sweep_frames) l.frames.push_back(&f);
        run_lanes(l);  // warm-up
        const std::size_t sweep_reps = 20;
        const auto t0 = Clock::now();
        for (std::size_t rep = 0; rep < sweep_reps; ++rep) run_lanes(l);
        const double dt = seconds_since(t0);
        const double rate =
            dt > 0.0 ? static_cast<double>(n * sweep_reps) / dt : 0.0;
        std::cout << "  " << n << ": " << fmt_si(rate) << "/s";
        bench::Json row = bench::Json::object();
        row.set("batch_size", n);
        row.set("frames_per_s", rate);
        batch_sweep.push(std::move(row));
        r.identical = r.identical && l.match;
      }
      std::cout << "\n\n";
    }
    results.push_back(std::move(r));
  }

  // --- rs_codec: encode + 4-error decode throughput ----------------------
  {
    WorkloadResult r{"rs_codec", "message_bytes", {}, {}, true, 0};
    const std::size_t reps = quick ? 8 : 200;
    constexpr std::size_t kMsgBytes = 200;
    const std::size_t n_msgs = quick ? 4 : 16;
    const bench::ref::ReedSolomon ref_rs{phy::kRsBlockParity};
    const phy::ReedSolomon rs{phy::kRsBlockParity};
    std::vector<std::vector<std::uint8_t>> msgs;
    for (std::size_t i = 0; i < n_msgs; ++i) {
      msgs.push_back(make_bytes(kMsgBytes, 0x55000 + i));
    }
    // Deterministic 4-byte error burst per codeword.
    const auto corrupt = [](std::vector<std::uint8_t>& cw, std::size_t i) {
      for (std::size_t e = 0; e < 4; ++e) {
        const std::size_t pos = (i * 37 + e * 53 + 11) % cw.size();
        cw[pos] = static_cast<std::uint8_t>(cw[pos] ^ (0x5A + e));
      }
    };

    std::vector<std::uint8_t> cw;
    std::vector<std::uint8_t> bad;
    phy::RsDecodeResult dec;
    phy::RsScratch rscr;

    // Systematic codeword: message ++ parity, parity straight into place.
    const auto encode = [&rs, &cw](const std::vector<std::uint8_t>& msg) {
      arena_resize(cw, msg.size() + rs.parity_symbols());
      std::copy(msg.begin(), msg.end(), cw.begin());
      rs.encode_parity_into(msg,
                            std::span<std::uint8_t>{cw}.subspan(msg.size()));
    };

    // Correctness pass.
    for (std::size_t i = 0; i < n_msgs; ++i) {
      auto ref_cw = ref_rs.encode(msgs[i]);
      encode(msgs[i]);
      if (cw != ref_cw) r.identical = false;
      corrupt(ref_cw, i);
      bad = cw;
      corrupt(bad, i);
      const auto ref_dec = ref_rs.decode(ref_cw);
      const bool ok = rs.decode_into(bad, dec, rscr);
      if (!ref_dec || !ok || dec.data != ref_dec->data ||
          dec.corrected_errors != ref_dec->corrected_errors ||
          dec.data != msgs[i]) {
        r.identical = false;
      }
    }

    {  // scalar timing
      r.scalar.emplace();
      const auto t0 = Clock::now();
      for (std::size_t rep = 0; rep < reps; ++rep) {
        for (std::size_t i = 0; i < n_msgs; ++i) {
          auto c = ref_rs.encode(msgs[i]);
          corrupt(c, i);
          if (!ref_rs.decode(c)) r.identical = false;
          r.scalar->work_items += kMsgBytes;
        }
      }
      r.scalar->wall_time_s = seconds_since(t0);
    }

    {  // fast timing (already warm from the correctness pass)
      const std::uint64_t allocs0 = bench::alloc_count();
      const auto t0 = Clock::now();
      for (std::size_t rep = 0; rep < reps; ++rep) {
        for (std::size_t i = 0; i < n_msgs; ++i) {
          encode(msgs[i]);
          bad = cw;
          corrupt(bad, i);
          if (!rs.decode_into(bad, dec, rscr)) r.identical = false;
          r.fast.work_items += kMsgBytes;
        }
      }
      r.fast.wall_time_s = seconds_since(t0);
      r.steady_allocs = bench::alloc_count() - allocs0;
    }
    results.push_back(std::move(r));
  }

  // --- manchester: byte round trip, bit loops vs LUTs --------------------
  {
    WorkloadResult r{"manchester", "bytes", {}, {}, true, 0};
    const std::size_t reps = quick ? 8 : 400;
    const auto data = make_bytes(quick ? 256 : 1125, 0xABCDEF);

    std::vector<phy::Chip> chips;
    std::vector<std::uint8_t> back;

    // Correctness pass.
    {
      const auto ref_bits = bench::ref::bytes_to_bits(data);
      const auto ref_chips = bench::ref::manchester_encode(ref_bits);
      const auto ref_dec = bench::ref::manchester_decode_lenient(ref_chips);
      const auto ref_back = bench::ref::bits_to_bytes(ref_dec.bits);

      arena_resize(chips, 16 * data.size());
      phy::manchester_encode_bytes(data, chips);
      arena_resize(back, data.size());
      const std::size_t violations =
          phy::manchester_decode_bytes_lenient(chips, back);
      if (chips != ref_chips || !ref_back || back != *ref_back ||
          back != data || violations != ref_dec.violations) {
        r.identical = false;
      }
    }

    {  // scalar timing
      r.scalar.emplace();
      const auto t0 = Clock::now();
      for (std::size_t rep = 0; rep < reps; ++rep) {
        const auto bits = bench::ref::bytes_to_bits(data);
        const auto c = bench::ref::manchester_encode(bits);
        const auto dec = bench::ref::manchester_decode_lenient(c);
        if (!bench::ref::bits_to_bytes(dec.bits)) r.identical = false;
        r.scalar->work_items += static_cast<double>(data.size());
      }
      r.scalar->wall_time_s = seconds_since(t0);
    }

    {  // fast timing (warm from the correctness pass)
      const std::uint64_t allocs0 = bench::alloc_count();
      const auto t0 = Clock::now();
      for (std::size_t rep = 0; rep < reps; ++rep) {
        arena_resize(chips, 16 * data.size());
        phy::manchester_encode_bytes(data, chips);
        arena_resize(back, data.size());
        phy::manchester_decode_bytes_lenient(chips, back);
        r.fast.work_items += static_cast<double>(data.size());
      }
      r.fast.wall_time_s = seconds_since(t0);
      r.steady_allocs = bench::alloc_count() - allocs0;
    }
    results.push_back(std::move(r));
  }

  // --- frontend_filter: analog chain throughput --------------------------
  {
    WorkloadResult r{"frontend_filter", "samples", {}, {}, true, 0};
    const std::size_t reps = quick ? 2 : 40;
    const std::size_t n = quick ? 5000 : 50000;

    dsp::Waveform optical;
    optical.sample_rate_hz = 1e6;
    optical.samples.resize(n);
    Rng pattern_rng{0xF00D};
    for (std::size_t i = 0; i < n; ++i) {
      // OOK-like optical power: 0 or ~2.5 uW, new chip every 10 samples.
      if (i % 10 == 0) {
        optical.samples[i] = pattern_rng.bernoulli(0.5) ? 2.5e-6 : 0.0;
      } else {
        optical.samples[i] = optical.samples[i - 1];
      }
    }

    const phy::FrontEndConfig cfg{};  // default noisy front end
    constexpr std::size_t kLanes = 4;
    // Identically seeded sets of four front-ends, so both sides draw the
    // same noise per lane.
    const auto make_fes = [&] {
      Rng seeds{42};
      std::vector<phy::ReceiverFrontEnd> fes;
      for (std::size_t l = 0; l < kLanes; ++l) {
        fes.emplace_back(cfg, seeds.fork());
      }
      return fes;
    };
    phy::ReceiverFrontEnd::BatchScratch scratch;
    const auto run_lanes = [&](std::vector<phy::ReceiverFrontEnd>& fes,
                               std::vector<dsp::Waveform>& out) {
      for (std::size_t l = 0; l < kLanes; ++l) {  // a lone lane: scalar
        phy::ReceiverFrontEnd* const fe[1] = {&fes[l]};
        const dsp::Waveform* const in[1] = {&optical};
        dsp::Waveform* const lane_out[1] = {&out[l]};
        phy::ReceiverFrontEnd::process_batch_into(fe, in, lane_out, scratch);
      }
    };
    const auto run_quad = [&](std::vector<phy::ReceiverFrontEnd>& fes,
                              std::vector<dsp::Waveform>& out) {
      phy::ReceiverFrontEnd* fe[kLanes];
      const dsp::Waveform* in[kLanes];
      dsp::Waveform* quad_out[kLanes];
      for (std::size_t l = 0; l < kLanes; ++l) {
        fe[l] = &fes[l];
        in[l] = &optical;
        quad_out[l] = &out[l];
      }
      phy::ReceiverFrontEnd::process_batch_into(fe, in, quad_out, scratch);
    };
    // Every lane carries the same optical input, so the same sample count.
    const auto samples_of = [](const std::vector<dsp::Waveform>& out) {
      return static_cast<double>(out.size() * out[0].samples.size());
    };

    // Per lane, the 4-lane call must match the one-lane calls bit for bit
    // over two rounds (noise streams and filter states in lockstep).
    {
      auto fes_a = make_fes();
      auto fes_b = make_fes();
      std::vector<dsp::Waveform> out_a(kLanes);
      std::vector<dsp::Waveform> out_b(kLanes);
      for (int round = 0; round < 2; ++round) {
        run_lanes(fes_a, out_a);
        run_quad(fes_b, out_b);
        for (std::size_t l = 0; l < kLanes; ++l) {
          if (out_a[l].samples != out_b[l].samples) r.identical = false;
        }
      }
    }

    {  // scalar timing: four one-lane calls
      r.scalar.emplace();
      auto fes = make_fes();
      std::vector<dsp::Waveform> out(kLanes);
      const auto t0 = Clock::now();
      for (std::size_t rep = 0; rep < reps; ++rep) {
        run_lanes(fes, out);
        r.scalar->work_items += samples_of(out);
      }
      r.scalar->wall_time_s = seconds_since(t0);
    }

    {  // fast timing: one 4-lane call
      auto fes = make_fes();
      std::vector<dsp::Waveform> out(kLanes);
      run_quad(fes, out);  // warm-up
      const std::uint64_t allocs0 = bench::alloc_count();
      const auto t0 = Clock::now();
      for (std::size_t rep = 0; rep < reps; ++rep) {
        run_quad(fes, out);
        r.fast.work_items += samples_of(out);
      }
      r.fast.wall_time_s = seconds_since(t0);
      r.steady_allocs = bench::alloc_count() - allocs0;
    }
    results.push_back(std::move(r));
  }

  // --- frame_wave: full TX -> front end -> RX chain, fast path only ------
  {
    WorkloadResult r{"frame_wave", "frames", {}, {}, true, 0};
    const std::size_t reps = quick ? 3 : 20;

    const phy::OokParams params{};
    const phy::OokModulator mod{params};
    phy::FrontEndConfig fcfg{};
    fcfg.noise_psd_a2_per_hz = 0.0;  // quiet: decode must always succeed
    phy::ReceiverFrontEnd fe{fcfg, Rng{7}};
    const phy::OokDemodulator demod{params.chip_rate_hz,
                                    fcfg.adc.sample_rate_hz};
    // LED current [A] -> received optical power [W]: chosen so the
    // 0.9 A swing lands around 1 V peak-to-peak after the 400 kV/W
    // receive gain (R 0.4 A/W x TIA 50 kOhm x AC gain 20).
    constexpr double kOpticalWPerAmp = 2.78e-6;
    // Long guards let the AC-coupling transient die out before the
    // preamble on the very first frame (corner 1 kHz ~ 160 samples).
    constexpr std::size_t kGuardChips = 64;

    phy::OokModulator::TxScratch txs;
    phy::OokDemodulator::BatchRxScratch rxs;
    phy::OokDemodulator::RxResult rx[1];
    std::uint8_t rx_ok[1] = {0};
    dsp::Waveform wf;
    dsp::Waveform optical;
    dsp::Waveform rx_wf;
    phy::ReceiverFrontEnd::BatchScratch fe_scratch;

    const auto run_one = [&](const phy::MacFrame& f) {
      mod.modulate_frame_into(f, false, 0, kGuardChips, wf, txs);
      optical.sample_rate_hz = wf.sample_rate_hz;
      arena_resize(optical.samples, wf.samples.size());
      for (std::size_t i = 0; i < wf.samples.size(); ++i) {
        optical.samples[i] = kOpticalWPerAmp * wf.samples[i];
      }
      phy::ReceiverFrontEnd* const fes[1] = {&fe};
      const dsp::Waveform* const in[1] = {&optical};
      dsp::Waveform* const out[1] = {&rx_wf};
      phy::ReceiverFrontEnd::process_batch_into(fes, in, out, fe_scratch);
      const std::span<const double> lanes[] = {rx_wf.samples};
      if (demod.receive_batch_into(lanes, rx, rx_ok, rxs) != 1) return false;
      return rx[0].parsed.frame.payload == f.payload;
    };

    for (std::size_t i = 0; i < 2; ++i) {  // warm-up (and filter settling)
      if (!run_one(frames[i % frames.size()])) r.identical = false;
    }
    const std::uint64_t allocs0 = bench::alloc_count();
    const auto t0 = Clock::now();
    for (std::size_t rep = 0; rep < reps; ++rep) {
      if (!run_one(frames[rep % frames.size()])) r.identical = false;
      r.fast.work_items += 1.0;
    }
    r.fast.wall_time_s = seconds_since(t0);
    r.steady_allocs = bench::alloc_count() - allocs0;
    results.push_back(std::move(r));
  }

  // --- Report -------------------------------------------------------------
  bench::Json doc = bench::Json::object();
  doc.set("bench", "micro_phy");
  doc.set("quick", quick);
  doc.set("payload_bytes", kPayloadBytes);
  doc.set("interleave_depth", depth);
  doc.set("simd_backend", std::string{simd::active_backend_name()});
  bench::Json workload_array = bench::Json::array();

  double headline_speedup = 0.0;
  double batch_speedup = 0.0;
  for (const auto& r : results) {
    TablePrinter table{{"path", "wall [s]", r.items_unit + "/s"}};
    const auto rate = [](const PathOutcome& p) {
      return p.wall_time_s > 0.0 ? p.work_items / p.wall_time_s : 0.0;
    };
    bench::Json wj = bench::Json::object();
    wj.set("name", r.name);
    wj.set("unit", r.items_unit);
    if (r.scalar) {
      table.add_row({r.scalar_label, fmt(r.scalar->wall_time_s, 4),
                     fmt_si(rate(*r.scalar))});
      bench::Json sj = bench::Json::object();
      sj.set("wall_time_s", r.scalar->wall_time_s);
      sj.set(r.items_unit + "_per_s", rate(*r.scalar));
      wj.set("scalar", std::move(sj));
    }
    table.add_row({"fast", fmt(r.fast.wall_time_s, 4), fmt_si(rate(r.fast))});
    bench::Json fj = bench::Json::object();
    fj.set("wall_time_s", r.fast.wall_time_s);
    fj.set(r.items_unit + "_per_s", rate(r.fast));
    wj.set("fast", std::move(fj));

    std::cout << r.name << ":\n";
    table.print(std::cout);
    if (r.scalar) {
      const double speedup =
          rate(r.fast) > 0.0 && rate(*r.scalar) > 0.0
              ? rate(r.fast) / rate(*r.scalar)
              : 0.0;
      std::cout << "  speedup fast vs " << r.scalar_label << ": "
                << fmt(speedup, 2) << "x\n";
      wj.set("speedup_fast_vs_scalar", speedup);
      wj.set("baseline", r.scalar_label);
      if (r.name == "frame_codec") headline_speedup = speedup;
      if (r.name == "frame_codec_batch") batch_speedup = speedup;
    }
    std::cout << "  outputs vs scalar baseline: "
              << (r.identical ? "bit-identical" : "MISMATCH") << "\n"
              << "  steady-state heap allocations: " << r.steady_allocs
              << (r.steady_allocs == 0 ? "" : "  HOT-PATH-ALLOC") << "\n\n";
    wj.set("bit_identical", r.identical);
    wj.set("steady_state_allocs", r.steady_allocs);
    workload_array.push(std::move(wj));

    all_identical = all_identical && r.identical;
    zero_alloc_ok = zero_alloc_ok && (r.steady_allocs == 0);
  }

  doc.set("workloads", std::move(workload_array));
  doc.set("frame_codec_speedup", headline_speedup);
  doc.set("frame_codec_batch_speedup", batch_speedup);
  doc.set("batch_sweep", std::move(batch_sweep));
  doc.set("bit_identical", all_identical);
  doc.set("zero_alloc", zero_alloc_ok);
  if (!bench::write_json_file(out_path, doc)) {
    std::cerr << "failed to write " << out_path << '\n';
    return 1;
  }

  std::cout << (all_identical ? "correctness: all fast paths bit-identical"
                              : "correctness MISMATCH: see tables")
            << '\n'
            << (zero_alloc_ok
                    ? "allocations: zero in steady state"
                    : "HOT-PATH-ALLOC: steady-state allocation detected")
            << '\n'
            << "frame_codec speedup: " << fmt(headline_speedup, 2)
            << "x (target >= 3x)\n"
            << "frame_codec_batch speedup vs LUT: " << fmt(batch_speedup, 2)
            << "x (target >= 2x)\nwrote " << out_path << '\n';
  return (all_identical && zero_alloc_ok) ? 0 : 1;
}
