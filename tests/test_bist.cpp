// LFSR/MISR, primitive polynomials, phase shifter, expander/compactor,
// PRPG/ODC stacks, schedule generator, controller FSM.
#include <gtest/gtest.h>

#include <random>
#include <set>
#include <vector>

#include "bist/clocking.hpp"
#include "bist/controller.hpp"
#include "bist/gf2.hpp"
#include "bist/lfsr.hpp"
#include "bist/phase_shifter.hpp"
#include "bist/polynomials.hpp"
#include "bist/prpg.hpp"
#include "bist/spatial.hpp"

namespace lbist::bist {
namespace {

// --- LFSR ------------------------------------------------------------------

struct LfsrCase {
  int degree;
  LfsrForm form;
};

class LfsrMaximality : public ::testing::TestWithParam<LfsrCase> {};

TEST_P(LfsrMaximality, PeriodIsMaximal) {
  const auto [degree, form] = GetParam();
  Lfsr lfsr(degree, 1, form);
  const uint64_t start = lfsr.state();
  const uint64_t expect = (uint64_t{1} << degree) - 1;
  uint64_t period = 0;
  do {
    lfsr.step();
    ++period;
    ASSERT_NE(lfsr.state(), 0u) << "LFSR fell into the all-zero state";
    ASSERT_LE(period, expect);
  } while (lfsr.state() != start);
  EXPECT_EQ(period, expect) << "degree " << degree << " not maximal";
}

std::vector<LfsrCase> allCases() {
  std::vector<LfsrCase> cases;
  for (int d = 2; d <= 18; ++d) {
    cases.push_back({d, LfsrForm::kGalois});
    cases.push_back({d, LfsrForm::kFibonacci});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Degrees, LfsrMaximality,
                         ::testing::ValuesIn(allCases()),
                         [](const auto& info) {
                           return std::string("deg") +
                                  std::to_string(info.param.degree) +
                                  (info.param.form == LfsrForm::kGalois
                                       ? "galois"
                                       : "fibonacci");
                         });

TEST(Lfsr, Degree19IsMaximal) {
  // The paper's PRPG length. Full period walk: 524287 steps.
  Lfsr lfsr(19);
  const uint64_t start = lfsr.state();
  uint64_t period = 0;
  do {
    lfsr.step();
    ++period;
  } while (lfsr.state() != start && period <= (1u << 19));
  EXPECT_EQ(period, (uint64_t{1} << 19) - 1);
}

TEST(Lfsr, ZeroSeedIsCoercedToNonZero) {
  Lfsr lfsr(8, 0);
  EXPECT_NE(lfsr.state(), 0u);
}

TEST(Lfsr, TransitionMatrixMatchesStep) {
  for (const int degree : {5, 13, 19}) {
    for (const LfsrForm form : {LfsrForm::kGalois, LfsrForm::kFibonacci}) {
      Lfsr lfsr(degree, 0xACE1, form);
      const Gf2Matrix a = lfsr.transitionMatrix();
      const uint64_t before = lfsr.state();
      lfsr.step();
      EXPECT_EQ(a.apply(before), lfsr.state());
    }
  }
}

TEST(Lfsr, StepManyMatchesMatrixPower) {
  Lfsr lfsr(19, 0x1234);
  const Gf2Matrix a = lfsr.transitionMatrix();
  const uint64_t before = lfsr.state();
  lfsr.stepMany(1000);
  EXPECT_EQ(a.pow(1000).apply(before), lfsr.state());
}

TEST(Polynomials, TableIsWellFormed) {
  for (int d = 2; d <= 64; ++d) {
    const auto taps = primitivePolynomial(d);
    ASSERT_FALSE(taps.empty());
    EXPECT_EQ(taps[0], d) << "leading term must equal the degree";
    for (size_t i = 1; i < taps.size(); ++i) {
      EXPECT_LT(taps[i], d);
      EXPECT_GT(taps[i], 0);
      EXPECT_LT(taps[i], taps[i - 1]) << "taps must be descending";
    }
    // Odd weight (even tap count incl. constant): necessary for
    // primitivity (x+1 must not divide p).
    EXPECT_EQ(taps.size() % 2, 0u) << "degree " << d;
  }
  EXPECT_THROW((void)primitivePolynomial(1), std::out_of_range);
  EXPECT_THROW((void)primitivePolynomial(65), std::out_of_range);
}

// --- GF(2) matrix ------------------------------------------------------------

TEST(Gf2, IdentityAndMultiplication) {
  const Gf2Matrix id = Gf2Matrix::identity(8);
  EXPECT_EQ(id.apply(0xA5), 0xA5u);
  Lfsr l(8);
  const Gf2Matrix a = l.transitionMatrix();
  EXPECT_EQ((a * id), a);
  EXPECT_EQ((id * a), a);
  // pow(3) == a*a*a
  EXPECT_EQ(a.pow(3), ((a * a) * a));
  EXPECT_EQ(a.pow(0), id);
}

TEST(Gf2, RankOfSingularAndRegular) {
  Gf2Matrix m(3);
  m.setRow(0, 0b001);
  m.setRow(1, 0b010);
  m.setRow(2, 0b011);  // row0 ^ row1
  EXPECT_EQ(m.rank(), 2);
  EXPECT_EQ(Gf2Matrix::identity(17).rank(), 17);
  // LFSR transition matrices are invertible.
  EXPECT_EQ(Lfsr(19).transitionMatrix().rank(), 19);
}

// --- phase shifter -----------------------------------------------------------

TEST(PhaseShifter, ChannelsAreExactSequenceShifts) {
  Lfsr ref(13, 0x0BAD);
  PhaseShifterOptions opts;
  opts.separation = 100;
  PhaseShifter ps(ref, 5, opts);

  // Collect channel streams over 64 cycles.
  Lfsr run = ref;
  std::vector<std::vector<int>> streams(5);
  for (int t = 0; t < 64 + 400; ++t) {
    for (int c = 0; c < 5; ++c) {
      streams[static_cast<size_t>(c)].push_back(
          ps.outputBit(c, run.state()));
    }
    run.step();
  }
  // Channel c at time t equals channel 0 at time t + c*separation.
  for (int c = 1; c < 5; ++c) {
    for (int t = 0; t < 64; ++t) {
      EXPECT_EQ(streams[static_cast<size_t>(c)][static_cast<size_t>(t)],
                streams[0][static_cast<size_t>(t) +
                           static_cast<size_t>(c) * 100])
          << "channel " << c << " time " << t;
    }
  }
}

TEST(PhaseShifter, SlackSearchReducesTapCount) {
  Lfsr ref(19);
  PhaseShifterOptions tight;
  tight.separation = 777;
  PhaseShifterOptions slack = tight;
  slack.slack = 64;
  PhaseShifter ps_tight(ref, 16, tight);
  PhaseShifter ps_slack(ref, 16, slack);
  EXPECT_LE(ps_slack.totalTaps(), ps_tight.totalTaps());
}

TEST(PhaseShifter, PackedMatchesPerChannel) {
  Lfsr ref(17, 0x55);
  PhaseShifter ps(ref, 10, {.separation = 33, .slack = 0});
  const uint64_t packed = ps.outputsPacked(ref.state());
  for (int c = 0; c < 10; ++c) {
    EXPECT_EQ((packed >> c) & 1,
              static_cast<uint64_t>(ps.outputBit(c, ref.state())));
  }
}

// --- MISR --------------------------------------------------------------------

TEST(Misr, DeterministicAndErrorSensitive) {
  Misr a(19);
  Misr b(19);
  for (int t = 0; t < 200; ++t) {
    const uint64_t word = 0x9E3779B97F4A7C15ULL * static_cast<uint64_t>(t);
    a.step(word);
    b.step(word);
  }
  EXPECT_EQ(a.signature(), b.signature());
  // A single corrupted slice changes the signature.
  Misr c(19);
  for (int t = 0; t < 200; ++t) {
    uint64_t word = 0x9E3779B97F4A7C15ULL * static_cast<uint64_t>(t);
    if (t == 77) word ^= 1;
    c.step(word);
  }
  EXPECT_NE(c.signature(), a.signature());
}

TEST(WideMisr, SegmentsCoverRequestedLength) {
  for (const int len : {19, 63, 64, 80, 99, 127, 200}) {
    WideMisr m(len);
    EXPECT_EQ(m.length(), len);
    size_t total = 0;
    (void)total;
    EXPECT_GE(m.numSegments(), static_cast<size_t>(len) / 64);
  }
  // The paper's MISR sizes.
  EXPECT_EQ(WideMisr(99).numSegments(), 2u);
  EXPECT_EQ(WideMisr(80).numSegments(), 2u);
}

TEST(WideMisr, DistinguishesSingleBitErrors) {
  std::vector<uint8_t> slice(100, 0);
  WideMisr golden(99);
  for (int t = 0; t < 300; ++t) {
    for (size_t i = 0; i < slice.size(); ++i) {
      slice[i] = static_cast<uint8_t>((t * 31 + static_cast<int>(i) * 7) & 1);
    }
    golden.step(slice);
  }
  for (int err_t : {0, 150, 299}) {
    WideMisr m(99);
    for (int t = 0; t < 300; ++t) {
      for (size_t i = 0; i < slice.size(); ++i) {
        slice[i] =
            static_cast<uint8_t>((t * 31 + static_cast<int>(i) * 7) & 1);
      }
      if (t == err_t) slice[42] ^= 1;
      m.step(slice);
    }
    EXPECT_FALSE(m == golden) << "error at t=" << err_t << " aliased";
  }
}

// --- expander / compactor ----------------------------------------------------

TEST(SpaceExpander, TapSetsAreDistinct) {
  SpaceExpander exp(8, 30);
  std::set<std::vector<int>> seen;
  for (int j = 0; j < exp.outputs(); ++j) {
    std::vector<int> taps(exp.taps(j).begin(), exp.taps(j).end());
    std::sort(taps.begin(), taps.end());
    EXPECT_TRUE(seen.insert(taps).second) << "duplicate taps on output " << j;
  }
}

TEST(SpaceExpander, ApplyMatchesTaps) {
  SpaceExpander exp(4, 10);
  std::vector<uint8_t> in{1, 0, 1, 1};
  std::vector<uint8_t> out(10);
  exp.apply(in, out);
  for (int j = 0; j < 10; ++j) {
    uint8_t v = 0;
    for (int t : exp.taps(j)) v ^= in[static_cast<size_t>(t)];
    EXPECT_EQ(out[static_cast<size_t>(j)], v);
  }
}

TEST(SpaceCompactor, XorFoldsByModulo) {
  SpaceCompactor comp(10, 4);
  std::vector<uint8_t> in{1, 1, 0, 0, 1, 0, 1, 1, 0, 1};
  std::vector<uint8_t> out(4);
  comp.apply(in, out);
  for (int i = 0; i < 4; ++i) {
    uint8_t v = 0;
    for (int j = i; j < 10; j += 4) v ^= in[static_cast<size_t>(j)];
    EXPECT_EQ(out[static_cast<size_t>(i)], v);
  }
  EXPECT_EQ(comp.applyPacked(0b1011010011),
            static_cast<uint64_t>(out[0] | out[1] << 1 | out[2] << 2 |
                                  out[3] << 3));
}

// --- PRPG / ODC stacks -------------------------------------------------------

TEST(Prpg, SlicesAreDeterministicPerSeed) {
  PrpgConfig cfg;
  cfg.length = 19;
  cfg.chains = 12;
  cfg.seed = 0xBEEF;
  Prpg p1(cfg);
  Prpg p2(cfg);
  std::vector<uint8_t> s1(12);
  std::vector<uint8_t> s2(12);
  for (int t = 0; t < 100; ++t) {
    p1.nextSlice(s1);
    p2.nextSlice(s2);
    EXPECT_EQ(s1, s2);
  }
  p1.loadSeed(0xBEEF);
  Prpg p3(cfg);
  std::vector<uint8_t> s3(12);
  p1.nextSlice(s1);
  p3.nextSlice(s3);
  EXPECT_EQ(s1, s3) << "re-seeding must restart the stream";
}

TEST(Prpg, ExpanderEngagesWhenChannelsReduced) {
  PrpgConfig cfg;
  cfg.length = 19;
  cfg.chains = 20;
  cfg.ps_channels = 8;
  Prpg p(cfg);
  ASSERT_NE(p.expander(), nullptr);
  EXPECT_EQ(p.expander()->outputs(), 20);
  std::vector<uint8_t> slice(20);
  p.nextSlice(slice);  // must not throw
}

TEST(Odc, RequiresMisrAtLeastChainsWithoutCompactor) {
  OdcConfig bad;
  bad.chains = 100;
  bad.misr_length = 19;
  bad.use_compactor = false;
  EXPECT_THROW(Odc{bad}, std::invalid_argument);
  OdcConfig good = bad;
  good.chains = 99;
  good.misr_length = 99;  // the paper's Core X main-domain configuration
  EXPECT_NO_THROW(Odc{good});
  OdcConfig compacted = bad;
  compacted.use_compactor = true;
  EXPECT_NO_THROW(Odc{compacted});
}

TEST(LaneOdc, EveryLaneMatchesAScalarOdc) {
  // Random scan-out streams into one LaneOdc and 64 scalar Odcs fed one
  // lane each, over MISR lengths that span one to three WideMisr
  // segments, with and without the space compactor.
  std::mt19937_64 rng(18);
  for (bool compactor : {false, true}) {
    SCOPED_TRACE(compactor ? "compactor" : "no compactor");
    for (int length = 2; length <= 130; ++length) {
      OdcConfig cfg;
      cfg.misr_length = length;
      cfg.use_compactor = compactor;
      const uint64_t max_chains = compactor ? 2 * length : length;
      cfg.chains = 1 + static_cast<int>(rng() % max_chains);
      LaneOdc lanes(cfg);
      std::vector<Odc> scalar(64, Odc(cfg));
      std::vector<uint64_t> words(static_cast<size_t>(cfg.chains));
      std::vector<uint8_t> bits(words.size());
      for (int cycle = 0; cycle < 40; ++cycle) {
        if (cycle == 20) {
          lanes.reset();
          for (Odc& odc : scalar) odc.reset();
        }
        for (uint64_t& w : words) w = rng();
        lanes.compact(words);
        for (int lane = 0; lane < 64; ++lane) {
          for (size_t c = 0; c < words.size(); ++c) {
            bits[c] = static_cast<uint8_t>((words[c] >> lane) & 1u);
          }
          scalar[static_cast<size_t>(lane)].compact(bits);
        }
      }
      for (int lane = 0; lane < 64; ++lane) {
        const Odc& want = scalar[static_cast<size_t>(lane)];
        ASSERT_EQ(lanes.signature(lane), want.signature())
            << "length " << length << ", lane " << lane;
      }
    }
  }
}

TEST(LaneOdc, RejectsWhatOdcRejects) {
  OdcConfig bad;
  bad.chains = 100;
  bad.misr_length = 19;
  EXPECT_THROW(LaneOdc{bad}, std::invalid_argument);
  bad.chains = 0;
  EXPECT_THROW(LaneOdc{bad}, std::invalid_argument);
  OdcConfig tiny;
  tiny.misr_length = 1;
  EXPECT_THROW(LaneOdc{tiny}, std::out_of_range);
  LaneOdc odc(OdcConfig{});
  EXPECT_THROW(odc.compact(std::vector<uint64_t>(2)), std::invalid_argument);
}

TEST(InputSelector, ExternalModeOverridesPrpg) {
  PrpgConfig cfg;
  cfg.chains = 4;
  Prpg prpg(cfg);
  InputSelector sel(4);
  std::vector<uint8_t> ext{1, 0, 1, 1};
  sel.setMode(InputSelector::Mode::kExternal);
  sel.setExternalSlice(ext);
  std::vector<uint8_t> out(4);
  const uint64_t cycles_before = prpg.cyclesElapsed();
  sel.select(prpg, out);
  EXPECT_EQ(out, ext);
  EXPECT_EQ(prpg.cyclesElapsed(), cycles_before + 1) << "PRPG free-runs";
}

// --- schedule ----------------------------------------------------------------

std::vector<ClockDomain> twoDomains() {
  return {{"clk0", 4000}, {"clk1", 5000}};
}

TEST(BistSchedule, CapturePulsesAreAtFunctionalPeriod) {
  const auto domains = twoDomains();
  AtSpeedTimingConfig cfg;
  BistSchedule sched(domains, cfg, 10, 2);
  std::vector<ScheduleEvent> events;
  while (auto ev = sched.next()) events.push_back(*ev);

  uint64_t launch0 = 0;
  int seen = 0;
  for (const auto& ev : events) {
    if (ev.pattern != 0) continue;
    if (ev.kind == ScheduleEvent::Kind::kLaunchPulse) {
      launch0 = ev.time_ps;
    } else if (ev.kind == ScheduleEvent::Kind::kCapturePulse) {
      // C2 - C1 must equal the domain's functional period exactly.
      EXPECT_EQ(ev.time_ps - launch0, domains[ev.domain.v].period_ps);
      ++seen;
    }
  }
  EXPECT_EQ(seen, 2) << "one capture pair per domain per pattern";
}

TEST(BistSchedule, SeChangesOnlyInSlowGaps) {
  const auto domains = twoDomains();
  AtSpeedTimingConfig cfg;
  BistSchedule sched(domains, cfg, 8, 1);
  uint64_t last_shift = 0;
  uint64_t se_fall = 0;
  uint64_t first_capture = 0;
  uint64_t last_capture = 0;
  uint64_t se_rise = 0;
  while (auto ev = sched.next()) {
    switch (ev->kind) {
      case ScheduleEvent::Kind::kShiftPulse:
        last_shift = ev->time_ps;
        break;
      case ScheduleEvent::Kind::kSeFall:
        se_fall = ev->time_ps;
        break;
      case ScheduleEvent::Kind::kLaunchPulse:
        if (first_capture == 0) first_capture = ev->time_ps;
        break;
      case ScheduleEvent::Kind::kCapturePulse:
        last_capture = ev->time_ps;
        break;
      case ScheduleEvent::Kind::kSeRise:
        se_rise = ev->time_ps;
        break;
      default:
        break;
    }
  }
  EXPECT_GT(se_fall, last_shift);
  EXPECT_LT(se_fall, first_capture);
  EXPECT_GT(se_rise, last_capture);
}

TEST(BistSchedule, DomainStaggerRespectsD3) {
  const auto domains = twoDomains();
  AtSpeedTimingConfig cfg;
  cfg.d3_ps = 7000;
  BistSchedule sched(domains, cfg, 4, 1);
  uint64_t dom0_c2 = 0;
  uint64_t dom1_c1 = 0;
  while (auto ev = sched.next()) {
    if (ev->kind == ScheduleEvent::Kind::kCapturePulse && ev->domain.v == 0) {
      dom0_c2 = ev->time_ps;
    }
    if (ev->kind == ScheduleEvent::Kind::kLaunchPulse && ev->domain.v == 1) {
      dom1_c1 = ev->time_ps;
    }
  }
  EXPECT_EQ(dom1_c1 - dom0_c2, cfg.d3_ps);
}

TEST(BistSchedule, EventsAreMonotoneInTime) {
  const auto domains = twoDomains();
  AtSpeedTimingConfig cfg;
  BistSchedule sched(domains, cfg, 5, 3);
  uint64_t prev = 0;
  while (auto ev = sched.next()) {
    EXPECT_GE(ev->time_ps, prev);
    prev = ev->time_ps;
  }
}

TEST(BistSchedule, RejectsFastShiftClock) {
  std::vector<ClockDomain> domains{{"clk", 4000}};
  AtSpeedTimingConfig cfg;
  cfg.shift_period_ps = 2000;  // faster than functional: not a slow clock
  EXPECT_THROW(BistSchedule(domains, cfg, 4, 1), std::invalid_argument);
}

TEST(BistSchedule, SingleCaptureModeEmitsOnePulsePerDomain) {
  const auto domains = twoDomains();
  AtSpeedTimingConfig cfg;
  cfg.double_capture = false;
  BistSchedule sched(domains, cfg, 4, 1);
  int launches = 0;
  int captures = 0;
  while (auto ev = sched.next()) {
    if (ev->kind == ScheduleEvent::Kind::kLaunchPulse) ++launches;
    if (ev->kind == ScheduleEvent::Kind::kCapturePulse) ++captures;
  }
  EXPECT_EQ(launches, 0);
  EXPECT_EQ(captures, 2);
}

TEST(BistSchedule, WaveformShowsFig2Shape) {
  const auto domains = twoDomains();
  AtSpeedTimingConfig cfg;
  BistSchedule sched(domains, cfg, 6, 1);
  const sim::Waveform wf = sched.renderWaveform(1);
  // Signals: TCK per domain, CCK, SE.
  ASSERT_EQ(wf.numSignals(), 4u);
  // TCK_clk0 rises: 6 shift + 2 capture = 8; CCK only 6.
  EXPECT_EQ(wf.risingEdges(0).size(), 8u);
  EXPECT_EQ(wf.risingEdges(2).size(), 6u);
}

// --- controller --------------------------------------------------------------

TEST(Controller, WalksFullSessionAndReportsResult) {
  const auto domains = twoDomains();
  AtSpeedTimingConfig cfg;
  BistSchedule sched(domains, cfg, 4, 3);
  BistController ctrl;
  EXPECT_FALSE(ctrl.finish());
  ctrl.start();
  ctrl.seedsLoaded();
  while (auto ev = sched.next()) ctrl.onEvent(*ev);
  EXPECT_EQ(ctrl.state(), ControllerState::kCompare);
  EXPECT_EQ(ctrl.patternsDone(), 3);
  EXPECT_EQ(ctrl.shiftPulses(), 12u);
  EXPECT_EQ(ctrl.capturePulses(), 12u);  // 2 domains x 2 pulses x 3 patterns
  ctrl.setSignatureMatch(true);
  EXPECT_TRUE(ctrl.finish());
  EXPECT_TRUE(ctrl.result());
}

TEST(Controller, RejectsCaptureWhileSeHigh) {
  BistController ctrl;
  ctrl.start();
  ctrl.seedsLoaded();
  ScheduleEvent bad{ScheduleEvent::Kind::kLaunchPulse, 0, DomainId{0}, 0, 0};
  EXPECT_THROW(ctrl.onEvent(bad), std::logic_error);
}

TEST(Controller, RejectsDoubleStart) {
  BistController ctrl;
  ctrl.start();
  EXPECT_THROW(ctrl.start(), std::logic_error);
}

}  // namespace
}  // namespace lbist::bist
