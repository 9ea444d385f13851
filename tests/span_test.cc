// SpanSink: causal span construction from the trace-event stream, latency
// histograms, cause chaining through machine-check recovery, watchdog
// margins, checkpoint/restore, fast-vs-slow parity and the span-aware Chrome
// trace export.
#include "trace/span.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "cpu/creg.h"
#include "fault/fault.h"
#include "snap/snapstream.h"
#include "tests/sim_test_util.h"
#include "trace/json.h"
#include "trace/metrics.h"

namespace msim {
namespace {

TraceEvent Event(TraceEventKind kind, uint64_t cycle, uint32_t pc = 0, uint32_t arg0 = 0,
                 uint32_t arg1 = 0, bool metal = false) {
  TraceEvent event;
  event.kind = kind;
  event.metal = metal;
  event.cycle = cycle;
  event.pc = pc;
  event.arg0 = arg0;
  event.arg1 = arg1;
  return event;
}

// ---------------------------------------------------------------------------
// Synthetic event feeds.

TEST(SpanSinkTest, MenterSpanRecordsLatency) {
  SpanSink sink;
  sink.OnEvent(Event(TraceEventKind::kMenter, 100, 0x1000, /*entry=*/3));
  EXPECT_EQ(sink.open_depth(), 1u);
  sink.OnEvent(Event(TraceEventKind::kMexit, 110, 0x8000, /*resume=*/0x1004));
  EXPECT_EQ(sink.open_depth(), 0u);

  EXPECT_EQ(sink.opened(), 1u);
  EXPECT_EQ(sink.closed(), 1u);
  EXPECT_EQ(sink.aborted(), 0u);
  EXPECT_EQ(sink.menter_latency().count(), 1u);
  EXPECT_EQ(sink.menter_latency().sum(), 10u);

  const std::vector<Span> spans = sink.Spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].cls, SpanClass::kMenter);
  EXPECT_EQ(spans[0].entry, 3u);
  EXPECT_EQ(spans[0].begin_cycle, 100u);
  EXPECT_EQ(spans[0].end_cycle, 110u);
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_EQ(spans[0].cause, 0u);
}

TEST(SpanSinkTest, TrapLatencyIsPerCause) {
  SpanSink sink;
  sink.OnEvent(Event(TraceEventKind::kTrap, 5, 0x2000,
                     static_cast<uint32_t>(ExcCause::kEcall), /*entry=*/3));
  sink.OnEvent(Event(TraceEventKind::kMexit, 9, 0x8000, 0x2004));

  EXPECT_EQ(sink.trap_latency(ExcCause::kEcall).count(), 1u);
  EXPECT_EQ(sink.trap_latency(ExcCause::kEcall).sum(), 4u);
  EXPECT_EQ(sink.trap_latency(ExcCause::kPageFaultLoad).count(), 0u);
  EXPECT_EQ(sink.menter_latency().count(), 0u);
}

TEST(SpanSinkTest, NestedMentersLinkParents) {
  SpanSink sink;
  sink.OnEvent(Event(TraceEventKind::kMenter, 10, 0x1000, 1));
  sink.OnEvent(Event(TraceEventKind::kMenter, 20, 0x8010, 2, 0, /*metal=*/true));
  EXPECT_EQ(sink.open_depth(), 2u);
  sink.OnEvent(Event(TraceEventKind::kMexit, 30, 0x8050, 0x8014, /*arg1=*/1, /*metal=*/true));
  sink.OnEvent(Event(TraceEventKind::kMexit, 40, 0x8020, 0x1004));

  const std::vector<Span> spans = sink.Spans();
  ASSERT_EQ(spans.size(), 2u);  // retained in close order: inner first
  const Span& inner = spans[0];
  const Span& outer = spans[1];
  EXPECT_EQ(inner.entry, 2u);
  EXPECT_EQ(outer.entry, 1u);
  EXPECT_EQ(inner.parent, outer.id);
  EXPECT_EQ(outer.parent, 0u);
  // An inner mexit resuming into MRAM (arg1 bit 0) is a plain nested return,
  // not a scrub-retry: no extra span opens.
  EXPECT_EQ(sink.opened(), 2u);
  EXPECT_EQ(sink.scrub_retry_latency().count(), 0u);
}

TEST(SpanSinkTest, MachineCheckAbortsAndChainsCauses) {
  SpanSink sink;
  // A pagefault trap is in service when a machine check (double trap) hits;
  // the recovery mexits back into MRAM (scrub-and-retry), and the retried
  // routine finally mexits cleanly: trap -> machine check -> scrub-retry.
  sink.OnEvent(Event(TraceEventKind::kTrap, 10, 0x2000,
                     static_cast<uint32_t>(ExcCause::kPageFaultLoad), 4));
  sink.OnEvent(
      Event(TraceEventKind::kMachineCheck, 20, 0x8008, /*kind=*/1, 0, /*metal=*/true));
  sink.OnEvent(Event(TraceEventKind::kMexit, 50, 0x8100, /*resume=*/0x8008,
                     /*arg1=*/3, /*metal=*/true));
  sink.OnEvent(Event(TraceEventKind::kMexit, 70, 0x8010, 0x2000, /*arg1=*/0, /*metal=*/true));

  EXPECT_EQ(sink.opened(), 3u);
  EXPECT_EQ(sink.aborted(), 1u);
  EXPECT_EQ(sink.closed(), 2u);

  const std::vector<Span> spans = sink.Spans();
  ASSERT_EQ(spans.size(), 3u);
  const Span& trap = spans[0];
  const Span& check = spans[1];
  const Span& retry = spans[2];
  EXPECT_EQ(trap.cls, SpanClass::kTrap);
  EXPECT_TRUE(trap.aborted);
  EXPECT_EQ(trap.end_cycle, 20u);
  EXPECT_EQ(check.cls, SpanClass::kMachineCheck);
  EXPECT_EQ(check.cause, trap.id);
  EXPECT_EQ(retry.cls, SpanClass::kScrubRetry);
  EXPECT_EQ(retry.cause, check.id);
  EXPECT_EQ(retry.code, 0x8008u);  // MRAM retry address

  // Aborted spans record no latency; the recovery and retry do.
  EXPECT_EQ(sink.trap_latency(ExcCause::kPageFaultLoad).count(), 0u);
  EXPECT_EQ(sink.machine_check_latency().count(), 1u);
  EXPECT_EQ(sink.machine_check_latency().sum(), 30u);
  EXPECT_EQ(sink.scrub_retry_latency().count(), 1u);
  EXPECT_EQ(sink.scrub_retry_latency().sum(), 20u);
}

TEST(SpanSinkTest, WatchdogMarginClampsAtZero) {
  SpanSink sink;
  sink.SetWatchdogBudget(100);
  sink.OnEvent(Event(TraceEventKind::kMenter, 0, 0x1000, 1));
  sink.OnEvent(Event(TraceEventKind::kMexit, 30, 0x8000, 0x1004));
  sink.OnEvent(Event(TraceEventKind::kMenter, 200, 0x1000, 1));
  sink.OnEvent(Event(TraceEventKind::kMexit, 350, 0x8000, 0x1004));

  ASSERT_EQ(sink.watchdog_margin().count(), 2u);
  EXPECT_EQ(sink.watchdog_margin().max(), 70u);  // 100 - 30
  EXPECT_EQ(sink.watchdog_margin().min(), 0u);   // 150 cycles > budget
}

TEST(SpanSinkTest, FinalizeAbortsDanglingSpans) {
  SpanSink sink;
  sink.OnEvent(Event(TraceEventKind::kInterrupt, 40, 0x2000, 0x80000000u, 1));
  EXPECT_EQ(sink.open_depth(), 1u);
  sink.Finalize(90);
  EXPECT_EQ(sink.open_depth(), 0u);
  EXPECT_EQ(sink.aborted(), 1u);
  EXPECT_EQ(sink.interrupt_latency().count(), 0u);  // aborted: no latency
  const std::vector<Span> spans = sink.Spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].cls, SpanClass::kInterrupt);
  EXPECT_EQ(spans[0].code, 0u);  // top bit stripped from mcause
  EXPECT_EQ(spans[0].end_cycle, 90u);
  EXPECT_TRUE(spans[0].aborted);
}

TEST(SpanSinkTest, SaveRestoreContinuesAcrossOpenSpan) {
  // Feed half the stream, snapshot mid-span, restore into a fresh sink, feed
  // the rest: counters and histograms must match an uninterrupted run.
  const std::vector<TraceEvent> first = {
      Event(TraceEventKind::kMenter, 10, 0x1000, 1),
      Event(TraceEventKind::kMexit, 25, 0x8000, 0x1004),
      Event(TraceEventKind::kMenter, 40, 0x1000, 2),
  };
  const std::vector<TraceEvent> second = {
      Event(TraceEventKind::kMexit, 90, 0x8000, 0x1004),
      Event(TraceEventKind::kMenter, 100, 0x1000, 1),
      Event(TraceEventKind::kMexit, 103, 0x8000, 0x1004),
  };

  SpanSink straight;
  straight.SetWatchdogBudget(200);
  for (const auto& event : first) {
    straight.OnEvent(event);
  }
  for (const auto& event : second) {
    straight.OnEvent(event);
  }

  SpanSink before;
  before.SetWatchdogBudget(200);
  for (const auto& event : first) {
    before.OnEvent(event);
  }
  SnapWriter w;
  before.SaveState(w);
  const std::vector<uint8_t> bytes = w.TakeBytes();
  SpanSink after;
  SnapReader r(bytes);
  ASSERT_OK(after.RestoreState(r));
  for (const auto& event : second) {
    after.OnEvent(event);
  }

  EXPECT_EQ(after.opened(), straight.opened());
  EXPECT_EQ(after.closed(), straight.closed());
  EXPECT_EQ(after.aborted(), straight.aborted());
  EXPECT_EQ(after.menter_latency().buckets(), straight.menter_latency().buckets());
  EXPECT_EQ(after.menter_latency().sum(), straight.menter_latency().sum());
  EXPECT_EQ(after.watchdog_margin().buckets(), straight.watchdog_margin().buckets());
  // The mid-span snapshot preserved the open span's identity: ids keep
  // matching the straight run after restore.
  const std::vector<Span> straight_spans = straight.Spans();
  const std::vector<Span> after_spans = after.Spans();
  ASSERT_EQ(after_spans.size(), 2u);  // retained ring restarts at restore
  EXPECT_EQ(after_spans[0].id, straight_spans[1].id);
  EXPECT_EQ(after_spans[0].begin_cycle, 40u);
  EXPECT_EQ(after_spans[0].end_cycle, 90u);
}

TEST(SpanSinkTest, RegisterMetricsExposesCountersAndHistograms) {
  MetricRegistry registry;
  SpanSink sink;
  sink.RegisterMetrics(registry);
  sink.OnEvent(Event(TraceEventKind::kMenter, 0, 0x1000, 1));
  sink.OnEvent(Event(TraceEventKind::kMexit, 7, 0x8000, 0x1004));

  EXPECT_EQ(registry.Value("span", "opened"), 1u);
  EXPECT_EQ(registry.Value("span", "closed"), 1u);
  const Histogram* menter = registry.FindHistogram("latency", "menter");
  ASSERT_NE(menter, nullptr);
  EXPECT_EQ(menter->count(), 1u);
  ASSERT_NE(registry.FindHistogram("latency", "trap_ecall"), nullptr);
  ASSERT_NE(registry.FindHistogram("latency", "interrupt"), nullptr);

  // Empty histograms are skipped in the JSON export; the touched one appears.
  std::ostringstream out;
  JsonWriter json(out);
  json.BeginObject();
  registry.AppendHistogramsJson(json);
  json.EndObject();
  EXPECT_TRUE(JsonLooksValid(out.str())) << out.str();
  EXPECT_NE(out.str().find("\"menter\""), std::string::npos);
  EXPECT_EQ(out.str().find("\"trap_ecall\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Real-core scenarios.

// Counter accelerator (entry 1) plus a machine-check recovery mroutine
// (entry 2) that scrubs MRAM and retries the faulted instruction — the
// fault_test scrub-and-retry scenario, observed here through spans.
constexpr const char* kCounterMcode = R"(
    .equ D_COUNT, 0
    .equ CR_MEPC, 1
    .equ CR_MRAM_SCRUB, 52
    .mentry 1, count_add
    .mentry 2, recover
  count_add:
    mld t0, D_COUNT(zero)
    add t0, t0, a0
    mst t0, D_COUNT(zero)
    mv a0, t0
    mexit
  recover:
    wcr CR_MRAM_SCRUB, zero
    rcr t0, CR_MEPC
    wmr m31, t0
    mexit
)";

constexpr const char* kCounterProgram = R"(
  _start:
    li s0, 10
    li s1, 0
  loop:
    li a0, 7
    menter 1
    mv s1, a0
    addi s0, s0, -1
    bnez s0, loop
    halt s1
)";

TEST(SpanSinkCoreTest, ParityMachineCheckProducesCausalChain) {
  MetalSystem system;
  system.AddMcode(kCounterMcode);
  system.DelegateException(ExcCause::kMachineCheck, 2);
  ASSERT_OK(system.LoadProgramSource(kCounterProgram));

  FaultEngine engine(/*seed=*/1);
  ASSERT_OK(engine.AddSpec("mram-data@120:at=0,bit=13"));
  system.core().SetFaultEngine(&engine);

  SpanSink spans;
  system.SetTraceSink(&spans);
  MustHalt(system, 70);
  spans.Finalize(system.core().cycle());

  // One mroutine activation was aborted by the parity machine check; the
  // recovery and the scrub-retry both completed.
  EXPECT_EQ(spans.aborted(), 1u);
  EXPECT_EQ(spans.machine_check_latency().count(), 1u);
  EXPECT_EQ(spans.scrub_retry_latency().count(), 1u);
  EXPECT_EQ(spans.menter_latency().count(), 9u);  // 10 menters, one aborted

  // Walk the retained spans and check the three-link cause chain.
  const std::vector<Span> all = spans.Spans();
  const Span* aborted_menter = nullptr;
  const Span* check = nullptr;
  const Span* retry = nullptr;
  for (const Span& span : all) {
    if (span.cls == SpanClass::kMenter && span.aborted) {
      aborted_menter = &span;
    } else if (span.cls == SpanClass::kMachineCheck) {
      check = &span;
    } else if (span.cls == SpanClass::kScrubRetry) {
      retry = &span;
    }
  }
  ASSERT_NE(aborted_menter, nullptr);
  ASSERT_NE(check, nullptr);
  ASSERT_NE(retry, nullptr);
  EXPECT_EQ(check->cause, aborted_menter->id);
  EXPECT_EQ(retry->cause, check->id);
  EXPECT_FALSE(check->aborted);
  EXPECT_FALSE(retry->aborted);
}

// Timer-interrupt handler that counts deliveries in MRAM data[0].
constexpr const char* kTimerHandler = R"(
    .mentry 1, irq
  irq:
    wmr m10, t0
    wmr m11, t1
    mld t0, 0(zero)
    addi t0, t0, 1
    mst t0, 0(zero)
    li t0, 0xF0000008
    li t1, 1
    psw t1, 0(t0)
    rmr t0, m10
    rmr t1, m11
    mexit
)";

// The StepFast parity acceptance check: a traced run and a per-cycle run
// must produce identical spans, counters and histogram buckets — interrupts,
// menters and traps included. Any metric hook the trace tier bypassed would
// show up as a diff here. The tier's own "superblock" counters are
// mode-dependent by nature (the executor only runs inside StepFast), so that
// one component is the only allowed difference.
TEST(SpanSinkCoreTest, FastStepAndPerCycleEmitIdenticalStatistics) {
  const auto run = [](bool fast_step) {
    CoreConfig config;
    config.fast_step = fast_step;
    auto core = std::make_unique<Core>(config);
    MustLoadMcodeRaw(*core, kTimerHandler);
    EXPECT_OK(core->LoadProgram(MustAssemble(R"(
      _start:
        li t2, 20000
      loop:
        addi t2, t2, -1
        bnez t2, loop
        halt zero
    )")));
    auto spans = std::make_unique<SpanSink>();
    spans->RegisterMetrics(core->metrics());
    core->SetTraceSink(spans.get());
    core->metal().DelegateIrq(1);
    core->metal().WriteCreg(kCrIenable, 1u << kIrqTimer);
    core->timer().Write32(12, 1000);
    core->timer().Write32(4, 1000);
    core->timer().Write32(8, 1);
    MustHalt(*core, 0);
    spans->Finalize(core->cycle());

    // Serialize every registered counter and histogram to one string.
    std::ostringstream out;
    JsonWriter json(out);
    json.BeginObject();
    json.BeginObject("metrics");
    core->metrics().AppendJson(json);
    json.EndObject();
    json.BeginObject("histograms");
    core->metrics().AppendHistogramsJson(json);
    json.EndObject();
    json.Field("interrupts", spans->interrupt_latency().count());
    json.EndObject();
    return out.str();
  };

  const auto scrub_superblock = [](std::string s) {
    const size_t begin = s.find("\"superblock\":{");
    EXPECT_NE(begin, std::string::npos) << s;
    const size_t end = s.find('}', begin);
    EXPECT_NE(end, std::string::npos) << s;
    s.erase(begin, end + 2 - begin);  // includes the trailing comma
    return s;
  };
  const std::string traced = run(true);
  const std::string slow = run(false);
  EXPECT_EQ(scrub_superblock(traced), scrub_superblock(slow));
  // The run actually delivered interrupts, and the tier actually ran (the
  // parity check is not vacuous).
  EXPECT_NE(traced.find("\"interrupt\""), std::string::npos) << traced;
  EXPECT_EQ(traced.find("\"superblock\":{\"builds\":0,"), std::string::npos) << traced;
}

// ---------------------------------------------------------------------------
// Span-aware Chrome trace export.

TEST(SpanExportTest, ChromeTraceHasSlicesAndFlowArrows) {
  SpanSink sink;
  sink.OnEvent(Event(TraceEventKind::kTrap, 10, 0x2000,
                     static_cast<uint32_t>(ExcCause::kPageFaultLoad), 4));
  sink.OnEvent(Event(TraceEventKind::kMachineCheck, 20, 0x8008, 1, 0, true));
  sink.OnEvent(Event(TraceEventKind::kMexit, 50, 0x8100, 0x8008, 3, true));
  sink.OnEvent(Event(TraceEventKind::kMexit, 70, 0x8010, 0x2000, 0, true));

  const std::vector<TraceEvent> events = {
      Event(TraceEventKind::kRetire, 5, 0x1ffc, 0x13),
      Event(TraceEventKind::kMachineCheck, 20, 0x8008, 1, 0, true),
  };
  std::ostringstream out;
  ExportChromeTraceWithSpans(events, sink.Spans(), out);
  const std::string text = out.str();
  EXPECT_TRUE(JsonLooksValid(text)) << text;
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);      // span slices
  EXPECT_NE(text.find("\"ph\":\"s\""), std::string::npos);      // flow start
  EXPECT_NE(text.find("\"ph\":\"f\""), std::string::npos);      // flow finish
  EXPECT_NE(text.find("machine check"), std::string::npos);
  EXPECT_NE(text.find("scrub-retry"), std::string::npos);
  EXPECT_NE(text.find("\"cat\":\"causal\""), std::string::npos);
  // Non-transition events still render as instants.
  EXPECT_NE(text.find("\"ph\":\"i\""), std::string::npos);
}

}  // namespace
}  // namespace msim
