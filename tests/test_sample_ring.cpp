// Sample ring buffers (perf record semantics): record contents, drain
// behaviour, capacity/lost accounting, interaction with core types.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "cpumodel/machine.hpp"
#include "simkernel/kernel.hpp"
#include "workload/programs.hpp"

namespace hetpapi {
namespace {

using simkernel::CountKind;
using simkernel::CpuSet;
using simkernel::PerfEventAttr;
using simkernel::PerfEventHeader;
using simkernel::PerfRingCursor;
using simkernel::SimKernel;
using simkernel::Tid;
using workload::FixedWorkProgram;
using workload::PhaseSpec;

PerfEventAttr sampling_attr(std::uint32_t type, std::uint64_t period) {
  PerfEventAttr attr;
  attr.type = type;
  attr.config = static_cast<std::uint64_t>(CountKind::kInstructions);
  attr.sample_period = period;
  return attr;
}

TEST(SampleRing, RecordsCarryTimeCpuTidAndCoreType) {
  SimKernel kernel(cpumodel::raptor_lake_i7_13700());
  PhaseSpec phase;
  const Tid tid = kernel.spawn(
      std::make_shared<FixedWorkProgram>(phase, 50'000'000), CpuSet::of({2}));
  const auto* pmu = kernel.pmus().find_by_name("cpu_core");
  auto fd = kernel.perf_event_open(sampling_attr(pmu->type_id, 10'000'000),
                                   tid, -1, -1);
  ASSERT_TRUE(fd.has_value());
  kernel.run_until_idle(std::chrono::seconds(10));
  auto samples = kernel.perf_read_samples(*fd);
  ASSERT_TRUE(samples.has_value());
  ASSERT_EQ(samples->size(), 5u) << "50M instructions / 10M period";
  std::uint64_t last_time = 0;
  for (const auto& sample : *samples) {
    EXPECT_EQ(sample.cpu, 2);
    EXPECT_EQ(sample.tid, tid);
    EXPECT_EQ(sample.core_type, 0);
    EXPECT_EQ(sample.period, 10'000'000u);
    EXPECT_GE(sample.time_ns, last_time) << "monotonic timestamps";
    last_time = sample.time_ns;
  }
}

TEST(SampleRing, DrainEmptiesTheRing) {
  SimKernel kernel(cpumodel::raptor_lake_i7_13700());
  PhaseSpec phase;
  const Tid tid = kernel.spawn(
      std::make_shared<FixedWorkProgram>(phase, 100'000'000'000ULL),
      CpuSet::of({0}));
  const auto* pmu = kernel.pmus().find_by_name("cpu_core");
  auto fd = kernel.perf_event_open(sampling_attr(pmu->type_id, 1'000'000),
                                   tid, -1, -1);
  ASSERT_TRUE(fd.has_value());
  kernel.run_for(std::chrono::milliseconds(5));
  auto first = kernel.perf_read_samples(*fd);
  ASSERT_TRUE(first.has_value());
  EXPECT_GT(first->size(), 0u);
  auto empty = kernel.perf_read_samples(*fd);
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty->empty()) << "drain removes delivered records";
  kernel.run_for(std::chrono::milliseconds(5));
  auto second = kernel.perf_read_samples(*fd);
  EXPECT_GT(second->size(), 0u) << "new records keep arriving";
}

TEST(SampleRing, FullRingDropsAndCountsLostRecords) {
  SimKernel::Config config;
  config.perf.sample_ring_capacity = 16;
  SimKernel kernel(cpumodel::raptor_lake_i7_13700(), config);
  PhaseSpec phase;
  const Tid tid = kernel.spawn(
      std::make_shared<FixedWorkProgram>(phase, 500'000'000), CpuSet::of({0}));
  const auto* pmu = kernel.pmus().find_by_name("cpu_core");
  auto fd = kernel.perf_event_open(sampling_attr(pmu->type_id, 1'000'000),
                                   tid, -1, -1);
  ASSERT_TRUE(fd.has_value());
  kernel.run_until_idle(std::chrono::seconds(10));
  auto samples = kernel.perf_read_samples(*fd);
  ASSERT_TRUE(samples.has_value());
  EXPECT_EQ(samples->size(), 16u) << "capacity-bounded";
  auto lost = kernel.perf_lost_samples(*fd);
  ASSERT_TRUE(lost.has_value());
  EXPECT_EQ(samples->size() + *lost, 500u)
      << "delivered + lost = total periods";
}

TEST(SampleRing, CountingEventsHaveNoRing) {
  SimKernel kernel(cpumodel::raptor_lake_i7_13700());
  PhaseSpec phase;
  const Tid tid = kernel.spawn(
      std::make_shared<FixedWorkProgram>(phase, 1'000'000), CpuSet::of({0}));
  const auto* pmu = kernel.pmus().find_by_name("cpu_core");
  PerfEventAttr counting;
  counting.type = pmu->type_id;
  counting.config = static_cast<std::uint64_t>(CountKind::kInstructions);
  auto fd = kernel.perf_event_open(counting, tid, -1, -1);
  ASSERT_TRUE(fd.has_value());
  EXPECT_EQ(kernel.perf_read_samples(*fd).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SampleRing, MigratingThreadProducesSamplesFromBothCoreTypes) {
  SimKernel::Config config;
  config.sched.migration_rate_hz = 300.0;
  SimKernel kernel(cpumodel::raptor_lake_i7_13700(), config);
  PhaseSpec phase;
  const Tid tid = kernel.spawn(
      std::make_shared<FixedWorkProgram>(phase, 1'000'000'000ULL),
      CpuSet::all(24));
  const auto* p_pmu = kernel.pmus().find_by_name("cpu_core");
  const auto* e_pmu = kernel.pmus().find_by_name("cpu_atom");
  auto p_fd = kernel.perf_event_open(sampling_attr(p_pmu->type_id, 5'000'000),
                                     tid, -1, -1);
  auto e_fd = kernel.perf_event_open(sampling_attr(e_pmu->type_id, 5'000'000),
                                     tid, -1, -1);
  ASSERT_TRUE(p_fd.has_value());
  ASSERT_TRUE(e_fd.has_value());
  kernel.run_until_idle(std::chrono::seconds(60));
  auto p_samples = kernel.perf_read_samples(*p_fd);
  auto e_samples = kernel.perf_read_samples(*e_fd);
  EXPECT_GT(p_samples->size(), 0u);
  EXPECT_GT(e_samples->size(), 0u);
  for (const auto& sample : *p_samples) {
    EXPECT_EQ(sample.core_type, 0);
    EXPECT_LT(sample.cpu, 16) << "P samples only from P cpus";
  }
  for (const auto& sample : *e_samples) {
    EXPECT_EQ(sample.core_type, 1);
    EXPECT_GE(sample.cpu, 16) << "E samples only from E cpus";
  }
}

// ---------------------------------------------------------------------
// Records straddling the end of the data area. The writer and the
// cursor split their copies at the wrap point; a hand-sized ring driven
// through both halves of the protocol must round-trip every byte.
// ---------------------------------------------------------------------

using Record = std::vector<std::uint8_t>;

Record make_record(std::uint32_t type, const std::vector<std::uint64_t>& words) {
  PerfEventHeader hdr;
  hdr.type = type;
  hdr.misc = simkernel::kPerfRecordMiscUser;
  hdr.size = static_cast<std::uint16_t>(sizeof hdr + 8 * words.size());
  Record out(hdr.size);
  std::memcpy(out.data(), &hdr, sizeof hdr);
  std::memcpy(out.data() + sizeof hdr, words.data(), 8 * words.size());
  return out;
}

// A default-layout SAMPLE record: ip, pid|tid, time, cpu, period.
Record sample_record(std::uint64_t seed) {
  return make_record(simkernel::kPerfRecordSample,
                     {0x401000 + seed, (seed << 32) | seed, 1000 * seed, 3,
                      0x0102030405060708ULL ^ seed});
}

Record lost_record(std::uint64_t lost) {
  return make_record(simkernel::kPerfRecordLost, {7, lost});
}

struct HandRing {
  explicit HandRing(std::size_t size) : data(size, 0) {
    page.data_size = size;
  }
  simkernel::PerfRingView view() {
    simkernel::PerfRingView v;
    v.page = &page;
    v.data = data.data();
    v.size = data.size();
    return v;
  }
  bool write(const Record& record) {
    return simkernel::perf_ring_write(page, data.data(), data.size(),
                                      record.data(), record.size());
  }
  // Read one record back (header + body, as written) and commit.
  Record read_one() {
    PerfRingCursor cursor(view());
    PerfEventHeader hdr;
    std::uint8_t body[64];
    if (!cursor.next(&hdr, body, sizeof body)) return {};
    cursor.commit();
    Record out(hdr.size);
    std::memcpy(out.data(), &hdr, sizeof hdr);
    std::memcpy(out.data() + sizeof hdr, body, hdr.size - sizeof hdr);
    return out;
  }
  std::uint64_t offset() const { return page.data_head % data.size(); }

  simkernel::PerfUserPage page;
  std::vector<std::uint8_t> data;
};

TEST(SampleRing, SampleHeaderStraddlingTheEndRoundTrips) {
  // A 48-byte SAMPLE and a 24-byte LOST leave the head at byte 72 of a
  // 76-byte area: the next header splits 4 + 4 across the end.
  HandRing ring(76);
  for (const Record& r : {sample_record(1), lost_record(9)}) {
    ASSERT_TRUE(ring.write(r));
    ASSERT_EQ(ring.read_one(), r);
  }
  ASSERT_EQ(ring.offset(), 72u);
  const Record straddling = sample_record(2);
  ASSERT_TRUE(ring.write(straddling));
  EXPECT_EQ(ring.page.data_head - ring.page.data_tail, straddling.size());
  EXPECT_EQ(ring.read_one(), straddling) << "byte-identical round trip";
  EXPECT_EQ(ring.page.data_tail, ring.page.data_head);

  simkernel::PerfSampleParsed parsed;
  ASSERT_TRUE(simkernel::perf_parse_sample(
      simkernel::kSampleTypeDefault, straddling.data() + sizeof(PerfEventHeader),
      straddling.size() - sizeof(PerfEventHeader), &parsed));
  EXPECT_EQ(parsed.ip, 0x401002u);
  EXPECT_EQ(parsed.tid, 2u);
}

TEST(SampleRing, SampleBodyStraddlingTheEndRoundTrips) {
  // The second SAMPLE starts at byte 48 of an 80-byte area: its header
  // fits, its body splits 24 + 16 across the end.
  HandRing ring(80);
  ASSERT_TRUE(ring.write(sample_record(1)));
  ASSERT_EQ(ring.read_one(), sample_record(1));
  ASSERT_EQ(ring.offset(), 48u);
  const Record straddling = sample_record(3);
  ASSERT_TRUE(ring.write(straddling));
  EXPECT_EQ(ring.read_one(), straddling) << "byte-identical round trip";

  // A full ring refuses the write and leaves the head alone.
  ASSERT_TRUE(ring.write(sample_record(4)));
  const std::uint64_t head = ring.page.data_head;
  EXPECT_FALSE(ring.write(sample_record(5)));
  EXPECT_EQ(ring.page.data_head, head);
  EXPECT_EQ(ring.read_one(), sample_record(4));
}

TEST(SampleRing, MalformedStraddlingHeaderResynchronizesOnCommit) {
  // Header sizes below the header itself and beyond the unread span,
  // each written so the header splits across the end of the area.
  for (const std::uint16_t bad_size : {std::uint16_t{4}, std::uint16_t{200}}) {
    SCOPED_TRACE(bad_size);
    HandRing ring(76);
    ASSERT_TRUE(ring.write(sample_record(1)));
    ASSERT_FALSE(ring.read_one().empty());
    ASSERT_TRUE(ring.write(lost_record(1)));
    ASSERT_FALSE(ring.read_one().empty());
    ASSERT_EQ(ring.offset(), 72u);

    PerfEventHeader bad;
    bad.type = simkernel::kPerfRecordSample;
    bad.size = bad_size;
    Record garbage(16, 0xab);
    std::memcpy(garbage.data(), &bad, sizeof bad);
    ASSERT_TRUE(ring.write(garbage));

    PerfRingCursor cursor(ring.view());
    PerfEventHeader hdr;
    std::uint8_t body[64];
    EXPECT_FALSE(cursor.next(&hdr, body, sizeof body));
    EXPECT_TRUE(cursor.malformed());
    cursor.commit();
    EXPECT_EQ(ring.page.data_tail, ring.page.data_head)
        << "commit() skips the whole unread span";

    const Record next = sample_record(2);
    ASSERT_TRUE(ring.write(next));
    EXPECT_EQ(ring.read_one(), next) << "the ring is usable again";
  }
}

TEST(SampleRing, KernelWrittenRecordsStraddleAfterALostRecord) {
  // A 24-byte LOST record shifts the 48-byte sample alignment, so the
  // simulated kernel's own writes straddle the end of a 4-record ring.
  SimKernel::Config config;
  config.perf.sample_ring_capacity = 4;
  SimKernel kernel(cpumodel::raptor_lake_i7_13700(), config);
  PhaseSpec phase;
  constexpr std::uint64_t kPeriod = 5'000'000;
  constexpr std::uint64_t kWork = 400'000'000;
  const Tid tid = kernel.spawn(std::make_shared<FixedWorkProgram>(phase, kWork),
                               CpuSet::of({0}));
  const auto* pmu = kernel.pmus().find_by_name("cpu_core");
  auto fd = kernel.perf_event_open(sampling_attr(pmu->type_id, kPeriod), tid,
                                   -1, -1);
  ASSERT_TRUE(fd.has_value());
  auto view = kernel.perf_mmap_ring(*fd);
  ASSERT_TRUE(view.has_value());

  std::uint64_t delivered = 0;
  std::uint64_t lost = 0;
  int straddled = 0;
  // An uneven drain cadence: long gaps overflow the ring, short ones
  // catch it part-full, so records start at varying offsets.
  for (int pass = 0; pass < 30; ++pass) {
    kernel.run_for(std::chrono::milliseconds(1 + (pass % 4 == 1 ? 2 : 0)));
    ASSERT_TRUE(kernel.perf_ring_poll(*fd).has_value());
    PerfRingCursor cursor(*view);
    PerfEventHeader hdr;
    std::uint64_t pos = view->page->data_tail;
    while (true) {
      std::uint8_t body[64];
      std::memset(body, 0xff, sizeof body);  // a short copy leaves poison
      if (!cursor.next(&hdr, body, sizeof body)) break;
      if (pos % view->size + hdr.size > view->size) ++straddled;
      pos += hdr.size;
      if (hdr.type == simkernel::kPerfRecordLost) {
        simkernel::PerfLostParsed parsed;
        ASSERT_TRUE(simkernel::perf_parse_lost(body, hdr.size - sizeof hdr,
                                               &parsed));
        lost += parsed.lost;
        continue;
      }
      simkernel::PerfSampleParsed parsed;
      ASSERT_TRUE(simkernel::perf_parse_sample(
          view->sample_type, body, hdr.size - sizeof hdr, &parsed));
      EXPECT_EQ(parsed.cpu, 0u);
      EXPECT_EQ(parsed.tid, static_cast<std::uint32_t>(tid));
      EXPECT_EQ(parsed.period, kPeriod);
      ++delivered;
    }
    EXPECT_FALSE(cursor.malformed());
    cursor.commit();
  }
  EXPECT_GT(straddled, 0) << "the walk crossed the end mid-record";
  EXPECT_GT(lost, 0u);
  EXPECT_EQ(delivered + lost, kWork / kPeriod)
      << "every period crossing accounted for";
}

}  // namespace
}  // namespace hetpapi
