// Test-side mmap ring reader: one pass over a sampling event's ring the
// way a perf tool walks it, with nothing but the perf_event ABI rules
// (PerfRingCursor + perf_parse_sample / perf_parse_lost).
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "simkernel/kernel.hpp"
#include "simkernel/perf_abi.hpp"

namespace hetpapi::testing_support {

/// What one reader pass decoded.
struct RingDrain {
  std::vector<simkernel::PerfSampleParsed> samples;
  std::uint64_t lost = 0;  // PERF_RECORD_LOST sums
};

/// Walk [data_tail, data_head) of the fd's ring, decode SAMPLE and LOST
/// records, and commit the tail. A LOST record a full ring held back is
/// published by the next perf_ring_poll once a drain freed space.
inline RingDrain drain_ring(simkernel::SimKernel& kernel, int fd) {
  RingDrain out;
  const auto view = kernel.perf_mmap_ring(fd);
  EXPECT_TRUE(view.has_value()) << view.status().to_string();
  if (!view) return out;
  simkernel::PerfRingCursor cursor(*view);
  simkernel::PerfEventHeader header;
  simkernel::PerfRecordScratch scratch;
  while (const std::uint8_t* body = cursor.next(&header, scratch)) {
    const std::size_t body_size = header.size - sizeof header;
    if (header.type == simkernel::kPerfRecordLost) {
      simkernel::PerfLostParsed lost;
      EXPECT_TRUE(simkernel::perf_parse_lost(body, body_size, &lost));
      out.lost += lost.lost;
      continue;
    }
    EXPECT_EQ(header.type, simkernel::kPerfRecordSample);
    simkernel::PerfSampleParsed parsed;
    EXPECT_TRUE(simkernel::perf_parse_sample(view->sample_type, body,
                                             body_size, &parsed));
    out.samples.push_back(parsed);
  }
  EXPECT_FALSE(cursor.malformed());
  cursor.commit();
  return out;
}

}  // namespace hetpapi::testing_support
