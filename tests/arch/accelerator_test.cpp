// Tests for the streaming accelerator model (§III-E).

#include "arch/accelerator.hpp"

#include <gtest/gtest.h>

#include "nn/quantize.hpp"

namespace dp::arch {
namespace {

nn::QuantizedNetwork make_net(const num::Format& fmt) {
  const nn::Mlp net({4, 10, 6, 3}, 1);
  return nn::quantize(net, fmt);
}

TEST(PipelineDepth, PerKind) {
  EXPECT_EQ(emac_pipeline_depth(num::Format{num::PositFormat{8, 1}}), 3u);
  EXPECT_EQ(emac_pipeline_depth(num::Format{num::FloatFormat{4, 3}}), 2u);
  EXPECT_EQ(emac_pipeline_depth(num::Format{num::FixedFormat{8, 4}}), 2u);
}

TEST(Accelerator, HandComputedCycles) {
  // Posit: depth 3 + 1 readout. Layers 4->10->6->3.
  const AcceleratorReport r = simulate(make_net(num::Format{num::PositFormat{8, 1}}));
  ASSERT_EQ(r.layers.size(), 3u);
  EXPECT_EQ(r.layers[0].cycles, 4u + 3 + 1);
  EXPECT_EQ(r.layers[1].cycles, 10u + 3 + 1);
  EXPECT_EQ(r.layers[2].cycles, 6u + 3 + 1);
  EXPECT_EQ(r.latency_cycles, 8u + 14 + 10);
  EXPECT_EQ(r.initiation_interval, 10u + 3 + 1);  // max fan-in layer gates streaming
  EXPECT_EQ(r.emac_units, 10u + 6 + 3);
  EXPECT_EQ(r.macs_per_inference, 4u * 10 + 10 * 6 + 6 * 3);
}

TEST(Accelerator, WeightMemoryBits) {
  const AcceleratorReport r = simulate(make_net(num::Format{num::PositFormat{8, 1}}));
  // (fan_in + 1 bias) * fan_out * n bits per layer.
  EXPECT_EQ(r.weight_memory_bits, ((4u + 1) * 10 + (10u + 1) * 6 + (6u + 1) * 3) * 8);
}

TEST(Accelerator, TimingAndEnergyConsistency) {
  const AcceleratorReport r = simulate(make_net(num::Format{num::FloatFormat{4, 3}}));
  EXPECT_GT(r.clock_hz, 1e8);
  EXPECT_NEAR(r.latency_s, static_cast<double>(r.latency_cycles) / r.clock_hz, 1e-15);
  EXPECT_NEAR(r.throughput_inf_per_s,
              r.clock_hz / static_cast<double>(r.initiation_interval), 1e-6);
  EXPECT_GT(r.dynamic_energy_per_inference_j, 0);
  EXPECT_NEAR(r.edp_j_s, r.dynamic_energy_per_inference_j * r.latency_s, 1e-30);
}

TEST(Accelerator, FixedIsFastestPerInference) {
  const auto rp = simulate(make_net(num::Format{num::PositFormat{8, 1}}));
  const auto rf = simulate(make_net(num::Format{num::FloatFormat{4, 3}}));
  const auto rx = simulate(make_net(num::Format{num::FixedFormat{8, 4}}));
  EXPECT_LT(rx.latency_s, rp.latency_s);
  EXPECT_LT(rx.latency_s, rf.latency_s);
  // Paper Fig. 6/7 consequence: fixed also wins EDP at the inference level.
  EXPECT_LT(rx.edp_j_s, rp.edp_j_s);
  EXPECT_LT(rx.edp_j_s, rf.edp_j_s);
}

TEST(Accelerator, StreamingBeatsLatencyRate) {
  const auto r = simulate(make_net(num::Format{num::PositFormat{8, 1}}));
  const double latency_rate = 1.0 / r.latency_s;
  EXPECT_GT(r.throughput_inf_per_s, latency_rate);
}

TEST(Accelerator, RejectsEmptyNetwork) {
  nn::QuantizedNetwork empty{num::Format{num::PositFormat{8, 1}}, {}, {}};
  EXPECT_THROW(simulate(empty), std::invalid_argument);
}

}  // namespace
}  // namespace dp::arch
