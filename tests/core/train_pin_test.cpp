// The float32 training, pinned bit for bit. Every Table II net is trained the
// way core::prepare_task trains it, and three values are pinned with
// core::crc32: the CRC of the trained parameters' bytes, the bits of
// final_loss and the CRC of the per-epoch losses' bytes. The grid counts of
// GoldenGrid.* are a function of these weights, so a trainer change that
// moves one bit of one parameter fails here first, with the task named.
// The pins were taken with GCC 12.2 and glibc 2.36 (the toolchain the golden
// grid comes from); std::exp and std::log in the loss come from libm.

#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/crc32.hpp"
#include "core/experiment.hpp"

namespace dp::core {
namespace {

std::uint32_t crc_of(const std::vector<float>& v) {
  const std::span<const std::byte> bytes = std::as_bytes(std::span<const float>(v));
  return crc32({reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()});
}

data::Dataset generate(const TaskSpec& spec) {
  if (spec.name == "iris") return data::make_iris(spec.data_seed);
  if (spec.name == "wbc") return data::make_wbc(spec.data_seed);
  if (spec.name == "mushroom") return data::make_mushroom(spec.data_seed);
  throw std::invalid_argument("unknown task: " + spec.name);
}

struct Pin {
  std::uint32_t params_crc;
  std::uint32_t final_loss_bits;
  std::uint32_t epoch_loss_crc;
};

Pin pinned(const std::string& task) {
  if (task == "wbc") return {0xe3d191c2u, 0x3d060de8u, 0x77e56c7au};
  if (task == "iris") return {0x51cb3175u, 0x3c4e5ee8u, 0x026a447bu};
  if (task == "mushroom") return {0x555deed1u, 0x3e0285ccu, 0xf577f679u};
  throw std::invalid_argument("no pin for task: " + task);
}

TEST(TrainPin, PaperNetsTrainBitIdentically) {
  for (const TaskSpec& spec : paper_tasks()) {
    SCOPED_TRACE(spec.name);
    data::Split split = data::stratified_split(generate(spec), 1.0 / 3.0, spec.data_seed + 1);
    data::minmax_normalize(split);
    nn::Mlp net(spec.topology, spec.net_seed);
    const nn::TrainResult r = nn::train(net, to_matrix(split.train), split.train.y, spec.train_cfg);

    const Pin want = pinned(spec.name);
    EXPECT_EQ(crc_of(net.parameters()), want.params_crc);
    EXPECT_EQ(std::bit_cast<std::uint32_t>(r.final_loss), want.final_loss_bits);
    EXPECT_EQ(crc_of(r.epoch_loss), want.epoch_loss_crc);
  }
}

}  // namespace
}  // namespace dp::core
