#include "runtime/weights_io.hpp"

#include <cstdint>
#include <cstring>
#include <fstream>

#include "common/error.hpp"

namespace llmpq {

namespace {

constexpr char kMagic[4] = {'L', 'P', 'Q', 'W'};
constexpr std::uint32_t kVersion = 1;

void write_array(std::ofstream& out, const std::string& name,
                 const std::vector<float>& data) {
  const std::uint32_t name_len = static_cast<std::uint32_t>(name.size());
  out.write(reinterpret_cast<const char*>(&name_len), sizeof(name_len));
  out.write(name.data(), name_len);
  const std::uint64_t count = data.size();
  out.write(reinterpret_cast<const char*>(&count), sizeof(count));
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(count * sizeof(float)));
}

std::pair<std::string, std::vector<float>> read_array(std::ifstream& in) {
  std::uint32_t name_len = 0;
  in.read(reinterpret_cast<char*>(&name_len), sizeof(name_len));
  check_arg(in.good() && name_len < 256, "shard: corrupt array header");
  std::string name(name_len, '\0');
  in.read(name.data(), name_len);
  std::uint64_t count = 0;
  in.read(reinterpret_cast<char*>(&count), sizeof(count));
  check_arg(in.good() && count < (1ull << 32), "shard: corrupt array size");
  // Bound the allocation by the bytes the file still holds, so a corrupt
  // count fails here instead of in a multi-GiB vector constructor.
  const std::streampos pos = in.tellg();
  in.seekg(0, std::ios::end);
  const std::streamoff left = in.tellg() - pos;
  in.seekg(pos);
  check_arg(in.good() &&
                count <= static_cast<std::uint64_t>(left) / sizeof(float),
            "shard: array size exceeds the remaining file");
  std::vector<float> data(count);
  in.read(reinterpret_cast<char*>(data.data()),
          static_cast<std::streamsize>(count * sizeof(float)));
  check_arg(in.good(), "shard: truncated array data");
  return {std::move(name), std::move(data)};
}

}  // namespace

std::string shard_filename(const std::string& dir, int layer) {
  return dir + "/layer_" + std::to_string(layer) + ".lpqw";
}

void save_layer_shard(const std::string& path, const ModelSpec& spec,
                      int layer, const LayerMaster& master) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  check_arg(out.good(), "save_layer_shard: cannot open " + path);
  out.write(kMagic, sizeof(kMagic));
  out.write(reinterpret_cast<const char*>(&kVersion), sizeof(kVersion));
  const std::uint32_t layer_u = static_cast<std::uint32_t>(layer);
  out.write(reinterpret_cast<const char*>(&layer_u), sizeof(layer_u));
  write_array(out, "qkv", master.qkv);
  write_array(out, "qkv_bias", master.qkv_bias);
  write_array(out, "out", master.out);
  write_array(out, "out_bias", master.out_bias);
  write_array(out, "fc1", master.fc1);
  write_array(out, "fc1_bias", master.fc1_bias);
  write_array(out, "fc2", master.fc2);
  write_array(out, "fc2_bias", master.fc2_bias);
  if (spec.gated_mlp) {
    write_array(out, "fc3", master.fc3);
    write_array(out, "fc3_bias", master.fc3_bias);
  }
  write_array(out, "ln1_gamma", master.ln1_gamma);
  write_array(out, "ln1_beta", master.ln1_beta);
  write_array(out, "ln2_gamma", master.ln2_gamma);
  write_array(out, "ln2_beta", master.ln2_beta);
  check_arg(out.good(), "save_layer_shard: write failure to " + path);
}

LayerMaster load_layer_shard(const std::string& path, const ModelSpec& spec,
                             int layer) {
  std::ifstream in(path, std::ios::binary);
  check_arg(in.good(), "load_layer_shard: cannot open " + path);
  char magic[4];
  in.read(magic, sizeof(magic));
  check_arg(in.good() && std::memcmp(magic, kMagic, 4) == 0,
            "load_layer_shard: bad magic in " + path);
  std::uint32_t version = 0, layer_u = 0;
  in.read(reinterpret_cast<char*>(&version), sizeof(version));
  in.read(reinterpret_cast<char*>(&layer_u), sizeof(layer_u));
  check_arg(version == kVersion, "load_layer_shard: unsupported version");
  check_arg(layer_u == static_cast<std::uint32_t>(layer),
            "load_layer_shard: layer index mismatch");

  LayerMaster m;
  const auto h = static_cast<std::size_t>(spec.hidden);
  const auto f = static_cast<std::size_t>(spec.ffn);
  auto expect = [&](const char* name, std::vector<float>& dst,
                    std::size_t size) {
    auto [got_name, data] = read_array(in);
    check_arg(got_name == name, "load_layer_shard: expected array " +
                                    std::string(name) + ", got " + got_name);
    check_arg(data.size() == size,
              "load_layer_shard: size mismatch for " + got_name);
    dst = std::move(data);
  };
  expect("qkv", m.qkv, 3 * h * h);
  expect("qkv_bias", m.qkv_bias, 3 * h);
  expect("out", m.out, h * h);
  expect("out_bias", m.out_bias, h);
  expect("fc1", m.fc1, f * h);
  expect("fc1_bias", m.fc1_bias, f);
  expect("fc2", m.fc2, h * f);
  expect("fc2_bias", m.fc2_bias, h);
  if (spec.gated_mlp) {
    expect("fc3", m.fc3, f * h);
    expect("fc3_bias", m.fc3_bias, f);
  }
  expect("ln1_gamma", m.ln1_gamma, h);
  expect("ln1_beta", m.ln1_beta, h);
  expect("ln2_gamma", m.ln2_gamma, h);
  expect("ln2_beta", m.ln2_beta, h);
  return m;
}

std::size_t write_random_checkpoint(const std::string& dir,
                                    const ModelSpec& spec,
                                    std::uint64_t seed) {
  Rng rng(seed);
  // Burn the embedding draws so layer masters land at the same RNG offsets
  // as build_random_model(seed) — checkpoints and directly-built models
  // must agree bit-for-bit.
  const std::size_t embed_draws =
      static_cast<std::size_t>(spec.vocab + spec.max_pos) *
      static_cast<std::size_t>(spec.hidden);
  for (std::size_t i = 0; i < embed_draws; ++i) (void)rng.normal();
  std::size_t total = 0;
  for (int layer = 0; layer < spec.layers; ++layer) {
    const LayerMaster master = random_layer_master(spec, layer, rng);
    const std::string path = shard_filename(dir, layer);
    save_layer_shard(path, spec, layer, master);
    total += (master.qkv.size() + master.out.size() + master.fc1.size() +
              master.fc2.size()) *
             sizeof(float);
  }
  return total;
}

}  // namespace llmpq
