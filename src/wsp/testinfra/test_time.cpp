#include "wsp/testinfra/test_time.hpp"

#include "wsp/common/error.hpp"

namespace wsp::testinfra {

std::uint64_t progressive_unroll_tcks(int chain_tiles, int daps_in_path,
                                      std::optional<int> first_faulty) {
  const int last = first_faulty.value_or(chain_tiles - 1);
  require(daps_in_path >= 1 && last >= 0 && last < chain_tiles,
          "the screen needs a DAP per tile and a fault inside the chain");
  const auto steps = static_cast<std::uint64_t>(last) + 1;
  return steps * (11 + 16 * static_cast<std::uint64_t>(daps_in_path) *
                           (steps + 1));
}

std::uint64_t total_memory_payload_bits(const SystemConfig& config) {
  const std::uint64_t private_bits =
      static_cast<std::uint64_t>(config.cores_per_tile) *
      config.private_mem_per_core_bytes * 8ull;
  const std::uint64_t bank_bits =
      static_cast<std::uint64_t>(config.banks_per_memory_chiplet) *
      config.bank_bytes * 8ull;
  return static_cast<std::uint64_t>(config.total_tiles()) *
         (private_bits + bank_bits);
}

LoadTimeReport memory_load_time(const SystemConfig& config, int chains,
                                bool broadcast,
                                const TestTimeParams& params) {
  require(chains >= 1 && chains <= config.array_height,
          "chains are organised per tile row");
  require(params.protocol_overhead >= 1.0,
          "protocol overhead cannot be below 1 TCK per bit");

  LoadTimeReport r;
  r.chains = chains;
  r.broadcast = broadcast;

  std::uint64_t bits = total_memory_payload_bits(config);
  if (broadcast) {
    // Broadcast shifts one private image per tile instead of one per core.
    const std::uint64_t private_bits =
        static_cast<std::uint64_t>(config.total_tiles()) *
        config.cores_per_tile * config.private_mem_per_core_bytes * 8ull;
    const std::uint64_t one_copy =
        private_bits / static_cast<std::uint64_t>(config.cores_per_tile);
    bits = bits - private_bits + one_copy;
  }
  r.total_payload_bits = bits;

  const int tiles_per_chain =
      config.total_tiles() / chains;  // rows x width / chains
  r.tck_hz = config.jtag_tck_hz /
             (1.0 + params.tck_load_derate * (tiles_per_chain - 1));

  // Chains run in parallel; bits spread evenly across chains.
  const double bits_per_chain =
      static_cast<double>(bits) / static_cast<double>(chains);
  r.seconds = bits_per_chain * params.protocol_overhead / r.tck_hz;
  return r;
}

double broadcast_speedup(const SystemConfig& config) {
  return static_cast<double>(config.cores_per_tile);
}

}  // namespace wsp::testinfra
