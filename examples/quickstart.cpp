// Quickstart: run a Bitcoin-NG deployment and read out the paper's metrics.
//
//   $ ./quickstart
//
// Builds a 200-node emulated network (random ≥5-peer topology, empirical
// internet latencies, 100 kbit/s links), drives proof-of-work through the
// mining scheduler, and lets the elected leaders stream microblocks. This is
// the smallest end-to-end use of the library's public API.
#include <cstdio>

#include "metrics/metrics.hpp"
#include "sim/experiment.hpp"

namespace {

bng::sim::ExperimentConfig quickstart_config() {
  using namespace bng;
  sim::ExperimentConfig cfg;
  cfg.params = chain::Params::bitcoin_ng();  // key blocks every 100 s
  cfg.params.microblock_interval = 10.0;     // leader cadence (§4.2)
  cfg.params.max_microblock_size = 16'700;   // ~1 MB/600 s payload equivalent
  cfg.num_nodes = 200;
  cfg.target_blocks = 50;                    // run for 50 microblocks (§8)
  cfg.seed = 42;
  return cfg;
}

}  // namespace

int main() {
  using namespace bng;

  const sim::ExperimentConfig cfg = quickstart_config();

  std::printf("running Bitcoin-NG: %u nodes, key interval %.0fs, microblock "
              "interval %.0fs...\n",
              cfg.num_nodes, cfg.params.block_interval, cfg.params.microblock_interval);

  sim::Experiment exp(cfg);
  exp.run();

  auto m = metrics::compute_metrics(exp);
  std::printf("\nsimulated %.0f s of chain time\n", m.chain_duration_s);
  std::printf("key blocks:   %u generated, %u on the main chain\n", m.total_pow_blocks,
              m.main_chain_pow_blocks);
  std::printf("microblocks:  %u generated, %u on the main chain\n", m.total_micro_blocks,
              m.main_chain_micro_blocks);
  std::printf("transactions: %llu committed (%.2f tx/s)\n",
              static_cast<unsigned long long>(m.main_chain_txs), m.tx_per_sec);
  std::printf("\npaper metrics (§6):\n");
  std::printf("  (90%%,90%%) consensus delay: %6.2f s\n", m.consensus_delay_s);
  std::printf("  fairness:                  %6.3f (1.0 = optimal)\n", m.fairness);
  std::printf("  mining power utilization:  %6.3f (1.0 = optimal)\n",
              m.mining_power_utilization);
  std::printf("  time to prune (p90):       %6.2f s\n", m.time_to_prune_p90_s);
  std::printf("  time to win (p90):         %6.2f s\n", m.time_to_win_p90_s);
  std::printf("\nnetwork: %.1f MB over %llu messages\n",
              exp.network().bytes_sent() / 1e6,
              static_cast<unsigned long long>(exp.network().messages_sent()));
  return 0;
}
