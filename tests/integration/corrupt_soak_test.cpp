// Corrupted-input soak: a model-mode TLR Cholesky over a fabric that flips
// one payload bit in 2% of messages, with the reliability sublayer OFF, so
// nothing below the runtime checks a checksum.  Damaged control messages
// still decode and name flows, ranks and tasks that do not exist.  With
// fault tolerance off the runtime must drop and count what it cannot use
// and end every run in a defined RunStatus; none may abort.
//
// The seeds are 1-6.  Other seeds can flip a task key into one the graph
// definition itself rejects; validating records against the graph is not
// done yet, so those seeds are not part of this soak.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string_view>

#include "ce/world.hpp"
#include "hicma/driver.hpp"

namespace {

using ce::BackendKind;

std::uint64_t counter(const hicma::ExperimentResult& res,
                      std::string_view name) {
  const obs::Counter* c = res.metrics.find_counter(name);
  return c ? c->value() : 0;
}

class CorruptBackends : public ::testing::TestWithParam<BackendKind> {};

TEST_P(CorruptBackends, DamagedInputEndsInADefinedRunStatus) {
  // A failed run writes a post-mortem bundle by default; not here.
  ASSERT_EQ(::setenv("AMTLCE_POSTMORTEM", "off", 1), 0);
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    hicma::ExperimentConfig cfg;
    cfg.nodes = 4;
    cfg.backend = GetParam();
    cfg.tlr.mode = hicma::TlrOptions::Mode::Model;
    cfg.tlr.n = 36000;
    cfg.tlr.nb = 3000;
    cfg.fabric.faults.seed = seed;
    cfg.fabric.faults.corrupt_prob = 0.02;
    const hicma::ExperimentResult res = hicma::run_tlr_cholesky(cfg);

    EXPECT_GT(counter(res, "net.fault.corruptions"), 0u);
    EXPECT_STRNE(amt::run_status_name(res.run_status), "unknown");
    const amt::NodeStats& st = res.runtime_stats;
    const std::uint64_t dropped = st.stale_activations +
                                  st.dup_inputs_dropped + st.malformed_msgs +
                                  res.ce_stats.malformed_msgs;
    if (res.run_status == amt::RunStatus::Ok) {
      EXPECT_GT(res.tasks, 0u);
    } else {
      // Tolerance is off: the only way to fail is to be left incomplete,
      // and that takes input the runtime could not use.
      EXPECT_EQ(res.run_status, amt::RunStatus::ErrDeadlock);
      EXPECT_GT(dropped, 0u);
    }
  }
  ::unsetenv("AMTLCE_POSTMORTEM");
}

INSTANTIATE_TEST_SUITE_P(Backends, CorruptBackends,
                         ::testing::Values(BackendKind::Mpi,
                                           BackendKind::Lci),
                         [](const auto& pinfo) {
                           return pinfo.param == BackendKind::Mpi ? "Mpi"
                                                                  : "Lci";
                         });

}  // namespace
