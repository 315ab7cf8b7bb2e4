// Bit-reproducibility fingerprints for the fig4/fig5 pipeline.
//
// Each row pins the EXACT time-to-solution, message count, byte count,
// and critical-path finish of a small model-mode TLR-Cholesky run under
// the default two-level fabric preset.  These values were captured from
// the pre-topology build; the owner-tagged event queue, per-node delivery
// slabs, and fat-tree plumbing must all reproduce them to the last bit
// — any drift here means a published figure silently changed.
//
// If a deliberate model change invalidates these rows, re-capture them
// in the same commit and say so in the commit message.
#include <gtest/gtest.h>

#include <cstdint>

#include "hicma/driver.hpp"

namespace {

struct Fingerprint {
  int nodes;
  ce::BackendKind backend;
  bool mt_activate;
  double tts_s;
  std::uint64_t msgs;
  std::uint64_t bytes;
  std::int64_t crit;
};

constexpr Fingerprint kExpected[] = {
    {4, ce::BackendKind::Lci, false, 2.688176066, 1474, 993860329,
     2688176066},
    {4, ce::BackendKind::Lci, true, 2.7107365540000004, 1518, 993863233,
     2710732339},
    {4, ce::BackendKind::Mpi, false, 2.7108171470000002, 1470, 993860065,
     2710817147},
    {4, ce::BackendKind::Mpi, true, 2.7108881970000001, 1518, 993863233,
     2710876682},
    {8, ce::BackendKind::Lci, false, 2.5041015840000003, 2674, 1145289249,
     2504101584},
    {8, ce::BackendKind::Lci, true, 2.6315685360000001, 2718, 1145292153,
     2631564321},
    {8, ce::BackendKind::Mpi, false, 2.5595929630000001, 2671, 1145289051,
     2559592963},
    {8, ce::BackendKind::Mpi, true, 2.4638495120000004, 2718, 1145292153,
     2463837997},
};

TEST(Fingerprint, Fig5PipelineIsBitIdenticalToBaseline) {
  for (const Fingerprint& fp : kExpected) {
    hicma::ExperimentConfig cfg;
    cfg.nodes = fp.nodes;
    cfg.backend = fp.backend;
    cfg.mt_activate = fp.mt_activate;
    cfg.tlr.mode = hicma::TlrOptions::Mode::Model;
    cfg.tlr.n = 36000;
    cfg.tlr.nb = 3000;
    const auto res = hicma::run_tlr_cholesky(cfg);
    const char* label =
        fp.backend == ce::BackendKind::Lci ? "lci" : "mpi";
    SCOPED_TRACE(::testing::Message()
                 << "nodes=" << fp.nodes << " backend=" << label
                 << " mt=" << fp.mt_activate);
    // Exact double equality is intentional: the simulation is integer
    // nanoseconds underneath, so equality is reproducibility, and any
    // epsilon would mask real drift.
    EXPECT_EQ(res.tts_s, fp.tts_s);
    EXPECT_EQ(res.fabric_messages, fp.msgs);
    EXPECT_EQ(res.fabric_bytes, fp.bytes);
    EXPECT_EQ(res.runtime_stats.crit.finish_g, fp.crit);
    // A fault-free run drops nothing: a nonzero count here is a protocol
    // bug that the runtime tolerated instead of aborting on.
    EXPECT_EQ(res.run_status, amt::RunStatus::Ok);
    EXPECT_EQ(res.runtime_stats.stale_activations, 0u);
    EXPECT_EQ(res.runtime_stats.dup_inputs_dropped, 0u);
    EXPECT_EQ(res.runtime_stats.dup_completions_suppressed, 0u);
    EXPECT_EQ(res.runtime_stats.malformed_msgs, 0u);
    EXPECT_EQ(res.ce_stats.malformed_msgs, 0u);
  }
}

}  // namespace
