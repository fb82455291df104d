/**
 * @file
 * Batched-pipeline equivalence suite.
 *
 * The scheduler's batched stepping (SystemConfig::stepBatch) is a pure
 * performance feature: it must replay the scalar one-record-per-
 * dispatch simulation bit for bit. This suite pins that contract
 * across every registered design — a new design inherits the checks
 * automatically — by comparing full Metrics (every scalar plus the
 * detail StatSet) with operator==, i.e. bitwise double equality, not
 * tolerance.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/design_registry.h"
#include "sim/runner.h"
#include "sim/system.h"
#include "workloads/workload_spec.h"

namespace h2 {
namespace {

// Small but non-trivial: multiple cores so the scheduler actually
// interleaves, warm-up so the reset path is covered, and a write-heavy
// enough default mix that the controller queues see forced drains.
sim::RunConfig
baseConfig()
{
    sim::RunConfig cfg;
    cfg.numCores = 2;
    cfg.instrPerCore = 30'000;
    cfg.warmupInstrPerCore = 10'000;
    cfg.seed = 42;
    return cfg;
}

const std::vector<std::string> kWorkloads = {"lbm", "mcf",
                                             "mix:mcf+xalanc:2"};

sim::Metrics
runWith(const std::string &design, const std::string &workloadSpec,
        u32 stepBatch)
{
    sim::SystemConfig cfg = sim::makeSystemConfig(baseConfig());
    cfg.stepBatch = stepBatch;
    sim::System system(cfg, workloads::resolveWorkloadOrFatal(workloadSpec),
                       [&](const mem::MemSystemParams &mp,
                           const mem::LlcView &llc) {
                           return sim::makeDesign(design, mp, llc);
                       });
    system.run();
    return system.metrics();
}

/** stepBatch=1 degenerates to the scalar one-record-per-dispatch loop;
 *  the default batch must reproduce it exactly. */
void
expectBatchedEqualsScalar(const std::string &workloadSpec)
{
    for (const sim::DesignInfo *info :
         sim::DesignRegistry::instance().all()) {
        SCOPED_TRACE(info->name + " x " + workloadSpec);
        sim::Metrics scalar = runWith(info->name, workloadSpec, 1);
        sim::Metrics batched = runWith(info->name, workloadSpec, 64);
        EXPECT_TRUE(scalar == batched)
            << info->name << " x " << workloadSpec
            << ": stepBatch=64 diverged from stepBatch=1\nscalar:\n"
            << scalar.toJson() << "\nbatched:\n" << batched.toJson();
    }
}

TEST(BatchedEquivalence, AllDesignsLbm)
{
    expectBatchedEqualsScalar("lbm");
}

TEST(BatchedEquivalence, AllDesignsMcf)
{
    expectBatchedEqualsScalar("mcf");
}

TEST(BatchedEquivalence, AllDesignsMix)
{
    expectBatchedEqualsScalar("mix:mcf+xalanc:2");
}

// An uneven batch size exercises limit/cancel-stride interactions the
// power-of-two default cannot; one design suffices since the scheduler
// is design-agnostic.
TEST(BatchedEquivalence, OddBatchSizeHybrid2)
{
    sim::Metrics scalar = runWith("hybrid2", "mix:mcf+xalanc:2", 1);
    sim::Metrics odd = runWith("hybrid2", "mix:mcf+xalanc:2", 7);
    EXPECT_TRUE(scalar == odd);
}

} // namespace
} // namespace h2
