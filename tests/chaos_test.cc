/**
 * @file
 * Tests for the gray-failure resilience stack: the scripted chaos
 * scenario format, the injector's non-fail-stop fault modes, the
 * Controller's EWMA health state machine, the deterministic chaos
 * harness's content oracle across seeds, live drain / hot-add under
 * load, and the evacuate-vs-async-eviction race regression.
 */

#include <gtest/gtest.h>

#include "chaos/chaos_runner.h"
#include "chaos/chaos_scenario.h"
#include "common/rng.h"
#include "core/kona_runtime.h"
#include "net/fault_injector.h"

namespace kona {
namespace {

// ---------------------------------------------------------------------
// Scenario format: parse/format round-trips, malformed input is fatal.
// ---------------------------------------------------------------------

TEST(ChaosScenarioFormat, RoundTrip)
{
    const char *text = R"(
        scenario round-trip
        workload redis-rand
        nodes 4
        replication 2
        ops 999
        scale 0.25
        @10 degrade 2 250000
        @10 nak 2 0.15
        @20 drop 1 0.02
        @30 spike 3 0.1 200000
        @40 flap 1 500 20
        @50 burst 2 400 8
        @60 partition 2 from 0
        @70 clear 2
        @80 down 3
        @90 up 3
        @100 drain 1
        @110 hotadd 5
    )";
    ChaosScenario a = parseChaosScenario(text);
    ChaosScenario b = parseChaosScenario(formatChaosScenario(a));
    EXPECT_EQ(b.name, "round-trip");
    EXPECT_EQ(b.workload, a.workload);
    EXPECT_EQ(b.nodes, a.nodes);
    EXPECT_EQ(b.replication, a.replication);
    EXPECT_EQ(b.ops, a.ops);
    EXPECT_DOUBLE_EQ(b.scale, a.scale);
    ASSERT_EQ(b.events.size(), a.events.size());
    for (std::size_t i = 0; i < a.events.size(); ++i) {
        EXPECT_EQ(b.events[i].atOp, a.events[i].atOp) << "event " << i;
        EXPECT_EQ(b.events[i].op, a.events[i].op) << "event " << i;
        EXPECT_EQ(b.events[i].node, a.events[i].node) << "event " << i;
        EXPECT_EQ(b.events[i].peer, a.events[i].peer) << "event " << i;
        EXPECT_DOUBLE_EQ(b.events[i].p, a.events[i].p) << "event " << i;
        EXPECT_EQ(b.events[i].ns, a.events[i].ns) << "event " << i;
        EXPECT_EQ(b.events[i].a, a.events[i].a) << "event " << i;
        EXPECT_EQ(b.events[i].b, a.events[i].b) << "event " << i;
    }
}

TEST(ChaosScenarioFormat, MalformedInputIsFatal)
{
    EXPECT_THROW(parseChaosScenario("@10 explode 2"), FatalError);
    EXPECT_THROW(parseChaosScenario("@10 degrade 2"), FatalError);
    EXPECT_THROW(parseChaosScenario("@10 partition 2 against 0"),
                 FatalError);
    EXPECT_THROW(parseChaosScenario("nodes three"), FatalError);
    EXPECT_THROW(parseChaosScenario("turbo 9"), FatalError);
    // A slab holds at most RemoteCopies::maxCopies copies.
    EXPECT_NO_THROW(parseChaosScenario("replication 7"));
    EXPECT_THROW(parseChaosScenario("replication 8"), FatalError);
}

TEST(ChaosScenarioFormat, BuiltinLibraryCoversTheGrayShapes)
{
    const auto &lib = builtinChaosScenarios();
    ASSERT_EQ(lib.size(), 5u);
    EXPECT_EQ(lib[0].name, "slow-node");
    EXPECT_EQ(lib[1].name, "flapping");
    EXPECT_EQ(lib[2].name, "partial-partition");
    EXPECT_EQ(lib[3].name, "drain-under-load");
    EXPECT_EQ(lib[4].name, "hot-add-rebalance");
    for (const ChaosScenario &sc : lib)
        EXPECT_FALSE(sc.events.empty()) << sc.name;
}

// ---------------------------------------------------------------------
// FaultInjector gray modes: determinism, degrade, partial partition.
// ---------------------------------------------------------------------

TEST(FaultInjectorGray, DegradeIsConstantAndDeterministic)
{
    FaultInjector a(42), b(42);
    a.profile(2).degradeDelayNs = 250'000;
    b.profile(2).degradeDelayNs = 250'000;
    for (int i = 0; i < 64; ++i) {
        FaultDecision da = a.decide(2, RdmaOpcode::Read, 64);
        FaultDecision db = b.decide(2, RdmaOpcode::Read, 64);
        EXPECT_EQ(da.status, WcStatus::Success);
        EXPECT_GE(da.extraLatencyNs, 250'000u);
        EXPECT_EQ(da.status, db.status);
        EXPECT_EQ(da.extraLatencyNs, db.extraLatencyNs);
    }
    EXPECT_EQ(a.degradesInjected(), 64u);
}

TEST(FaultInjectorGray, PartitionIsOneDirectional)
{
    FaultInjector fi(7);
    fi.profile(2).blockedSources.push_back(0);
    // Blocked direction: ops from node 0 to node 2 time out.
    for (int i = 0; i < 8; ++i) {
        FaultDecision d = fi.decide(0, 2, RdmaOpcode::Write, 64);
        EXPECT_EQ(d.status, WcStatus::Timeout);
    }
    // Every other direction is untouched: other sources reach node 2,
    // and source-oblivious callers never match the block list.
    EXPECT_EQ(fi.decide(1, 2, RdmaOpcode::Write, 64).status,
              WcStatus::Success);
    EXPECT_EQ(fi.decide(2, RdmaOpcode::Write, 64).status,
              WcStatus::Success);
    EXPECT_EQ(fi.decide(0, 1, RdmaOpcode::Write, 64).status,
              WcStatus::Success);
    EXPECT_EQ(fi.partitionBlocks(), 8u);
}

// ---------------------------------------------------------------------
// Controller health state machine: the full gray-failure life cycle.
// ---------------------------------------------------------------------

/** Two registered nodes plus a fast-moving health policy. */
struct HealthRig
{
    HealthRig() : controller(1 * MiB)
    {
        for (NodeId id = 1; id <= 2; ++id) {
            nodes.push_back(
                std::make_unique<MemoryNode>(fabric, id, 16 * MiB));
            controller.registerNode(*nodes.back());
        }
        // Gray faults must not trip the fail-stop detector here.
        controller.setFailureThreshold(1'000'000);
        HealthPolicy p;
        p.ewmaAlpha = 0.5;
        p.minSamples = 4;
        p.readmitProbation = 3;
        controller.setHealthPolicy(p);
    }

    Fabric fabric;
    Controller controller;
    std::vector<std::unique_ptr<MemoryNode>> nodes;
};

TEST(ControllerHealthMachine, FailuresWalkTheFullCycle)
{
    HealthRig rig;
    Controller &c = rig.controller;
    EXPECT_EQ(c.health(1), NodeHealth::Healthy);
    EXPECT_FALSE(c.avoidForReads(1));

    // Sustained failures: Healthy -> Suspect -> Quarantined, with the
    // membership epoch advancing monotonically at each transition.
    std::uint64_t epoch = c.membershipEpoch();
    while (c.health(1) != NodeHealth::Suspect)
        c.reportOpFailure(1);
    EXPECT_GT(c.membershipEpoch(), epoch);
    epoch = c.membershipEpoch();
    EXPECT_TRUE(c.avoidForReads(1));
    EXPECT_FALSE(c.takesPlacements(1));

    while (c.health(1) != NodeHealth::Quarantined)
        c.reportOpFailure(1);
    EXPECT_GT(c.membershipEpoch(), epoch);
    epoch = c.membershipEpoch();
    EXPECT_TRUE(c.avoidForReads(1));
    EXPECT_FALSE(c.takesPlacements(1));

    // Recovery: scores decay on successes -> Readmitted on probation
    // (placements allowed again), then Healthy once probation serves.
    while (c.health(1) != NodeHealth::Readmitted)
        c.reportOpSuccess(1);
    EXPECT_GT(c.membershipEpoch(), epoch);
    epoch = c.membershipEpoch();
    EXPECT_FALSE(c.avoidForReads(1));
    EXPECT_TRUE(c.takesPlacements(1));

    while (c.health(1) != NodeHealth::Healthy)
        c.reportOpSuccess(1);
    EXPECT_GT(c.membershipEpoch(), epoch);
    EXPECT_EQ(c.nodesSuspected(), 1u);
    EXPECT_EQ(c.nodesReadmitted(), 1u);
}

TEST(ControllerHealthMachine, LatencyAloneTripsSuspect)
{
    HealthRig rig;
    Controller &c = rig.controller;
    // Every op succeeds — the node is just slow. With the default
    // 40us budget and 4x slack, a sustained 300us EWMA maxes the
    // latency score even though badness stays zero.
    for (int i = 0; i < 32 && c.health(1) == NodeHealth::Healthy; ++i)
        c.observeFetch(1, 300'000);
    EXPECT_TRUE(c.health(1) == NodeHealth::Suspect ||
                c.health(1) == NodeHealth::Quarantined);
    EXPECT_GE(c.healthScore(1), 0.5);
}

TEST(ControllerHealthMachine, QuarantinedNodeTakesNoPlacements)
{
    HealthRig rig;
    Controller &c = rig.controller;
    while (c.health(2) != NodeHealth::Quarantined)
        c.reportOpFailure(2);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(c.allocateSlab(PlacementRequest{})->where.node, 1u);
    EXPECT_TRUE(c.allocateSlab(PlacementRequest{.avoid = {1}}) ==
                std::nullopt);
}

TEST(ControllerHealthMachine, NakIsSofterEvidenceThanTimeout)
{
    HealthRig rig;
    Controller &c = rig.controller;
    c.observeNak(1);
    c.observeTimeout(2);
    EXPECT_GT(c.healthScore(2), c.healthScore(1));
    EXPECT_GT(c.healthScore(1), 0.0);
}

// ---------------------------------------------------------------------
// The content oracle: every builtin scenario, across seeds, must end
// with memory byte-identical to an undisturbed run.
// ---------------------------------------------------------------------

TEST(ChaosOracle, AllBuiltinScenariosMatchAcrossSeeds)
{
    for (const ChaosScenario &scenario : builtinChaosScenarios()) {
        ChaosRunConfig oracleCfg;
        oracleCfg.faultFree = true;
        ChaosReport oracle = runChaosScenario(scenario, oracleCfg);
        ASSERT_FALSE(oracle.image.empty()) << scenario.name;

        for (int i = 0; i < 5; ++i) {
            ChaosRunConfig cfg;
            cfg.seed = 0x5eedULL + 0x9e37ULL * i;
            ChaosReport run = runChaosScenario(scenario, cfg);
            EXPECT_EQ(run.opsDone, scenario.ops)
                << scenario.name << " seed " << i;
            EXPECT_TRUE(run.image == oracle.image)
                << scenario.name << " seed " << i
                << ": final memory diverged from the fault-free oracle";
            EXPECT_GT(run.availability, 0.5)
                << scenario.name << " seed " << i;
        }
    }
}

// ---------------------------------------------------------------------
// Scenario-specific behavior at the default seed.
// ---------------------------------------------------------------------

TEST(ChaosScenarios, SlowNodeTraversesTheStateMachine)
{
    ChaosReport run = runChaosScenario(builtinChaosScenarios()[0]);
    // Suspect -> Quarantined -> Readmitted -> Healthy: four
    // transitions on top of the initial epoch.
    EXPECT_GE(run.membershipEpoch, 5u);
    EXPECT_EQ(run.finalNodeCount, 3u);
    EXPECT_EQ(run.reliability.nodesFailed, 0u);
}

TEST(ChaosScenarios, FlappingHedgesReadsAwayFromTheFlappingNode)
{
    ChaosReport run = runChaosScenario(builtinChaosScenarios()[1]);
    EXPECT_GT(run.hedgedReads, 0u);
    EXPECT_EQ(run.reliability.nodesFailed, 0u);
}

TEST(ChaosScenarios, PartialPartitionMarksMissedCopiesStale)
{
    ChaosReport run = runChaosScenario(builtinChaosScenarios()[2]);
    // Shipments that exhaust retries against the partitioned (but
    // live) node must stale-mark its copies rather than stall the
    // pipeline; the final writeback freshens them (oracle test).
    EXPECT_GT(run.staleCopyMarks, 0u);
    EXPECT_EQ(run.reliability.nodesFailed, 0u);
}

TEST(ChaosScenarios, DrainUnderLoadLosesNothingWhileServing)
{
    const ChaosScenario &scenario = builtinChaosScenarios()[3];
    ChaosRunConfig oracleCfg;
    oracleCfg.faultFree = true;
    ChaosReport oracle = runChaosScenario(scenario, oracleCfg);
    ChaosReport run = runChaosScenario(scenario);
    EXPECT_TRUE(run.drained);
    EXPECT_EQ(run.drainReport.slabsLost, 0u);
    EXPECT_EQ(run.drainReport.slabsUnrebuilt, 0u);
    EXPECT_GT(run.drainReport.slabsRebuilt, 0u);
    EXPECT_EQ(run.finalNodeCount, 2u);
    // Serving never stopped: the full op budget executed and the
    // image matches the undisturbed run.
    EXPECT_EQ(run.opsDone, scenario.ops);
    EXPECT_TRUE(run.image == oracle.image);
}

TEST(ChaosScenarios, HotAddWarmsTheJoinerBeforeItTakesTraffic)
{
    ChaosReport run = runChaosScenario(builtinChaosScenarios()[4]);
    EXPECT_TRUE(run.hotAdded);
    EXPECT_GT(run.hotAddReport.slabsRebuilt, 0u);
    EXPECT_EQ(run.finalNodeCount, 4u);
    // joining + warm-up-complete = two epoch bumps.
    EXPECT_GE(run.membershipEpoch, 3u);
}

// ---------------------------------------------------------------------
// Evacuate vs. async eviction: decommissioning a node with CL logs
// still in flight to it must wait them out, not rewrite placements
// underneath the wire.
// ---------------------------------------------------------------------

TEST(EvacuateRace, DecommissionWaitsOutInflightShipments)
{
    Fabric fabric;
    Controller controller(1 * MiB);
    std::vector<std::unique_ptr<MemoryNode>> nodes;
    for (NodeId id = 1; id <= 3; ++id) {
        nodes.push_back(
            std::make_unique<MemoryNode>(fabric, id, 64 * MiB));
        controller.registerNode(*nodes.back());
    }
    KonaConfig cfg;
    cfg.fpga.vfmemSize = 32 * MiB;
    cfg.fpga.fmemSize = 16 * MiB;   // everything stays resident
    cfg.hierarchy = HierarchyConfig::scaled();
    cfg.evict.pipelineDepth = 4;
    cfg.evict.pumpPeriod = ~std::size_t(0);   // manual pump only
    KonaRuntime runtime(fabric, controller, 0, cfg);

    Addr a = runtime.allocate(4 * MiB, pageSize);
    Rng rng(31);
    for (std::size_t i = 0; i < 4 * MiB / 8; ++i)
        runtime.store<std::uint64_t>(a + i * 8, rng.next());

    // Ship every dirty page asynchronously, then immediately
    // decommission the node the region lives on — with the logs still
    // on the wire.
    std::vector<Addr> vpns;
    for (std::size_t p = 0; p < 4 * MiB / pageSize; ++p)
        vpns.push_back(pageNumber(a) + p);
    SimClock clock;
    runtime.evictionHandler().submit({vpns}, clock);
    NodeId leaving = runtime.fpga().translation().translate(a).node;
    EXPECT_GT(runtime.evictionHandler().inflightShipments(), 0u);

    runtime.decommissionNode(leaving);
    EXPECT_GT(runtime.evictionHandler().evacuateDrainStalls(), 0u);
    EXPECT_EQ(controller.nodeCount(), 2u);

    // Nothing was lost to the race: the bytes survive the migration.
    Rng check(31);
    for (std::size_t i = 0; i < 4 * MiB / 8; ++i) {
        ASSERT_EQ(runtime.load<std::uint64_t>(a + i * 8), check.next())
            << "word " << i;
    }
}

} // namespace
} // namespace kona
